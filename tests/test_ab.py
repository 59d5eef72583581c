"""``benchmarks/ab.py``, the paired A/B runner, and ``BENCH_ab.json``, the
append-only list of its records.

Every committed record must follow the schema ``ab.py`` writes, and the
runner itself, in its dry mode (this checkout on both sides, one short
pair on ``case1_tol``), must read a walks-per-operation ratio of exactly 1
and equal counters.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "benchmarks" / "ab.py"
RECORDS = ROOT / "BENCH_ab.json"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_record(ab, record):
    assert set(ab.RECORD_KEYS) <= set(record)
    pairs = record["pairs"]
    assert isinstance(pairs, int) and pairs >= 1
    assert record["better"] in ("lower", "higher")
    for name in ("parent", "head"):
        side = record[name]
        assert set(ab.SIDE_KEYS) <= set(side)
        values = side["values"]
        assert len(values) == pairs
        assert min(values) <= side["q1"] <= side["median"] <= side["q3"]
        assert side["q3"] <= max(values)
        assert side["walks_per_op"]
    assert 0 <= record["wins"] <= pairs
    assert math.isclose(
        record["ratio"], record["head"]["median"] / record["parent"]["median"]
    )
    assert isinstance(record["gap_exceeds_parent_iqr"], bool)
    assert record["host"]["cpus"] >= 1
    counters = record["counters"]
    assert counters["equal"] == (counters["parent"] == counters["head"])
    assert "engine.steps_per_walk" in counters["head"]
    for sides in record["end_to_end"].values():
        assert set(sides) == {"parent", "head"}
    assert record["end_to_end"][record["metric"]]["head"] == (
        record["head"]["median"]
    )


def test_bench_ab_records_follow_the_schema(ab):
    """The committed records are a JSON list whose first entry is the
    ``sram_tol`` latency claim of the AVX2 draw path."""
    records = json.loads(RECORDS.read_text())
    assert isinstance(records, list) and records
    for record in records:
        check_record(ab, record)
    first = records[0]
    assert (first["workload"], first["metric"]) == ("sram_tol", "latency_ms")


def test_dry_run_reads_a_ratio_of_one(ab):
    """This checkout against itself: one short pair on ``case1_tol``
    reads the same walks per operation on both sides (a count, so the
    ratio is exactly 1 whatever the host's load), equal counters, and a
    head revision marked dirty exactly when ``git status`` lists a
    change or an untracked file."""
    proc = subprocess.run(
        [sys.executable, str(AB), "--workload", "case1_tol", "--seconds", "0",
         "--pairs", "1", "--metric", "walks_per_op", "--dry"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    check_record(ab, record)
    assert record["parent"]["rev"] == record["head"]["rev"]
    assert record["ratio"] == 1.0
    assert record["parent"]["walks_per_op"] == record["head"]["walks_per_op"]
    assert record["counters"]["equal"]
    status = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    assert record["head"]["rev"] == commit + ("+dirty" if status else "")
