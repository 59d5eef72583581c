"""Self-test of the time-to-tolerance benchmark harness.

Runs every workload function on a reduced spec (a few seconds each) and
checks the harness itself: every metric named in BENCHMARK.json is
emitted with its unit, names are well-formed, and a corrupted result is
counted as a failure.
"""

import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

import run
import workloads

ROOT = os.path.dirname(os.path.dirname(workloads.HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Reduced specs: loose tolerances, one FRW seed, small SRAM batches.
SMALL = {
    "case1_tol": dict(tolerance=4e-2, subseeds=1),
    "open_field_tol": dict(tolerance=8e-2, subseeds=1),
    "sram_tol": dict(
        tolerance=0.3,
        subseeds=1,
        overrides={"executor": "process", "batch_size": 2000, "n_workers": 2},
    ),
}


def small(name: str) -> workloads.ExtractionSpec:
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_result(outcome: workloads.Outcome, trace: bool) -> None:
    """The run's result carries every declared metric, with its unit."""
    result = workloads.result(outcome, trace)
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, m["name"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_benchmark_json_matches_the_harness():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.NAMES) == list(workloads.WORKLOADS)
    tables = {"end_to_end": workloads.END_TO_END, "per_layer": workloads.PER_LAYER}
    for key, table in tables.items():
        assert {m["name"]: m["unit"] for m in spec[key]} == table
        for m in spec[key]:
            assert NAME.fullmatch(m["name"]), m["name"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_extraction_workload(name, trace):
    outcome = workloads.run_extraction(small(name), seed=3, seconds=0, trace=trace)
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted == 2
    check_result(outcome, trace)
    if trace:
        m = outcome.metrics
        assert m["context.index_builds"] == 1
        assert 0 <= m["trace.unattributed_frac"] < 0.05
        assert m["engine.steps_per_s"] > 0
        assert (m["parallel.dispatches"] == 0) == (name == "open_field_tol")
        assert (m["parallel.published_mb"] > 0) == (name == "sram_tol")


@pytest.mark.parametrize("trace", [False, True])
def test_service_workload(tmp_path, trace):
    spec = dataclasses.replace(
        workloads.WORKLOADS["service_mix"], rate=20.0, boots=2, replay=2
    )
    outcome = workloads.run_service(
        spec, seed=3, seconds=1.0, trace=trace,
        src=os.path.join(ROOT, "src"), workdir=str(tmp_path),
    )
    assert outcome.failed == 0, outcome.problems
    check_result(outcome, trace)
    if trace:
        assert 0 < outcome.metrics["service.full_hit_rate"] < 1
        assert outcome.metrics["engine.steps_per_s"] > 0


def corrupt(monkeypatch, change, calls=()):
    """Make ``timed_extraction`` alter one raw value on the given calls
    (every call when ``calls`` is empty)."""
    original = workloads.timed_extraction
    count = [0]

    def corrupted(structure, cfg):
        ex = original(structure, cfg)
        count[0] += 1
        if not calls or count[0] in calls:
            ex.raw.values[0, 1] = change(ex.raw.values[0, 1])
        return ex

    monkeypatch.setattr(workloads, "timed_extraction", corrupted)


def test_value_off_the_reference_fails(monkeypatch):
    corrupt(monkeypatch, lambda v: -v)
    outcome = workloads.run_extraction(small("case1_tol"), 3, 0, trace=False)
    assert outcome.failed == outcome.attempted == 2
    assert "vs reference" in outcome.problems[0]


def test_one_flipped_bit_fails(monkeypatch):
    corrupt(monkeypatch, lambda v: np.nextafter(v, np.inf), calls=(2,))
    outcome = workloads.run_extraction(small("case1_tol"), 3, 0, trace=False)
    assert outcome.failed == 1
    assert "differ from its first run" in outcome.problems[0]
