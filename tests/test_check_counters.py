"""The suite's counter gates: one committed file, one small checker."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def checker():
    path = os.path.join(ROOT, "benchmarks", "check_counters.py")
    spec = importlib.util.spec_from_file_location("check_counters", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _expected(checker):
    with open(checker.EXPECTED) as fh:
        return json.load(fh)


def test_every_gate_names_a_declared_metric(checker):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for name, entry in _expected(checker).items():
        assert f"--workload {name.removesuffix('_traced')} " in entry["run"]
        assert name.removesuffix("_traced") in workloads
        for gate in entry["gates"]:
            assert gate["metric"] in declared, (name, gate)
            assert gate["op"] in checker.OPS
            assert gate["why"]


def test_violations_require_correct_and_every_bound(checker, tmp_path):
    gates = _expected(checker)["sram_tol_traced"]["gates"]
    values = {
        "context.index_builds": 1,
        "parallel.published_mb": 0.574,
        "index.candidates_per_near_point": 3.554,
        "cross_master.discarded_batches": 0,
        "engine.rng_dispatches": 1938,
        "parallel.dispatches": 76,
        "latency_ms": 2500.0,
    }
    run = {
        "correct": True,
        "attempted": 2,
        "metrics": {k: {"value": v} for k, v in values.items()},
    }
    assert checker.violations(run, gates) == []
    path = tmp_path / "run.json"
    path.write_text(json.dumps(run))
    assert checker.main([str(path), "sram_tol_traced"]) == 0

    run["metrics"]["parallel.dispatches"]["value"] = 77
    run["metrics"]["context.index_builds"]["value"] = 2
    run["correct"] = False
    found = checker.violations(run, gates)
    assert len(found) == 3
    assert found[0] == "correct is not true"
    path.write_text(json.dumps(run))
    assert checker.main([str(path), "sram_tol_traced"]) == 1


def test_default_path_gate_dispatches_nothing(checker):
    """The traced ``case1_tol`` run extracts with the default config, which
    runs on one in-process vector: any pool work item fails its gate."""
    expected = _expected(checker)
    assert expected["case1_tol"]["gates"][0]["value"] == 146667
    entry = expected["case1_tol_traced"]
    assert "--trace 1" in entry["run"]
    run = {"correct": True, "metrics": {"parallel.dispatches": {"value": 0}}}
    assert checker.violations(run, entry["gates"]) == []
    run["metrics"]["parallel.dispatches"]["value"] = 12
    found = checker.violations(run, entry["gates"])
    assert len(found) == 1
    assert found[0].startswith("parallel.dispatches = 12, expected == 0")
