"""Tests for experiment infrastructure (records, stopwatch, environment)."""

import time

import pytest

from repro.errors import ConfigError
from repro.experiments import ExperimentRecord, Stopwatch, environment_info
from repro.experiments.common import paper_config
from repro.frw.parallel import checkpoint_walks


def test_record_roundtrip(tmp_path):
    record = ExperimentRecord(
        experiment="demo",
        params={"x": 1},
        headers=["a", "b"],
        rows=[[1, "two"]],
        notes=["note"],
        elapsed_seconds=1.5,
        environment=environment_info(),
    )
    path = record.save(tmp_path)
    assert path.name == "demo.json"
    loaded = ExperimentRecord.load("demo", tmp_path)
    assert loaded.params == {"x": 1}
    assert loaded.rows == [[1, "two"]]
    assert loaded.notes == ["note"]
    assert loaded.elapsed_seconds == 1.5


def test_environment_info_fields():
    env = environment_info()
    assert {"platform", "python", "numpy", "timestamp"} <= set(env)


def test_stopwatch():
    with Stopwatch() as sw:
        time.sleep(0.01)
    assert sw.elapsed >= 0.01


def test_paper_config_keeps_the_fixed_batch_schedule():
    """Paper experiments run Alg. 2 at the paper's fixed ``B``: an unset
    ``min_walks`` becomes ``batch_size``, and one that cuts batches below ``B`` is refused."""
    for kwargs in ({}, {"batch_size": 2000}, {"batch_size": 800, "min_walks": 400}):
        cfg = paper_config("frw-r", **kwargs)
        assert checkpoint_walks(cfg) == cfg.batch_size
        assert not cfg.antithetic
    assert paper_config("frw-rr", batch_size=2000).min_walks == 2000
    with pytest.raises(ConfigError, match="min_walks"):
        paper_config("frw-r", batch_size=2000, min_walks=100)
