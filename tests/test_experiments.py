"""Fast end-to-end runs of every experiment harness.

These use drastically reduced budgets — the point is that each harness
executes its full pipeline and reproduces the paper's *qualitative*
orderings, not the publication-grade statistics.
"""

import numpy as np
import pytest

from repro import FRWConfig
from repro.experiments import (
    ExperimentRecord,
    ablations,
    fig2_walks,
    fig5_scaling,
    table1,
    table2_repro,
    table3_reliability,
)


def test_table1_fast(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = table1.run(profile="fast", cases=[1, 3], with_nc=True)
    assert len(record.rows) == 2
    case1_row = record.rows[0]
    assert case1_row[1] == 3 and case1_row[2] == 4  # Nm, N
    assert case1_row[3] == 12  # measured Nc matches the paper for case 1
    path = record.save()
    assert path.exists()
    loaded = ExperimentRecord.load(record.experiment)
    assert loaded.rows[0][1] == 3


def test_table2_orderings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = table2_repro.run(
        case=1,
        runs_per_machine=2,
        tolerance=5e-2,
        batch_size=1000,
        variants=("alg1", "frw-nk", "frw-r"),
    )
    cells = {(r[0], r[2]): (int(r[3]), float(r[4])) for r in record.rows}
    # Alg. 1 reproduces at fixed DOP but collapses at varied DOP.
    assert cells[("fixed", "alg1")][0] >= 10
    assert cells[("varied", "alg1")][0] <= 4
    # The reproducible schemes are DOP-independent.
    assert cells[("varied", "frw-r")][0] >= 12
    assert cells[("varied", "frw-nk")][0] >= 10
    # Kahan summation does not hurt (usually helps).
    assert cells[("varied", "frw-r")][0] >= cells[("varied", "frw-nk")][0]


def test_fig5_scaling_shape(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = fig5_scaling.run(
        case=1,
        variants=("frw-r",),
        thread_counts=(1, 4, 16),
        tolerance=6e-2,
        batch_size=2000,
        masters=[0],
    )
    speedups = [float(r[5]) for r in record.rows]
    assert speedups[0] == 1.0
    assert speedups[1] > 2.5  # near-linear at T=4
    assert speedups[2] > 8.0  # near-linear at T=16
    assert all(float(r[6]) <= 1.0 for r in record.rows)  # efficiency
    assert record.notes and "dynamic-queue" in record.notes[0]


def test_table3_reliability(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    record = table3_reliability.run(
        cases=[1],
        tolerance=6e-2,
        batch_size=1500,
        variants=("frw-r", "frw-rr"),
        reference="none",
    )
    by_variant = {r[1]: r for r in record.rows}
    # FRW-RR's property errors are exactly zero / machine epsilon.
    assert by_variant["frw-rr"][2] == "0"
    assert by_variant["frw-r"][2] != "0"
    assert by_variant["frw-rr"][6] != "-"  # T_post reported


def test_fig2_svg(tmp_path):
    record = fig2_walks.run(case=1, n_walks=3, output=tmp_path / "walks.svg")
    svg = (tmp_path / "walks.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3
    assert len(record.rows) == 3


def test_every_experiment_config_samples_without_groups(tmp_path, monkeypatch):
    """The paper experiments keep the paper's setup: every config any
    harness builds has antithetic sampling off (Table II's RI study needs
    the virtual-thread merge replay that grouped accumulation skips)."""
    seen = []
    post_init = FRWConfig.__post_init__

    def recording(self):
        seen.append(self)
        post_init(self)

    monkeypatch.setattr(FRWConfig, "__post_init__", recording)
    monkeypatch.chdir(tmp_path)
    table1.run(cases=[1])
    table2_repro.run(
        case=1, runs_per_machine=1, tolerance=0.3, batch_size=200, masters=[0]
    )
    fig5_scaling.run(
        case=1, thread_counts=(1,), tolerance=0.3, batch_size=200, masters=[0]
    )
    table3_reliability.run(cases=[1], tolerance=0.3, batch_size=200, max_masters=1)
    fig2_walks.run(case=1, n_walks=1, output=tmp_path / "walks.svg")
    ablations.batch_size_sweep(batch_sizes=(64,))
    ablations.table_resolution_sweep(resolutions=(4, 8), n_walks=64)
    ablations.absorption_sweep(fractions=(0.2,), n_walks=64)
    ablations.interface_snap_sweep(fractions=(0.05,), n_walks=64)
    assert seen and not [cfg for cfg in seen if cfg.antithetic]
