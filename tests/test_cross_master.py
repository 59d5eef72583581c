"""Golden cross-master bit-identity suite for the interleaved scheduler.

The acceptance criterion of the scheduler: every row of a multi-master
``extract()`` under the interleaved scheduler — any backend, any
``n_workers`` — equals the serial per-master ``FRWSolver.extract_row`` rows
bit for bit (``values``/``sigma2``/``hits``/``walks``/``batches``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Box, Conductor, FRWConfig, FRWSolver, Structure
from repro.frw import (
    PersistentExecutor,
    RowProgress,
    cross_master,
    run_walks,
    streams_from_spec,
)
from repro.lint.sanitizer import forbid_global_rng

BASE = dict(
    seed=13,
    n_threads=4,
    batch_size=256,
    min_walks=512,
    max_walks=1536,
    tolerance=2e-2,
)


@pytest.fixture(autouse=True)
def _rng_sanitizer(request):
    """Golden suites run with the runtime RNG sanitizer armed: any global
    np.random/random use during extraction fails loudly instead of
    surfacing as one-bit drift later.  Hypothesis seeds the global stdlib
    RNG around each example, so its property tests run unfenced."""
    if getattr(request.function, "is_hypothesis_test", False):
        yield
        return
    with forbid_global_rng():
        yield


@pytest.fixture(scope="module")
def golden_rows(three_wires):
    """Reference: serial per-master ``extract_row`` (no look-ahead)."""
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    with (
        pytest.MonkeyPatch.context() as mp,
        forbid_global_rng(),
        FRWSolver(three_wires, cfg) as solver,
    ):
        mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", 0)
        return [solver.extract_row(m) for m in range(3)]


def _assert_rows_match(result, golden):
    for got, (row, stats) in zip(result.rows, golden):
        assert np.array_equal(got.values, row.values)
        assert np.array_equal(got.sigma2, row.sigma2)
        assert np.array_equal(got.hits, row.hits)
        assert got.walks == row.walks
        assert got.total_steps == row.total_steps
    for got, (row, stats) in zip(result.stats, golden):
        assert got.batches == stats.batches
        assert got.converged == stats.converged


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("backend", ["process"])
def test_interleaved_bitwise_golden(three_wires, golden_rows, backend, n_workers):
    cfg = FRWConfig.frw_r(**BASE, executor=backend, n_workers=n_workers)
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    _assert_rows_match(result, golden_rows)


def test_interleaved_serial_executor_bitwise(three_wires, golden_rows):
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    result = FRWSolver(three_wires, cfg).extract()
    _assert_rows_match(result, golden_rows)


def _admit_one_at_a_time(monkeypatch) -> None:
    """A one-walk budget admits a pending master only while nothing is in
    flight, so masters run one after another."""
    monkeypatch.setattr(cross_master, "walk_budget", lambda workers, b: 1)


def test_register_wave_bitwise(three_wires, golden_rows, monkeypatch):
    """One-master-at-a-time admission changes only the schedule: each
    master's batches go out in one unbroken run, and rows stay golden."""
    _admit_one_at_a_time(monkeypatch)
    keys = []
    submit = PersistentExecutor.submit

    def recording(self, key, uids, pieces=1, width=None):
        keys.append(key)
        return submit(self, key, uids, pieces, width)

    monkeypatch.setattr(PersistentExecutor, "submit", recording)
    cfg = FRWConfig.frw_r(**BASE, executor="process", n_workers=2)
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    runs = [k for i, k in enumerate(keys) if i == 0 or keys[i - 1] != k]
    assert len(runs) == len(set(runs)) == 3
    _assert_rows_match(result, golden_rows)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_waves_share_one_index(three_wires, golden_rows, backend, monkeypatch):
    """Masters admitted one at a time still hold the solver's one index
    object, which every worker reads by reference, and rows stay
    golden."""
    _admit_one_at_a_time(monkeypatch)
    cfg = FRWConfig.frw_r(**BASE, executor=backend, n_workers=2)
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
        indexes = {id(solver.context(m).index) for m in range(3)}
    assert len(indexes) == 1
    assert solver.assets.stats() == {"index_builds": 1, "index_hits": 2}
    _assert_rows_match(result, golden_rows)


def test_schedule_telemetry_and_asset_cache(three_wires):
    cfg = FRWConfig.frw_r(**BASE, executor="process", n_workers=2)
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    sched = result.matrix.meta["schedule"]
    # The structure index is built once and shared by all three masters.
    assert sched["asset_cache"] == {"index_builds": 1, "index_hits": 2}
    # The far-field fast path was live: the shared grid index reports its
    # query telemetry, which the worker threads add to under its lock,
    # and the 3-wire case has real open space.
    qs = sched["query_stats"]
    assert qs["far_field_hits"] > 0
    assert qs["points"] == qs["far_field_hits"] + qs["near_points"]
    # Dispatch counters: every accumulated batch was dispatched, and the
    # discard count accounts for the speculative overshoot.
    accumulated = sum(s.batches for s in result.stats)
    assert sched["dispatched_batches"] == accumulated + sched["discarded_batches"]
    # On an executor every discarded batch is a whole batch of walks.
    assert sched["discarded_walks"] == (
        sched["discarded_batches"] * BASE["batch_size"]
    )
    for s in result.stats:
        assert s.dispatched_batches >= s.batches


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_inflight_cap_bounds_discards(three_wires, backend):
    """A master holds at most ``1 + PIPELINE_LOOKAHEAD`` batches in flight,
    so even the last live master, alone with the whole pool's budget,
    discards at most ``PIPELINE_LOOKAHEAD`` batches when it stops."""
    # At this tolerance the masters stop after 9, 6 and 10 batches, so
    # wire 2 runs its last batches alone.
    base = dict(BASE, tolerance=0.1, max_walks=4096)
    cfg = FRWConfig.frw_r(**base, executor=backend, n_workers=2)
    with FRWSolver(three_wires, cfg) as solver:
        result = solver.extract()
    for s in result.stats:
        assert s.discarded_batches <= cross_master.PIPELINE_LOOKAHEAD


def test_lone_master_split_fills_the_pool(
    three_wires, golden_rows, monkeypatch
):
    """A lone master holds ``1 + PIPELINE_LOOKAHEAD`` batches, so at 2
    workers each batch travels as one queue entry, and at 4 workers each
    is cut into 2, so the two batches in flight still fill the pool.  The
    row still matches the serial golden."""
    cuts = []
    submit = PersistentExecutor.submit

    def recording(self, key, uids, pieces=1, width=None):
        cuts.append(pieces)
        return submit(self, key, uids, pieces, width)

    monkeypatch.setattr(PersistentExecutor, "submit", recording)
    golden_row, _ = golden_rows[0]
    for n_workers, pieces in ((2, 1), (4, 2)):
        cuts.clear()
        cfg = FRWConfig.frw_r(**BASE, executor="process", n_workers=n_workers)
        with FRWSolver(three_wires, cfg) as solver:
            row, stats = solver.extract_row(0)
            dispatches = solver._executor.dispatch_stats()["dispatches"]
        assert set(cuts) == {pieces}
        assert dispatches == pieces * stats.dispatched_batches
        assert np.array_equal(row.values, golden_row.values)
        assert np.array_equal(row.sigma2, golden_row.sigma2)


@pytest.fixture(scope="module")
def eight_wires():
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(8)
    ]
    return Structure(wires, enclosure=Box.from_bounds(-4, 19, -4, 12, -4, 5))


@pytest.mark.parametrize("backend", ["process"])
def test_each_batch_travels_as_one_entry(eight_wires, backend):
    """Eight live masters hold one batch each; at 2 workers no batch is
    cut, so ``dispatches`` counts the batches sent, and the rows equal the
    serial golden at every worker count."""
    base = dict(BASE, batch_size=128, min_walks=256, max_walks=256)
    with FRWSolver(eight_wires, FRWConfig.frw_r(**base, executor="serial")) as s:
        golden = s.extract().matrix

    for n_workers in (1, 2, 4):
        cfg = FRWConfig.frw_r(**base, executor=backend, n_workers=n_workers)
        with FRWSolver(eight_wires, cfg) as solver:
            got = solver.extract().matrix
            dispatches = solver.walk_executor().dispatch_stats()["dispatches"]
        if n_workers == 2:
            assert dispatches == got.meta["schedule"]["dispatched_batches"]
        assert np.array_equal(got.values, golden.values)
        assert np.array_equal(got.sigma2, golden.sigma2)
        assert np.array_equal(got.hits, golden.hits)


class _ShuffledExecutor:
    """A stand-in executor of four workers that runs each batch on
    submission and hands completions back in a seeded random order, across
    masters and across one master's batches."""

    n_workers = 4

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._registry = []
        self._done = []  # (ticket, results) not yet handed back
        self.returned = {}  # key -> batch bases in the order handed back

    def register(self, ctx, spec):
        self._registry.append((ctx, spec))
        return len(self._registry) - 1

    def submit(self, key, uids, pieces=1, width=None):
        ctx, spec = self._registry[key]
        ticket = (key, int(uids[0]))
        self._done.append((ticket, run_walks(ctx, streams_from_spec(spec), uids)))
        return ticket

    def next_done(self):
        ticket, results = self._done.pop(int(self._rng.integers(len(self._done))))
        self.returned.setdefault(ticket[0], []).append(ticket[1])
        return ticket, results

    def discard(self, ticket):
        (i,) = [i for i, (t, _) in enumerate(self._done) if t == ticket]
        return self._done.pop(i)[1].uids.shape[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_completions_keep_rows_golden(three_wires, golden_rows, seed):
    """Batches that come back out of order, across masters and within
    one master, wait in that master's buffer until their turn: every row
    is byte-equal to the serial golden."""
    fake = _ShuffledExecutor(seed)
    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    with FRWSolver(three_wires, cfg) as solver:
        rows, stats = cross_master.extract_rows_interleaved(
            [0, 1, 2], cfg, solver.context, fake
        )
    assert any(order != sorted(order) for order in fake.returned.values())
    for got, s, (row, ref) in zip(rows, stats, golden_rows):
        assert got.values.tobytes() == row.values.tobytes()
        assert got.sigma2.tobytes() == row.sigma2.tobytes()
        assert got.hits.tobytes() == row.hits.tobytes()
        assert s.batches == ref.batches


def test_failed_extraction_abandons_its_batches(
    three_wires, plates, monkeypatch
):
    """An extraction that raises with batches in flight abandons them, so
    the one-worker executor it borrowed then serves another structure
    exactly as a fresh one does."""
    absorb = RowProgress.absorb
    calls = []

    def failing_absorb(self, results):
        calls.append(self.ctx.master)
        if len(calls) == 2:
            raise RuntimeError("absorb failed")
        return absorb(self, results)

    cfg = FRWConfig.frw_r(**BASE, executor="serial")
    with PersistentExecutor(1) as shared:
        with monkeypatch.context() as mp:
            mp.setattr(RowProgress, "absorb", failing_absorb)
            with FRWSolver(three_wires, cfg, executor=shared) as solver:
                with pytest.raises(RuntimeError):
                    solver.extract()
        # Master 2's first batch was queued when master 1's absorb failed.
        assert calls == [0, 1]
        with FRWSolver(plates, cfg, executor=shared) as solver:
            got = solver.extract()
    with FRWSolver(plates, cfg) as fresh:
        ref = fresh.extract()
    assert got.matrix.values.tobytes() == ref.matrix.values.tobytes()


def test_lazy_registration_for_master_subset():
    """A 2-master subset of a 10-conductor structure builds and registers
    exactly 2 contexts (registration is lazy-but-batched)."""
    wires = [
        Conductor.single(
            f"w{i}", Box.from_bounds(2.0 * i, 2.0 * i + 1.0, 0, 8, 0, 1)
        )
        for i in range(10)
    ]
    structure = Structure(
        wires, enclosure=Box.from_bounds(-4, 23, -4, 12, -4, 5)
    )
    cfg = FRWConfig.frw_r(**BASE, executor="process", n_workers=2)
    with FRWSolver(structure, cfg) as solver:
        result = solver.extract(masters=[0, 5])
        assert sorted(solver._contexts) == [0, 5]
        assert len(solver._executor._registry) == 2
    assert result.matrix.masters == [0, 5]
    # The subset rows match a fresh solver extracting the same masters.
    with FRWSolver(structure, cfg) as fresh:
        again = fresh.extract(masters=[0, 5])
    assert np.array_equal(result.matrix.values, again.matrix.values)


# ----------------------------------------------------------------------
# Walk-budgeted admission and shares
# ----------------------------------------------------------------------
def test_walk_share_even_split(monkeypatch):
    """The budget ``(2 * workers + 1) * B`` splits evenly over the live
    masters, capped at ``1 + PIPELINE_LOOKAHEAD`` batches each."""
    assert cross_master.walk_budget(2, 10_000) == 50_000
    assert cross_master.walk_share(29, 50_000, 10_000) == 1724
    assert cross_master.walk_share(3, 50_000, 10_000) == 16_666
    assert cross_master.walk_share(1, 50_000, 10_000) == 20_000
    monkeypatch.setattr(cross_master, "PIPELINE_LOOKAHEAD", 8)
    assert cross_master.walk_share(1, 50_000, 10_000) == 50_000


@settings(max_examples=300, deadline=None)
@given(
    live=st.integers(min_value=1, max_value=299),
    workers=st.integers(min_value=1, max_value=69),
    batch_size=st.integers(min_value=1, max_value=20_000),
    lookahead=st.integers(min_value=0, max_value=3),
)
def test_walk_shares_fit_the_budget(live, workers, batch_size, lookahead):
    """Shares never sum past the budget, never pass the look-ahead cap,
    and reach one of the two."""
    budget = cross_master.walk_budget(workers, batch_size)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cross_master, "PIPELINE_LOOKAHEAD", lookahead)
        share = cross_master.walk_share(live, budget, batch_size)
    cap = (1 + lookahead) * batch_size
    assert live * share <= budget and share <= cap
    assert share == cap or budget - live * share < live


class _Tally:
    """A one-worker executor that records, at each submit, the walks
    then in flight and whether the batch is its master's first."""

    def __init__(self, inner):
        self.inner = inner
        self.n_workers = inner.n_workers
        self.walks = {}  # ticket -> walks, until returned or discarded
        self.seen = set()
        self.log = []  # (first batch?, walks in flight before, size, width)

    def register(self, ctx, spec):
        return self.inner.register(ctx, spec)

    def submit(self, key, uids, pieces=1, width=None):
        self.log.append(
            (key not in self.seen, sum(self.walks.values()), len(uids), width)
        )
        self.seen.add(key)
        ticket = self.inner.submit(key, uids, pieces, width)
        self.walks[ticket] = len(uids)
        return ticket

    def next_done(self):
        ticket, results = self.inner.next_done()
        del self.walks[ticket]
        return ticket, results

    def discard(self, ticket):
        del self.walks[ticket]
        return self.inner.discard(ticket)


def test_admission_follows_the_walk_budget(eight_wires):
    """Eight masters with 32-walk first batches under a 96-walk budget:
    the first three are admitted together, a later master only while
    fewer walks than the budget are in flight, and every batch opens
    vectors at the full batch size.  Rows equal those under the default
    budget."""
    base = dict(BASE, batch_size=256, min_walks=16, max_walks=1024)
    cfg = FRWConfig.frw_r(**base, executor="serial")
    with FRWSolver(eight_wires, cfg) as solver:
        golden = solver.extract().matrix
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cross_master, "walk_budget", lambda workers, b: 96)
        with PersistentExecutor(1) as inner:
            tally = _Tally(inner)
            with FRWSolver(eight_wires, cfg) as solver:
                rows, _ = cross_master.extract_rows_interleaved(
                    list(range(8)), cfg, solver.context, tally
                )
    firsts = [(before, size) for first, before, size, _ in tally.log if first]
    assert len(firsts) == 8
    assert [before for before, _ in firsts[:3]] == [0, 32, 64]
    assert all(before < 96 and size == 32 for before, size in firsts)
    assert {width for *_, width in tally.log} == {256}
    assert np.array_equal(np.stack([r.values for r in rows]), golden.values)
    assert np.array_equal(np.stack([r.sigma2 for r in rows]), golden.sigma2)
