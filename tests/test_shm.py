"""Tests for the shared-memory context plane (``repro.frw.shm``).

The plane's contract: ``publish_context`` publishes each of a context's
assets (spatial index, cube table) into one shared block per object —
however many contexts reference it — and returns a small picklable
manifest; ``attach_context`` rebuilds a context from the manifest whose walk
results are *bit-identical* to the original's; a block lives while any
manifest naming it is unreleased, and the publisher unlinks it exactly
once.  These tests exercise the whole lifecycle in-process (cross-process
coverage lives in ``test_parallel.py`` / ``test_engine_golden.py`` via the
spawn backend, which has no way to cheat — nothing is inherited).
"""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro import FRWConfig, FRWSolver
from repro.errors import DeterminismError
from repro.frw import PersistentExecutor, build_context, run_walks, stream_spec
from repro.frw import shm
from repro.rng import WalkStreams
from repro.structures import build_case


@pytest.fixture(autouse=True)
def _clean_plane():
    """Every test starts and ends with an empty context plane."""
    shm.release_all()
    yield
    shm.release_all()


def _publish(structure, seed=77, master=0):
    cfg = FRWConfig.frw_r(seed=seed)
    ctx = build_context(structure, master, cfg)
    manifest = shm.publish_context(ctx, stream_spec(cfg, master))
    return cfg, ctx, manifest


def test_roundtrip_is_bit_identical(plates):
    cfg, ctx, manifest = _publish(plates)
    # The manifest must survive a pickle hop — that is how it reaches
    # spawn workers, which inherit nothing.
    manifest = pickle.loads(pickle.dumps(manifest))
    attached = shm.attach_context(manifest)
    uids = np.arange(800, dtype=np.uint64)
    ref = run_walks(ctx, WalkStreams(77, 0), uids)
    res = run_walks(attached, WalkStreams(77, 0), uids)
    assert np.array_equal(ref.omega, res.omega)
    assert np.array_equal(ref.dest, res.dest)
    assert np.array_equal(ref.steps, res.steps)
    assert ref.truncated == res.truncated


def test_roundtrip_stratified(layered_wires):
    """Interface-snapped hemisphere steps go through the dielectric stack
    and the grid index's derived state — both travel via the manifest."""
    cfg, ctx, manifest = _publish(layered_wires, seed=11)
    attached = shm.attach_context(pickle.loads(pickle.dumps(manifest)))
    uids = np.arange(400, dtype=np.uint64)
    ref = run_walks(ctx, WalkStreams(11, 0), uids)
    res = run_walks(attached, WalkStreams(11, 0), uids)
    assert np.array_equal(ref.omega, res.omega)
    assert np.array_equal(ref.dest, res.dest)


def test_attached_context_mirrors_scalars(plates):
    cfg, ctx, manifest = _publish(plates, master=1)
    attached = shm.attach_context(manifest)
    assert attached.master == ctx.master
    assert attached.n_conductors == ctx.n_conductors
    assert attached.enclosure_index == ctx.enclosure_index
    assert attached.h_cap == ctx.h_cap
    assert attached.absorb_tol == ctx.absorb_tol
    assert attached.flux_scale == ctx.flux_scale
    assert attached.config == ctx.config
    assert attached.structure.dielectric == ctx.structure.dielectric
    assert len(attached.structure.conductors) == len(ctx.structure.conductors)


def test_attach_is_cached_per_block(plates):
    _, _, manifest = _publish(plates)
    before = shm.attach_count()
    a = shm.attach_context(manifest)
    b = shm.attach_context(pickle.loads(pickle.dumps(manifest)))
    assert a is b  # same manifest -> one context
    assert shm.attach_count() == before + 2  # one index + one table block


def test_attached_views_are_read_only(plates):
    _, _, manifest = _publish(plates)
    attached = shm.attach_context(manifest)
    with pytest.raises((ValueError, RuntimeError)):
        attached.index._indptr[0] = 1
    with pytest.raises((ValueError, RuntimeError)):
        attached.table.cdf[0, 0] = 0.5


def test_content_hash_detects_corruption(plates):
    _, _, manifest = _publish(plates)
    bad = dataclasses.replace(manifest, content_hash="0" * 32)
    with pytest.raises(DeterminismError):
        shm.attach_context(bad)
    # A manifest whose per-master state was swapped under its hash.
    _, _, other = _publish(plates, master=1)
    with pytest.raises(DeterminismError):
        shm.attach_context(dataclasses.replace(manifest, meta=other.meta))


def _shared_manifests(structure, seed=5):
    """Every master of ``structure`` published through one solver's shared
    assets, so all manifests name the same index and table objects."""
    cfg = FRWConfig.frw_r(seed=seed)
    solver = FRWSolver(structure, cfg)
    masters = range(len(structure.conductors))
    return [
        shm.publish_context(solver.context(m), stream_spec(cfg, m))
        for m in masters
    ]


def test_asset_corruption_detected_through_any_manifest(three_wires):
    """Every asset block carries its own hash, checked on first attach —
    whichever context's manifest reaches the block first."""
    m0, m1, _m2 = _shared_manifests(three_wires)
    ref = m1.table
    seg = shm._PUBLISHED[ref.block].seg
    seg.buf[ref.arrays[0].offset] ^= 0xFF
    with pytest.raises(DeterminismError):
        shm.attach_context(m1)
    with pytest.raises(DeterminismError):
        shm.attach_context(m0)  # the failed attach cached nothing
    seg.buf[ref.arrays[0].offset] ^= 0xFF
    assert shm.attach_context(m0).table is shm.attach_context(m1).table


def test_publish_release_lifecycle(plates):
    assert shm.published_blocks() == []
    _, _, m1 = _publish(plates, master=0)
    _, _, m2 = _publish(plates, master=1)
    # Separate index builds, one memoized cube table: three blocks.
    assert m1.table == m2.table
    assert shm.published_blocks() == sorted(
        [m1.index.block, m2.index.block, m1.table.block]
    )
    shm.release_manifest(m1)
    assert shm.published_blocks() == sorted([m2.index.block, m2.table.block])
    shm.release_manifest(m1)  # idempotent
    assert shm.published_blocks() == sorted([m2.index.block, m2.table.block])
    shm.release_all()
    assert shm.published_blocks() == []


def _blocks_on_disk() -> list[str]:
    prefix = f"frwctx-{os.getpid()}-"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


def test_case5_publishes_one_index_and_one_table():
    """All 29 masters of Table I case 5 share two blocks; the executor
    counts each distinct block once."""
    structure = build_case(5)
    cfg = FRWConfig.frw_r(seed=1)
    solver = FRWSolver(structure, cfg)
    ctx = solver.context(0)
    with PersistentExecutor("process", n_workers=2) as ex:
        for m in range(len(structure.conductors)):
            ex.register(solver.context(m), stream_spec(cfg, m))
        assert len(shm.published_blocks()) == 2
        stats = ex.dispatch_stats()
        assert stats["published_contexts"] == 29
        assert stats["published_blocks"] == 2
        manifest = next(iter(ex._manifests.values()))
        assert stats["published_nbytes"] == (
            manifest.index.nbytes + manifest.table.nbytes
        )
        for asset, ref in ((ctx.index, manifest.index), (ctx.table, manifest.table)):
            raw = sum(np.asarray(a).nbytes for a in asset.packed()[1].values())
            assert raw <= ref.nbytes < raw + 64 * len(ref.arrays)
    assert shm.published_blocks() == []


def test_case6_publish_stays_under_one_megabyte():
    """Table I case 6 (145 masters) once published ~93 MB, more than a
    default 64 MB /dev/shm; one block per asset keeps it under 1 MB."""
    structure = build_case(6)
    manifests = _shared_manifests(structure)
    assert len(manifests) == 145
    blocks = {ref.block: ref.nbytes for m in manifests for ref in (m.index, m.table)}
    assert len(blocks) == 2
    assert sum(blocks.values()) < 1_000_000


def test_shared_asset_outlives_one_release(three_wires):
    """Releasing one manifest keeps the shared blocks alive for the others;
    a double release is a no-op; the last release unlinks."""
    m0, m1, m2 = _shared_manifests(three_wires)
    blocks = sorted([m0.index.block, m0.table.block])
    assert shm.published_blocks() == blocks == _blocks_on_disk()
    shm.release_manifest(m0)
    shm.release_manifest(m0)
    assert shm.published_blocks() == blocks == _blocks_on_disk()
    attached = shm.attach_context(m1)  # still attachable
    assert attached.master == 1
    shm.release_manifest(m1)
    shm.release_manifest(m2)
    assert shm.published_blocks() == [] == _blocks_on_disk()


def test_release_all_leaves_no_block(three_wires):
    _shared_manifests(three_wires)
    _publish(three_wires, master=2)
    assert _blocks_on_disk()
    shm.release_all()
    assert shm.published_blocks() == [] == _blocks_on_disk()


def test_released_block_cannot_be_attached_fresh(plates):
    _, _, manifest = _publish(plates)
    shm.release_manifest(manifest)
    with pytest.raises(FileNotFoundError):
        shm.attach_context(manifest)


def test_manifest_is_small(plates):
    """Steady-state dispatch ships (manifest, uids) — the manifest must
    stay orders of magnitude below the arrays it describes."""
    _, _, manifest = _publish(plates)
    wire = pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(wire) < 8192
    assert manifest.index.nbytes + manifest.table.nbytes > 10 * len(wire)
