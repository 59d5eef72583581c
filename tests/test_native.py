"""The compiled engine kernels: bit-identity and build robustness.

``philox_span`` must give the scalar reference's draws for any UIDs,
steps, keys, depths, counts and output strides.  The grid query's
properties live in ``test_spatial_index``.  The loader must build into an
empty cache, survive concurrent builds, refuse unsafe cache directories,
name the command of a failed build, and let process workers load the
parent's build instead of compiling their own.
"""

import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FRWConfig, FRWSolver, native
from repro.errors import KernelBuildError, RNGError
from repro.frw import PersistentExecutor
from repro.rng import MAX_DRAWS_PER_STEP, WalkStreams
from repro.rng.counter_stream import MAX_PREFETCH_STEPS

SRC = Path(native.__file__).resolve().parents[2]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An unloaded kernel library whose cache directory does not exist."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_LIB", None)
    return tmp_path / "xdg" / "repro"


# ----------------------------------------------------------------------
# Bit identity of the span kernel
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
    depth=st.integers(1, MAX_PREFETCH_STEPS),
    count=st.integers(1, MAX_DRAWS_PER_STEP),
    per_walk_steps=st.booleans(),
    per_walk_keys=st.booleans(),
)
def test_philox_span_equals_draws_scalar(
    seed, data, depth, count, per_walk_steps, per_walk_keys
):
    """Every entry of a span — UIDs past 2**32, scalar or per-walk steps
    and keys, written through a strided ``out`` — is the scalar
    reference's draw, and nothing outside the span is written."""
    n = data.draw(st.integers(1, 24), label="n")
    uids = np.array(
        data.draw(st.lists(st.integers(2**32, 2**64 - 1), min_size=n, max_size=n)),
        dtype=np.uint64,
    )
    if per_walk_steps:
        steps = np.array(
            data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
            dtype=np.uint64,
        )
    else:
        steps = np.uint64(data.draw(st.integers(0, 2**40), label="step"))
    streams = [WalkStreams(seed, s) for s in range(3)]
    lane = np.array(
        data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.intp
    )
    if not per_walk_keys:
        lane[:] = 0
    keys = None
    if per_walk_keys:
        table = np.array([s.key for s in streams], dtype=np.uint64).T
        keys = (table[0, lane], table[1, lane])
    # Slot-major storage with a gap column between walks: the span's
    # walk axis has stride 2 and its slot axis the longest stride.
    store = np.full((depth + 1, MAX_DRAWS_PER_STEP, 2 * n + 1), np.nan)
    out = store.transpose(0, 2, 1)[1:, ::2]
    got = streams[0].draws_span(uids, steps, depth, count, out=out, keys=keys)
    assert got.shape == (depth, n, count)
    assert np.shares_memory(got, store)
    steps_i = np.broadcast_to(steps, (n,))
    for k in range(depth):
        for i in range(n):
            expect = streams[lane[i]].draws_scalar(
                int(uids[i]), int(steps_i[i]) + k, count
            )
            assert got[k, i].tolist() == expect
    written = np.zeros(store.shape, dtype=bool)
    written.transpose(0, 2, 1)[1:, ::2][:depth, :n, :count] = True
    assert np.isnan(store[~written]).all()


def test_draws_span_rejects_mismatched_arguments():
    streams = WalkStreams(1, 0)
    uids = np.arange(4, dtype=np.uint64)
    with pytest.raises(RNGError, match="steps"):
        streams.draws_span(uids, np.arange(3, dtype=np.uint64), 1, 3)
    with pytest.raises(RNGError, match="keys"):
        key = np.zeros(5, dtype=np.uint64)
        streams.draws_span(uids, 0, 1, 3, keys=(key, key))
    with pytest.raises(RNGError, match="float64"):
        streams.draws_span(uids, 0, 1, 3, out=np.empty((1, 4, 3), np.float32))
    frozen = np.empty((1, 4, 3))
    frozen.flags.writeable = False
    with pytest.raises(RNGError, match="writeable"):
        streams.draws_span(uids, 0, 1, 3, out=frozen)
    with pytest.raises(RNGError, match="one-dimensional"):
        streams.draws_span(uids.reshape(2, 2), 0, 1, 3)


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------
def test_build_into_empty_cache(fresh_cache):
    """A first use builds into a new private directory, leaves exactly the
    library there, and the library runs."""
    assert not fresh_cache.exists()
    native.library()
    assert sorted(fresh_cache.iterdir()) == [native.library_path()]
    assert stat.S_IMODE(fresh_cache.stat().st_mode) == 0o700
    assert native.philox4x32_block((0, 0, 0, 0), (0, 0)) == (
        0x6627E8D5,
        0xE169C58D,
        0xBC57AC4C,
        0x9B00DBD8,
    )


_RACER = """
import os, sys, time
from pathlib import Path
import numpy as np
from repro import native
from repro.rng import WalkStreams
Path(sys.argv[1]).touch()
while not os.path.exists(sys.argv[2]):
    time.sleep(0.001)
native.library()
streams = WalkStreams(3, 1)
span = streams.draws_span(np.array([2**33 + 5], dtype=np.uint64), 4, 2, 3)
assert span[1, 0].tolist() == streams.draws_scalar(2**33 + 5, 5, 3)
"""


def test_concurrent_builds_both_load(fresh_cache, tmp_path):
    """Two processes released at once into an empty cache, each building
    unless the other's library is already in place, both load a working
    library; the renames leave one complete file."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    go = tmp_path / "go"
    ready = [tmp_path / f"ready{i}" for i in range(2)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(r), str(go)],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        for r in ready
    ]
    try:
        deadline = time.monotonic() + 60
        while not all(r.exists() for r in ready):
            assert time.monotonic() < deadline, "racers did not start"
            assert all(p.poll() is None for p in procs), "a racer died"
            time.sleep(0.01)
        go.touch()
        errors = [p.communicate(timeout=60)[1] for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    assert [p.returncode for p in procs] == [0, 0], errors
    assert sorted(fresh_cache.iterdir()) == [native.library_path()]


def test_missing_compiler_raises_with_the_command(fresh_cache, monkeypatch):
    monkeypatch.setattr(native, "COMPILE", ("no-such-cc", *native.COMPILE[1:]))
    with pytest.raises(KernelBuildError, match="no-such-cc -O2"):
        native.library()
    assert list(fresh_cache.iterdir()) == []  # no temporary file left


def test_failed_compile_raises_with_the_command(
    fresh_cache, tmp_path, monkeypatch
):
    broken = tmp_path / "broken.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    with pytest.raises(KernelBuildError, match="compile failed.*broken.c"):
        native.library()
    assert list(fresh_cache.iterdir()) == []


@pytest.mark.parametrize("mode", [0o770, 0o707, 0o777])
def test_shared_cache_directory_is_refused(fresh_cache, mode):
    """A directory another user could write a library into is never
    loaded from, even when the library is already there."""
    native.library()
    native.library_path().chmod(0o700)
    fresh_cache.chmod(mode)
    native._LIB = None
    with pytest.raises(KernelBuildError, match="refusing"):
        native.library()


def test_process_workers_load_the_parent_build(
    fresh_cache, three_wires, monkeypatch
):
    """The parent builds before its spawn workers start, and the workers
    load that file: it is built once and never replaced, and the rows
    equal the in-process run's."""
    built = []
    real_build = native._build

    def counting_build(path):
        real_build(path)
        built.append(path.stat().st_ino)

    monkeypatch.setattr(native, "_build", counting_build)
    cfg = FRWConfig.frw_r(
        seed=13, batch_size=256, min_walks=512, max_walks=1024,
        tolerance=2e-2,
    )
    with PersistentExecutor(2, "spawn") as pool:
        with FRWSolver(three_wires, cfg, executor=pool) as solver:
            got = solver.extract()
        assert pool.worker_stats()  # the workers ran
    assert len(built) == 1
    assert native.library_path().stat().st_ino == built[0]
    with FRWSolver(three_wires, cfg) as solver:
        ref = solver.extract()
    assert got.matrix.values.tobytes() == ref.matrix.values.tobytes()
