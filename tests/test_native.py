"""The compiled engine kernels: bit-identity and build robustness.

``philox_span`` must give the scalar reference's draws for any UIDs,
steps, keys and counts.  The draws the step
kernels compute are tested in ``test_step_kernels``.  The grid query's
properties live in ``test_spatial_index``.  The loader must build into an
empty cache, survive concurrent builds, refuse unsafe cache directories,
name the command of a failed build, and let process workers load the
parent's build instead of compiling their own.  The built library may
import no function but libm's ``sincos``, and the stratified golden row
must keep its bytes when the library is built at ``-O0``, at ``-O3
-march=native`` and with its AVX2 draw path compiled out.
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

SRC = Path(native.__file__).resolve().parents[2]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An unloaded kernel library whose cache directory does not exist."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(native, "_LIB", None)
    return tmp_path / "xdg" / "repro"


# ----------------------------------------------------------------------
# Bit identity of the draw kernel
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
    count=st.integers(1, MAX_DRAWS_PER_STEP),
    per_walk_steps=st.booleans(),
)
def test_philox_span_equals_draws_scalar(seed, data, count, per_walk_steps):
    """Every draw — UIDs on both sides of 2**32 read through a strided
    view, scalar or per-walk steps — is the scalar reference's draw, in a
    fresh contiguous ``(n, count)`` array."""
    n = data.draw(st.integers(1, 24), label="n")
    uids = np.array(
        data.draw(
            st.lists(
                st.one_of(st.integers(0, 2**32), st.integers(2**32, 2**64 - 1)),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.uint64,
    )
    if per_walk_steps:
        steps = np.array(
            data.draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n)),
            dtype=np.uint64,
        )
    else:
        steps = np.uint64(data.draw(st.integers(0, 2**40), label="step"))
    streams = WalkStreams(seed, data.draw(st.integers(0, 2), label="stream"))
    strided = np.zeros(2 * n, dtype=np.uint64)
    strided[::2] = uids
    got = streams.draws(strided[::2], steps, count)
    assert got.shape == (n, count) and got.flags.c_contiguous
    steps_i = np.broadcast_to(steps, (n,))
    for i in range(n):
        expect = streams.draws_scalar(int(uids[i]), int(steps_i[i]), count)
        assert got[i].tolist() == expect


def test_draws_rejects_mismatched_arguments():
    streams = WalkStreams(1, 0)
    uids = np.arange(4, dtype=np.uint64)
    with pytest.raises(RNGError, match="step"):
        streams.draws(uids, np.arange(3, dtype=np.uint64), 3)
    with pytest.raises(RNGError, match="one-dimensional"):
        streams.draws(uids.reshape(2, 2), 0, 3)
    with pytest.raises(RNGError, match="one-dimensional"):
        streams.draws(np.uint64(3), 0, 3)
    with pytest.raises(RNGError, match="count"):
        streams.draws(uids, 0, MAX_DRAWS_PER_STEP + 1)


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
u = streams.draws(np.array([2**33 + 5], dtype=np.uint64), 5, 3)
assert u[0].tolist() == streams.draws_scalar(2**33 + 5, 5, 3)
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
    """Worker threads run on the one library the process loads: a fresh
    cache builds it once and never replaces it, and the rows equal the
    in-process run's."""
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
    with PersistentExecutor(2) as pool:
        with FRWSolver(three_wires, cfg, executor=pool) as solver:
            got = solver.extract()
        assert pool.dispatch_stats()["dispatches"] > 0  # the workers ran
    assert len(built) == 1
    assert native.library_path().stat().st_ino == built[0]
    with FRWSolver(three_wires, cfg) as solver:
        ref = solver.extract()
    assert got.matrix.values.tobytes() == ref.matrix.values.tobytes()


# ----------------------------------------------------------------------
# Imported symbols and optimisation levels
# ----------------------------------------------------------------------
def _imported_functions(path) -> set:
    """The undefined (imported) functions of a shared library."""
    out = subprocess.run(
        ["nm", "-D", "--undefined-only", str(path)],
        capture_output=True, text=True, check=True,
    ).stdout
    return {
        fields[1].split("@")[0]
        for fields in (line.split() for line in out.splitlines())
        if fields[0] == "U"
    }


#: The thread team's imports (``kernels.c``): thread start, name and
#: join, the team's locks and wake-up, the fork hook (``pthread_atfork``
#: links as ``__register_atfork``), the spin's clock and the waiting
#: caller's yield.
TEAM_IMPORTS = {
    "pthread_create",
    "pthread_setname_np",
    "pthread_join",
    "pthread_mutex_lock",
    "pthread_mutex_trylock",
    "pthread_mutex_unlock",
    "pthread_cond_wait",
    "pthread_cond_broadcast",
    "__register_atfork",
    "clock_gettime",
    "sched_yield",
}


def test_library_imports_only_sincos_and_the_team_calls():
    """The one libm function imported is the hemisphere step's
    ``sin``/``cos``, which gcc merges into ``sincos`` at ``-O2``; the rest
    are the thread team's libc calls.  libm is a ``NEEDED`` entry, so the
    library does not rely on the process having loaded it."""
    native.library()
    path = native.library_path()
    assert _imported_functions(path) == {"sincos"} | TEAM_IMPORTS
    dynamic = subprocess.run(
        ["readelf", "-d", str(path)], capture_output=True, text=True, check=True
    ).stdout
    assert "[libm.so.6]" in dynamic


_GOLDEN_ROW = """
import sys
import numpy as np
from repro import FRWConfig, native
from repro.frw import build_context, run_walks
from repro.rng import WalkStreams
import test_engine_golden as g
native.COMPILE = tuple(sys.argv[1:])
cfg = FRWConfig.frw_r(seed=g.SEED, antithetic=False)
ctx = build_context(g._build_structure("stratified"), 0, cfg)
res = run_walks(ctx, WalkStreams(g.SEED, 0), np.arange(g.N_WALKS, dtype=np.uint64))
native._set_team_size(2)
wide, _ = g.wide_row("stratified", "mirrored")
print(g._digest(res), wide, native.library_path(), native.draw_path())
"""

#: The flag that compiles the AVX2 draw path out of a build, pinning the
#: scalar path on any host.
SCALAR_DRAWS = "-DREPRO_SCALAR_DRAWS"


@pytest.mark.parametrize(
    "opt,calls",
    [
        (("-O0",), {"sin", "cos", "sqrt"}),
        (("-O3", "-march=native"), {"sincos"}),
        (("-O2", SCALAR_DRAWS), {"sincos"}),
    ],
)
def test_golden_row_is_the_same_at_any_opt_level(tmp_path, opt, calls):
    """The stratified golden row, whose hemisphere steps call libm, and a
    wide mirrored stratified row split over a team of two have the same
    bytes from a library built at ``-O0`` (separate ``sin`` and ``cos``
    calls, and libm's ``sqrt`` where ``-O2`` inlines ``sqrtsd``), at
    ``-O3 -march=native`` (one ``sincos``) and at ``-O2`` with the AVX2
    draw path compiled out (:data:`SCALAR_DRAWS`), each in a fresh cache;
    all keep the FP flags of :data:`repro.native.COMPILE`.  On an AVX2
    host the first two dispatch to the AVX2 path and the third runs the
    scalar one, so the goldens pin both."""
    from test_engine_golden import GOLDEN, WIDE_GOLDEN

    command = [f for f in native.COMPILE if not f.startswith("-O")]
    assert {"-ffp-contract=off", "-fno-math-errno"} <= set(command)
    command[1:1] = opt
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(tmp_path),
        PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_ROW, *command],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    digest, wide, path, draws = proc.stdout.split()
    assert Path(path).parent == tmp_path / "repro"
    if SCALAR_DRAWS in opt:
        assert draws == "scalar"
    else:
        assert draws == native.draw_path()
    assert _imported_functions(path) == calls | TEAM_IMPORTS
    assert digest == GOLDEN["stratified"]["sha256"]
    assert wide == WIDE_GOLDEN["stratified", "mirrored"]
