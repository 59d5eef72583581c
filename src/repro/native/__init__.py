"""The compiled engine kernels: build, cache and call ``kernels.c``.

The walk engine runs in C: the vector step's launch, query-and-absorb,
retirement and hop, and the loop that runs them from one batch boundary
to the next (:class:`repro.frw.WalkPipeline`), all over one
:class:`Arena` descriptor of the pipeline's slot arena.  The launch and
the hop compute the draws they consume from each slot's lane descriptor
(:data:`DRAW_MIRRORED`, :data:`DRAW_MT`).  At the batch boundary,
``fold_batch`` folds a finished batch into a row's registers (the
:class:`Row` of a :class:`repro.frw.RowAccumulator`).  The same source
holds the one-call entry points the tests and the reference engines use:
the Philox draws of one step behind :meth:`repro.rng.WalkStreams.draws`,
the grid query behind :meth:`repro.geometry.GridIndex.query`, the cube
table's cell draw behind
:meth:`repro.greens.CubeTransitionTable.sample_cells` and
:meth:`~repro.greens.CubeTransitionTable.unit_positions`, the Gaussian
surface point behind :meth:`repro.geometry.GaussianSurface.sample` and
the hemisphere direction behind
:func:`repro.greens.interface_hemisphere_direction`.  Every kernel gives
the bits of its reference exactly (``docs/DETERMINISM.md``).

The launch, the query-and-absorb and the hop of a wide vector split its
slots over the process's thread team (``team_size`` in ``kernels.c``),
which ``ctypes`` runs without the GIL.  The team has one thread per CPU
this process may use (:func:`usable_cpus`), or a worker thread's share of
them while an executor's worker threads run (:func:`share_cpus`); a split
never changes a bit.

The library is built with the system C compiler on first use — never at
``import repro`` — by :func:`library`, and cached as
``$XDG_CACHE_HOME/repro/kernels-<hash>.so`` (``~/.cache/repro`` without
``XDG_CACHE_HOME``).  The hash covers the source, the compile command and
the platform, so an edited source or flag builds a new file.  A build
writes a temporary file in the cache directory and renames it into place,
so processes that build at once (service boots, test processes) each
load a complete library.  The cache directory must be
owned by the user and writable by nobody else, since the library is
loaded into the process.  A missing compiler, a failed compile or an
unsafe directory raises :class:`~repro.errors.KernelBuildError`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from ..errors import KernelBuildError

#: The kernel source, shipped as package data.
SOURCE = Path(__file__).with_name("kernels.c")

#: The compile command, less its output and input paths.  No fast-math,
#: and no fused multiply-add, so every operation is the IEEE one NumPy
#: performs; no errno from math calls, so ``sqrt`` is one instruction.
COMPILE = (
    "gcc", "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno"
)

#: Libraries linked after the source: libm for the hemisphere step's
#: ``sin``/``cos``, recorded as a ``NEEDED`` entry of the library, and
#: the threads of the team.
LINK = ("-lm", "-pthread")

#: Draw kind bits of a lane descriptor row ``(kind, key0, key1)``: none
#: for plain Philox streams (:class:`~repro.rng.WalkStreams`, key ``(k0,
#: k1)``), :data:`DRAW_MIRRORED` for the antithetic view over them
#: (:class:`~repro.rng.MirroredDraws`), :data:`DRAW_MT` for per-walk
#: MT19937 streams (:class:`~repro.rng.MTWalkStreams`, its ``base`` in
#: ``key0``).
DRAW_MIRRORED = 1
DRAW_MT = 2

#: uint32 words of one walk's MT19937 state in the arena: 624 state
#: words and the next word's index.
MT_WORDS = 625

#: What a compiled ``advance`` call stopped at: the front batch of the
#: result window is done, the pending run is used up while batches are
#: queued, a walk absorbed before its first hop, or a trace frame.
ADVANCE_FRONT, ADVANCE_RUN, ADVANCE_EARLY, ADVANCE_FRAME = range(4)

#: The :class:`repro.frw.StageTimers` stages of ``Arena.stage_ns`` and
#: ``Arena.stage_calls``, in order.
ADVANCE_STAGES = ("index", "sample", "retire", "bookkeeping")

#: Live-width buckets of the arena's step profile: bucket ``b`` holds
#: widths ``[2**b, 2**(b + 1))``.
WIDTH_BUCKETS = 32

_LOCK = threading.Lock()
_LIB = None

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p


class Grid(ctypes.Structure):
    """A :class:`~repro.geometry.GridIndex`'s query state (``grid_t``)."""

    _fields_ = [
        ("h_cap", ctypes.c_double),
        ("origin", ctypes.c_double * 3),
        ("inv_cell", ctypes.c_double * 3),
        ("n_cells", _I64 * 3),
        ("cell_max", _I64 * 3),
        ("near", _PTR),
        ("indptr", _PTR),
        ("indices", _PTR),
        ("lo", _PTR),
        ("hi", _PTR),
        ("owner", _PTR),
    ]


class Table(ctypes.Structure):
    """A :class:`~repro.greens.CubeTransitionTable`'s sampling state
    (``table_t``)."""

    _fields_ = [
        ("nf", _I64),
        ("n_cells", _I64),
        ("buckets", _I64),
        ("width", _I64),
        ("n_last", _I64),
        ("n_pad", _I64),
        ("last_le", _PTR),
        ("cdf_pad", _PTR),
        ("face_axis", _PTR),
        ("face_side", _PTR),
        ("cell_i", _PTR),
        ("cell_j", _PTR),
        ("grad_ratio", _PTR),
    ]


class Arena(ctypes.Structure):
    """A :class:`~repro.frw.WalkPipeline`'s slot arena and walk space
    (``arena_t``), with the inputs and outputs of ``advance``.  It holds
    raw addresses: the pipeline keeps every array it points at alive and
    re-points a field whenever its array changes."""

    _fields_ = [
        *((name, _PTR) for name in (
            "uid", "lane", "tol", "grow", "step_no", "pos", "eps", "first",
            "naxis", "nsign", "dist", "dist_e", "done", "dest",
        )),
        ("capacity", _I64),
        ("mt", _PTR),
        ("mt_slot", _PTR),
        *((name, _PTR) for name in (
            "res_omega", "res_dest", "res_steps", "win_starts",
            "win_remaining", "win_truncated",
        )),
        ("n_win", _I64),
        ("win_base_g", _I64),
        ("lane_flux", _PTR),
        ("lane_draws", _PTR),
        ("grid", _PTR),
        ("table", _PTR),
        ("interfaces", _PTR),
        ("n_interfaces", _I64),
        ("layer_eps", _PTR),
        ("enc_lo", ctypes.c_double * 3),
        ("enc_hi", ctypes.c_double * 3),
        ("enc_index", _I64),
        ("h_cap", ctypes.c_double),
        ("snap_fraction", ctypes.c_double),
        ("first_floor", ctypes.c_double),
        ("counts", _I64 * 2),
        ("run", _PTR),
        *((name, _I64) for name in ("run_n", "run_off", "run_lane", "run_row")),
        ("run_surface", _PTR),
        ("run_tol", ctypes.c_double),
        *((name, _I64) for name in (
            "queued", "width", "max_steps", "trace", "timed", "n", "refilled",
            "steps", "locates", "points", "near", "visited", "launched",
            "snapped",
        )),
        ("stage_ns", _I64 * 4),
        ("stage_calls", _I64 * 4),
        ("width_steps", _I64 * WIDTH_BUCKETS),
        ("width_walks", _I64 * WIDTH_BUCKETS),
    ]


class Row(ctypes.Structure):
    """A :class:`~repro.frw.RowAccumulator`'s registers (``row_t``): the
    addresses of its weight and squared-weight sums and compensations
    (``w_c`` and ``w2_c`` 0 under naive summation), hits and scratch, and
    its walk and step counts, which ``fold_batch`` updates in place."""

    _fields_ = [
        *((name, _PTR) for name in (
            "w", "w_c", "w2", "w2_c", "hits", "scratch",
        )),
        *((name, _I64) for name in ("n_cond", "walks", "total_steps")),
    ]


class Surface(ctypes.Structure):
    """A :class:`~repro.geometry.GaussianSurface`'s sampling state
    (``surface_t``)."""

    _fields_ = [
        ("n_patches", _I64),
        ("total_area", ctypes.c_double),
        *((name, _PTR) for name in (
            "cum", "axis", "sign", "coord", "x0", "x1", "y0", "y1",
        )),
    ]


def cache_dir() -> Path:
    """The directory the compiled library is cached in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def library_path() -> Path:
    """The cached library's path for this source, command and platform."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(COMPILE + LINK).encode())
    digest.update(sysconfig.get_platform().encode())
    return cache_dir() / f"kernels-{digest.hexdigest()[:16]}.so"


def _checked_dir(path: Path) -> None:
    """Create ``path`` private to the user, or refuse it if another user
    could plant a library there."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise KernelBuildError(
            f"refusing kernel cache directory {path}: it must be owned by "
            "the user and not group- or world-writable"
        )


def compile_command(out, extra=()) -> list[str]:
    """The command that builds the library into ``out``, with the ``extra``
    flags (warnings, say) after :data:`COMPILE`."""
    return [*COMPILE, *extra, "-o", str(out), str(SOURCE), *LINK]


def _build(path: Path) -> None:
    """Compile the source to a temporary file and rename it to ``path``."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
    os.close(fd)
    cmd = compile_command(tmp)
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(
                f"cannot run the kernel compiler: {' '.join(cmd)}: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"kernel compile failed (exit {proc.returncode}): "
                f"{' '.join(cmd)}\n{proc.stderr.strip()}"
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL:
    path = library_path()
    _checked_dir(path.parent)
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    signatures = {
        "philox4x32_block": [_PTR, _PTR, _PTR],
        # n, count, uids, steps, per walk (1) or one step (0), k0, k1, out
        "philox_span": [_I64, _I64, _PTR, _PTR, _I64]
        + [ctypes.c_uint64] * 2 + [_PTR],
        # grid, n, points, dist, cond, counts
        "grid_query": [ctypes.POINTER(Grid), _I64] + [_PTR] * 4,
        # table, n, u, u stride, out
        "sample_cells": [ctypes.POINTER(Table), _I64, _PTR, _I64, _PTR],
        # table, n, cells, jitters a and b (each with its stride), out
        "unit_positions": [ctypes.POINTER(Table), _I64] + [_PTR, _I64] * 3
        + [_PTR],
        # surface, n, u, u strides (row, draw), points, axis, sign
        "surface_sample": [ctypes.POINTER(Surface), _I64, _PTR, _I64, _I64]
        + [_PTR] * 3,
        # n, the (5, n) inputs, out
        "hemisphere_directions": [_I64, _PTR, _PTR],
        # arena, surface, first slot, count, uids, lane, tol, first row
        "launch": [ctypes.POINTER(Arena), ctypes.POINTER(Surface), _I64,
                   _I64, _PTR, _I64, ctypes.c_double, _I64],
    }
    # -> the draw path dispatched at load (1 AVX2, 0 scalar)
    lib.draw_path.argtypes = []
    lib.draw_path.restype = _I64
    # threads (or 0 to read it) -> the team's size
    lib.team_size.argtypes = [_I64]
    lib.team_size.restype = _I64
    lib.team_size(usable_cpus())
    # row, n, omega, dest, steps, group, order, bounds, segments -> 0, or
    # -1 (a dest out of range) or -2 (an order or bounds out of range)
    lib.fold_batch.argtypes = [ctypes.POINTER(Row), _I64, _PTR, _PTR, _PTR,
                               _I64, _PTR, _PTR, _I64]
    lib.fold_batch.restype = _I64
    # arena -> what it stopped at (ADVANCE_*)
    lib.advance.argtypes = [ctypes.POINTER(Arena)]
    lib.advance.restype = _I64
    # arena, n, then: nothing (locate, cube_hop), the truncated flag
    # (retire); each returns a count.
    counted = {
        "locate": [],
        "retire": [_I64],
        "cube_hop": [],
    }
    for name, argtypes in signatures.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    for name, extra in counted.items():
        fn = getattr(lib, name)
        fn.argtypes = [ctypes.POINTER(Arena), _I64] + extra
        fn.restype = _I64
    return lib


def library() -> ctypes.CDLL:
    """The loaded kernel library, built into the cache on first use."""
    global _LIB
    if _LIB is None:
        with _LOCK:
            if _LIB is None:
                _LIB = _load()
    return _LIB


def usable_cpus() -> int:
    """The CPUs this process may run on: ``os.sched_getaffinity(0)``
    where the platform exposes it (containers and taskset/cgroup limits
    make it differ from the host count), else ``os.cpu_count()``."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def share_cpus(n_workers: int) -> None:
    """Size this process's thread team for ``n_workers`` worker threads
    sharing its CPUs: ``max(1, usable_cpus() // n_workers)`` threads, the
    caller included.  A process starts with every CPU (one in-process
    worker), which ``share_cpus(1)`` restores."""
    _set_team_size(max(1, usable_cpus() // n_workers))


def _set_team_size(threads: int) -> int:
    """Set the team to ``threads`` threads (clamped to 1..64; 0 leaves it)
    and return its size: the private hook behind :func:`share_cpus`, which
    tests use to run one vector on any team."""
    return int(library().team_size(int(threads)))


def draw_path() -> str:
    """The draw path the loaded library dispatched to, once, at load:
    ``"avx2"`` when the host has AVX2 (full 8-slot groups of Philox lanes
    draw their counters, rounds, uniforms and cube cells eight at a time)
    or ``"scalar"`` (other hosts, and builds with ``-DREPRO_SCALAR_DRAWS``).
    Both give the same bits."""
    return "avx2" if library().draw_path() else "scalar"


def address(a: np.ndarray) -> int:
    """The data address of an array (for descriptor fields and calls):
    through a buffer export where the array allows a writable one (the
    cheap path), else through its array interface."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError, BufferError):  # read-only, empty, strided
        return a.__array_interface__["data"][0]


def _stride(a: np.ndarray, axis: int) -> int:
    return a.strides[axis] // a.itemsize


def philox4x32_block(counter, key) -> tuple[int, int, int, int]:
    """One raw Philox4x32-10 block of the compiled kernel."""
    ctr = np.asarray(counter, dtype=np.uint32)
    k = np.asarray(key, dtype=np.uint32)
    out = np.empty(4, dtype=np.uint32)
    library().philox4x32_block(address(ctr), address(k), address(out))
    return tuple(int(w) for w in out)


def philox_span(
    uids: np.ndarray, steps: np.ndarray, key: tuple[int, int], count: int
) -> np.ndarray:
    """``(n, count)`` uniforms: row ``i`` holds draw slots ``0..count-1``
    of step ``steps[i]`` of walk ``uids[i]`` under the Philox key ``(k0,
    k1)``.

    ``uids`` is contiguous ``(n,)`` uint64; ``steps`` is uint64, ``(n,)``
    or 0-d (one step for every walk).  Arguments are not validated here:
    :meth:`~repro.rng.WalkStreams.draws` does that.
    """
    n = uids.shape[0]
    per_walk = steps.ndim
    steps = np.ascontiguousarray(steps)
    out = np.empty((n, count), dtype=np.float64)
    library().philox_span(
        n, count, address(uids), address(steps), per_walk, *key, address(out)
    )
    return out


def grid(
    h_cap: float,
    origin: np.ndarray,
    inv_cell: np.ndarray,
    n_cells: np.ndarray,
    cell_max: np.ndarray,
    **arrays: np.ndarray,
) -> Grid:
    """The query state of a grid index for :func:`grid_query`.

    ``arrays`` are ``near`` (per-cell bool), ``indptr`` and ``indices``
    (int64 CSR lists), ``lo`` and ``hi`` (``(m, 3)`` float64 box bounds)
    and ``owner`` (int64 box owners); the descriptor keeps them alive.
    """
    dtypes = {"near": np.bool_, "lo": np.float64, "hi": np.float64}
    kept = {
        name: np.ascontiguousarray(arrays[name], dtype=dtypes.get(name, np.int64))
        for name, _ in Grid._fields_[5:]
    }
    g = Grid(
        h_cap,
        tuple(float(v) for v in origin),
        tuple(float(v) for v in inv_cell),
        tuple(int(v) for v in n_cells),
        tuple(int(v) for v in cell_max),
        *(address(a) for a in kept.values()),
    )
    g.arrays = kept
    return g


def grid_query(
    g: Grid, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Capped nearest-conductor distance (float64) and conductor (int64)
    of every point of ``points`` (C-contiguous ``(n, 3)`` float64, not
    validated here: :meth:`~repro.geometry.GridIndex.query` does that).
    Returns ``(dist, cond, near_points, candidates_visited)``."""
    n = points.shape[0]
    dist = np.empty(n, dtype=np.float64)
    cond = np.empty(n, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)
    library().grid_query(
        ctypes.byref(g), n, address(points), address(dist), address(cond),
        address(counts),
    )
    return dist, cond, int(counts[0]), int(counts[1])


def table(
    nf: int, buckets: int, width: int, **arrays: np.ndarray
) -> Table:
    """The sampling state of a cube transition table for
    :func:`sample_cells`, :func:`unit_positions` and the engine's hop.

    ``arrays`` are ``last_le`` (the guide, int64), ``cdf_pad``
    (``+inf``-padded cdf), ``face_axis``, ``face_side``, ``cell_i``,
    ``cell_j`` (int64 per cell) and ``grad_ratio`` (``(3, n_cells)``
    float64); the descriptor keeps them alive.
    """
    dtypes = {"cdf_pad": np.float64, "grad_ratio": np.float64}
    kept = {
        name: np.ascontiguousarray(arrays[name], dtype=dtypes.get(name, np.int64))
        for name, _ in Table._fields_[6:]
    }
    n_cells = kept["face_axis"].shape[0]
    t = Table(
        nf,
        n_cells,
        buckets,
        width,
        kept["last_le"].shape[0],
        kept["cdf_pad"].shape[0],
        *(address(a) for a in kept.values()),
    )
    t.arrays = kept
    return t


def sample_cells(t: Table, u: np.ndarray) -> np.ndarray:
    """The cells of uniforms ``u`` (float64, any shape and strides)."""
    flat = u.reshape(-1)
    out = np.empty(flat.shape[0], dtype=np.int64)
    library().sample_cells(
        ctypes.byref(t), flat.shape[0], address(flat), _stride(flat, 0), address(out)
    )
    return out.reshape(u.shape)


def unit_positions(
    t: Table, cells: np.ndarray, jitter_a: np.ndarray, jitter_b: np.ndarray
) -> np.ndarray:
    """``(n, 3)`` unit-cube points of ``cells`` (int64 ``(n,)``, in range)
    with jitters (float64 ``(n,)``, any strides)."""
    n = cells.shape[0]
    out = np.empty((n, 3), dtype=np.float64)
    library().unit_positions(
        ctypes.byref(t),
        n,
        address(cells),
        _stride(cells, 0),
        address(jitter_a),
        _stride(jitter_a, 0),
        address(jitter_b),
        _stride(jitter_b, 0),
        address(out),
    )
    return out


def surface(total_area: float, **arrays: np.ndarray) -> Surface:
    """The sampling state of a Gaussian surface for :func:`surface_sample`
    and the engine's launch.

    ``arrays`` are ``cum`` (cumulative patch areas), ``axis`` and ``sign``
    (int64 patch normals), ``coord`` (plane positions) and ``x0``, ``x1``,
    ``y0``, ``y1`` (transverse bounds); the descriptor keeps them alive.
    """
    dtypes = {"axis": np.int64, "sign": np.int64}
    kept = {
        name: np.ascontiguousarray(arrays[name], dtype=dtypes.get(name, np.float64))
        for name, _ in Surface._fields_[2:]
    }
    s = Surface(
        kept["cum"].shape[0], total_area, *(address(a) for a in kept.values())
    )
    s.arrays = kept
    return s


def surface_sample(
    s: Surface, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(points (n, 3), axis (n,), sign (n,))`` of uniforms ``u``
    (float64 ``(n, 3)``, any strides)."""
    n = u.shape[0]
    points = np.empty((n, 3), dtype=np.float64)
    axis, sign = np.empty((2, n), dtype=np.int64)
    library().surface_sample(
        ctypes.byref(s), n, address(u), _stride(u, 0), _stride(u, 1),
        address(points), address(axis), address(sign),
    )
    return points, axis, sign


def hemisphere_directions(*inputs: np.ndarray) -> np.ndarray:
    """``(n, 3)`` hemisphere directions of the five broadcast ``(n,)``
    inputs ``u_side, u1, u2, eps_below, eps_above``."""
    stacked = np.array(np.broadcast_arrays(*inputs), dtype=np.float64)
    n = stacked.shape[1]
    out = np.empty((n, 3), dtype=np.float64)
    library().hemisphere_directions(n, address(stacked), address(out))
    return out
