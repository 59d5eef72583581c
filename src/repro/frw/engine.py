"""Vectorised floating-random-walk engine.

Executes batches of walks whose randomness comes entirely from per-walk
counter streams, so the results of a walk depend only on ``(seed, uid)`` —
never on batching, ordering, or the number of threads.  This is the property
Alg. 2 builds on.

Walk recipe (Sec. II-B):

1. *Launch* (step 0): sample a point uniformly on the master's Gaussian
   surface (3 uniforms: patch + 2 in-patch coordinates).
2. *First hop* (step 1): the transition cube is the largest cube centred at
   the point that avoids all conductors, dielectric interfaces, the domain
   walls, and the ``h_cap`` clamp.  The hop samples the cube's surface
   kernel and sets the walk weight

       omega = -A_G * eps0 * eps_r(r) * sign * grad_ratio / (2 h),

   the Monte-Carlo sample of Gauss's law (Eq. 2) with the centre-gradient
   kernel along the patch normal.
3. *Hops* (steps >= 2): transition cubes sampled from the surface kernel,
   weight unchanged.  A walk closer to a dielectric interface than
   ``interface_snap_fraction`` of its free space snaps onto the interface
   and takes the exact two-medium hemisphere step instead (this also caps
   the first-hop weight, keeping its variance finite near interfaces).
4. *Absorption*: within ``absorb_tol`` (Chebyshev) of a conductor, the walk
   ends there; within ``absorb_tol`` of the domain wall it ends on the
   enclosure conductor.  The walk's sample is ``x_ij = omega * [dest = j]``.

The engine core is :class:`WalkPipeline`, one worker vector: a
*refill-capable* vector loop over its own fixed-capacity **slot arena**
and its own queue of submitted batches.  All per-walk state lives in
arrays preallocated at ``width`` capacity, the active walks occupy the
dense prefix ``[0, n)``, and every slot past ``n`` is free.  Retiring
walks frees slots by moving kept walks from the tail of the prefix into
the holes (the free-list is the tail, kept dense so every per-step kernel
runs on contiguous slots); launching scatter-writes new walks into the
freed tail slots.  Steady-state steps therefore perform **zero array
reallocation** of walk state: the step's own temporaries come from the
same arena, and draws are generated straight into a preallocated ring by
the fused Philox kernel.  The step and the launch are compiled
(``repro/native/kernels.c``): ``launch`` writes new walks from their
Gaussian surface, ``locate`` queries and absorbs, ``retire`` banks and
compacts, and ``cube_hop`` moves every walk, the hemisphere step of
walks on a dielectric interface included, each in one call over a
:class:`repro.native.Arena` descriptor of the slot arena.  What stays in
NumPy per step is the draw-span call and the over-cap mask.

Walks carry their own step counters, so the active set may mix walks from
several batches at different depths.  When walks absorb, their slots are
refilled with UIDs from the next queued batches instead of letting the
active set shrink to a ragged tail — the vector width stays near the batch
size for the whole run.  Completed-walk results are scatter-banked by
global row into a flat result window covering the outstanding batches (no
per-batch Python loops), so checkpoint consumers still see exactly the
batch's UID set, in UID order, bit-identical to unpipelined execution
(per-walk arithmetic is elementwise and draws are keyed by ``(uid,
step)``, so co-scheduling never changes a walk's numbers — the slot a walk
occupies is invisible to its arithmetic).  A dropped batch launches no
further walk.

One vector may also carry walks of several masters ("lanes"): each slot
records its lane, launches use the lane's Gaussian surface and stream,
absorption compares against the lane's tolerance, and one keyed RNG pass
refills every lane at once (:class:`~repro.rng.LaneDraws`).
:func:`run_segments` runs a fixed list of ``(lane, uids)`` segments —
pieces of several masters' batches — through one such vector, so their
drain tails overlap; :func:`run_walks`, the historical batch API, is its
one-segment case.  Both use the calling thread's own vector, so repeated
runs share a warm arena.  An executor's workers each keep one long-lived
vector (:mod:`repro.frw.parallel`).

Per-stage costs (rng / index / sample / bookkeeping) can be measured by
passing a :class:`StageTimers` to the pipeline; the engine benchmark
reports the breakdown.
"""

from __future__ import annotations

import ctypes
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .. import native
from ..errors import ConfigError, ConvergenceError
from ..rng import LaneDraws
from .context import ExtractionContext


@dataclass
class WalkResults:
    """Per-walk outcomes of an engine run (aligned with the input uids)."""

    uids: np.ndarray  # (n,) uint64
    omega: np.ndarray  # (n,) float64 first-hop weights
    dest: np.ndarray  # (n,) int64 absorbing conductor indices
    steps: np.ndarray  # (n,) int64 hops taken (incl. launch)
    truncated: int  # walks cut by the step cap (absorbed to enclosure)


#: Stage names of :class:`StageTimers`, in reporting order.
STAGE_NAMES = ("rng", "index_fast", "index", "sample", "retire", "bookkeeping")

#: RNG prefetch depth ``K`` (steps per fused span pass).  On traced
#: ``open_field_tol`` depth 8 cuts rng dispatches 9575 -> 2602 against
#: depth 1 (docs/PERFORMANCE.md layer 8); it is bit-invisible, so it is a
#: constant rather than a parameter.
RNG_PREFETCH_DEPTH = 8

#: Width budget of a deep ring refill, in (step block, walk) lattice
#: entries: a vector of ``n`` live walks refills ``K`` steps deep while
#: ``2 * K * n <= RING_TILE`` (``n <= 1024`` at ``K = 8``) and one step
#: deep above that.  Deep refills amortize a fixed per-call cost, which
#: dominates in the pipeline's narrow drain tail; at full width they only
#: add cache pressure and draws that retiring walks never consume.  The
#: rule sets ``engine.rng_dispatches``, which CI gates.
RING_TILE = 16384


@dataclass
class StageTimers:
    """Accumulated wall time *and dispatch counts* of the engine's stages.

    ``rng`` — counter-stream draws (with the prefetch ring, one fused span
    pass covers ``RNG_PREFETCH_DEPTH`` steps, so its dispatch count drops by
    ~that factor while ``steps`` keeps counting every vector step);
    ``index`` — the compiled ``locate`` call: grid query (cell lookup,
    far-field mask and candidate scan), enclosure distance and the
    absorption test; ``index_fast`` — the far-field split of the former
    NumPy query, now always 0 (benchmark harnesses still read it);
    ``sample`` — the compiled launch (surface point, layer permittivity
    and slot writes) and the compiled cube hop (position update, first-hop
    weights and the hemisphere step of snapped walks included);
    ``retire`` — stream release, result banking and slot compaction of
    absorbed or over-cap walks; ``bookkeeping`` — the over-cap mask and
    the remaining per-step glue.

    ``counts[stage]`` counts ``lap`` calls — i.e. kernel-cohort dispatches
    charged to the stage — so a stage's fixed Python-dispatch overhead is
    measurable separately from its seconds (the engine's pipelining work
    targets exactly that overhead).
    """

    rng: float = 0.0
    index_fast: float = 0.0
    index: float = 0.0
    sample: float = 0.0
    retire: float = 0.0
    bookkeeping: float = 0.0
    steps: int = 0
    counts: dict = field(default_factory=dict)

    def lap(self, stage: str, t0: float) -> float:
        """Charge ``now - t0`` to ``stage``; returns the new timestamp."""
        t1 = perf_counter()
        setattr(self, stage, getattr(self, stage) + (t1 - t0))
        self.counts[stage] = self.counts.get(stage, 0) + 1
        return t1

    @property
    def total(self) -> float:
        """Sum over all stages."""
        return (
            self.rng
            + self.index_fast
            + self.index
            + self.sample
            + self.retire
            + self.bookkeeping
        )

    def as_dict(self) -> dict:
        """Stage seconds, the step count, and per-stage dispatch counts."""
        out = {stage: getattr(self, stage) for stage in STAGE_NAMES}
        out["total"] = self.total
        out["steps"] = self.steps
        out["counts"] = {
            stage: self.counts.get(stage, 0) for stage in STAGE_NAMES
        }
        return out


class WalkPipeline:
    """One worker vector: a refill-capable walk engine with cross-batch
    pipelining, over its own slot arena and its own batch queue.

    :meth:`submit` queues a batch of one *lane*'s UIDs under the caller's
    ``seq``; :meth:`next_batch` steps until the oldest live batch
    completes and returns it; :meth:`drop` forgets a batch.  Freed slots
    refill from the queued batches in submission order, so the caller
    alone decides how far the vector runs ahead of the oldest outstanding
    batch; the walks' *results* are identical at any schedule.

    A lane is one master's ``(ctx, streams)``: an extraction context and a
    per-walk stream provider (``WalkStreams``, ``MirroredDraws`` or
    ``MTWalkStreams``), named by a caller's key.  Lanes differ only in
    their launch surface, flux scale, absorption tolerance and streams;
    they must share the structure, the ``index`` and ``table`` objects,
    ``h_cap`` and the step settings (:class:`~repro.errors.ConfigError`
    otherwise).  A walk's numbers depend only on its own lane and
    ``(uid, step)``, so mixing lanes never changes a value.  Once no batch
    is live the vector goes idle: it forgets its lanes, width and ring
    phase, and the next :meth:`submit` starts it afresh on that call's
    context and ``width``.  The arena arrays are kept (grown, never
    shrunk), so a long-lived vector stays warm.

    Attributes
    ----------
    timers:
        Optional :class:`StageTimers` accumulating per-stage wall time.
    trace:
        When a list, per-step positions of all active walks are appended as
        ``(global_rows, positions)`` tuples, a walk's global row being its
        launch index since the vector last went idle — its row in the
        batch for a single-batch run (small runs only; used by the scalar
        reference and Fig. 2).  Frame-internal order is unspecified —
        consumers map rows by value.

    Draws come through an RNG prefetch ring of depth ``K =``
    :data:`RNG_PREFETCH_DEPTH` (read when the vector starts): one fused
    span pass fills the draws for the next ``K`` steps of every live slot
    into the ring buffer, consumed one plane per step, so the fixed
    per-call draw-dispatch cost is paid once per ``K`` steps.  The ring is
    *phase-aligned*: a single cursor is shared by all slots (consuming a
    plane dispatches nothing), launches fill a partial span that
    joins the global phase, and retirement compaction moves ring columns
    with the other slot state — so the per-slot cursor is simply
    ``(step_no[i], cursor)``.  Because each walk's draws depend only on
    its own ``(uid, step)`` sequence, results are bit-identical at every
    depth (prefetching can only compute draws a retired walk never
    consumes).
    """

    def __init__(
        self, timers: StageTimers | None = None, trace: list | None = None
    ):
        self.timers = timers
        self.trace = trace
        self._capacity = 0
        self._ring_store = None
        # The compiled step kernels' view of the arena, built by the first
        # _grow_arena: slot pointers are set there, the walk space, ring
        # and result window by _start, and the window and lane weights
        # again whenever those arrays change.  An idle vector's descriptor
        # may point at freed arrays; no kernel runs before _start.
        self._arena = None
        self._reset()

    def _reset(self) -> None:
        """Go idle: forget the lanes, the queue, the result window and the
        ring phase (the arena arrays stay for the next batches)."""
        self.ctx = self._index = None
        self.width = 0
        self._keys: dict = {}  # caller's key -> lane
        self._surfaces: tuple = ()
        self._lane_flux = np.empty(0, dtype=np.float64)
        self._lane_tol = np.empty(0, dtype=np.float64)
        self._draws = None
        self.live: dict = {}  # seq -> walks, until emitted or dropped
        self._queue: deque = deque()  # (seq, lane, uids) not yet launching

        self._pending = np.empty(0, dtype=np.uint64)
        self._pending_lane = 0
        self._pending_start_g = 0
        self._pending_off = 0

        # Flat result window over the launched, unemitted batches.  Each
        # walk banks its outcome by *global row* — a scatter write, no
        # per-batch grouping loops.
        self._win_seqs: list = []
        self._win_uids: list[np.ndarray] = []
        self._win_starts = np.empty(0, dtype=np.int64)  # global start rows
        self._win_remaining = np.empty(0, dtype=np.int64)
        self._win_truncated = np.empty(0, dtype=np.int64)
        self._res_omega = np.empty(0, dtype=np.float64)
        self._res_dest = np.empty(0, dtype=np.int64)
        self._res_steps = np.empty(0, dtype=np.int64)
        self._win_base_g = 0  # global row of the window's first slot
        self._next_g = 0  # next global row to assign

        # Active walks occupy the arena prefix [0, n); the rest is free.
        self._n = 0
        # Planes filled by the last refill; cursor == _ring_depth means
        # "ring drained": the next step refills before consuming.
        self._ring_depth = 1
        self._ring_cursor = 1

    def _start(self, ctx: ExtractionContext, width: int) -> None:
        """Start an idle vector on ``ctx``'s structure, ``width`` walks wide."""
        self.ctx = ctx
        self.width = max(1, int(width))
        stack = ctx.structure.dielectric
        self._enclosure_index = ctx.enclosure_index
        self._index = ctx.index
        self._grow_arena(self.width)
        self._prefetch = RNG_PREFETCH_DEPTH
        # Refill K deep only up to the RING_TILE width (see there).
        self._span_max_n = max(1, RING_TILE // (2 * self._prefetch))
        ring = self._ring_store
        if ring is None or ring.shape[0] < self._prefetch:
            # ``ring[k, d, i]`` holds draw slot ``d`` of arena slot ``i`` at
            # the ``k``-th buffered step; it is the engine's only draw
            # buffer (hop and launch draws alike).  Slot-major storage
            # keeps the span kernel's writes and the step kernels' per-draw-
            # slot reads contiguous.
            self._ring_store = np.empty(
                (self._prefetch, 3, self._capacity), dtype=np.float64
            )
        self._ring = self._ring_store[: self._prefetch]
        # The `_v` view exposes the (depth, n, count) axis order
        # draws_span expects, sharing the memory.
        self._ring_v = self._ring.transpose(0, 2, 1)
        cfg = ctx.config
        enc = ctx.structure.enclosure
        a = self._arena
        a.ring = native.address(self._ring_store)
        a.grid = ctypes.addressof(ctx.index.descriptor())
        a.table = ctypes.addressof(ctx.table._native)
        a.interfaces = native.address(stack._z)
        a.n_interfaces = stack._z.shape[0]  # 0 for homogeneous
        a.layer_eps = native.address(stack._eps)
        a.enc_lo[:] = [float(v) for v in enc.lo]
        a.enc_hi[:] = [float(v) for v in enc.hi]
        a.enc_index = self._enclosure_index
        a.h_cap = ctx.h_cap
        a.snap_fraction = cfg.interface_snap_fraction
        a.first_floor = cfg.first_hop_interface_floor
        self._point_window()
        lib = native.library()
        self._launch, self._locate, self._retire, self._cube_hop = (
            lib.launch, lib.locate, lib.retire, lib.cube_hop
        )

    def _grow_arena(self, capacity: int) -> None:
        """Grow the slot arena and the step scratch to ``capacity`` slots
        and point the arena descriptor at them.

        Every array is reused for every step, so steady-state steps
        allocate no walk state."""
        if capacity <= self._capacity:
            return
        self._capacity = capacity
        self._ring_store = None  # regrown at the new width by _start
        self._uid = np.empty(capacity, dtype=np.uint64)
        # The slot's lane (master) and that lane's absorption tolerance.
        self._lane = np.empty(capacity, dtype=np.int64)
        self._tol = np.empty(capacity, dtype=np.float64)
        self._grow = np.empty(capacity, dtype=np.int64)
        # uint64 so the RNG's counter build consumes it without a cast copy.
        self._step_no = np.empty(capacity, dtype=np.uint64)
        self._pos = np.empty((capacity, 3), dtype=np.float64)
        self._eps = np.empty(capacity, dtype=np.float64)
        self._first = np.zeros(capacity, dtype=bool)
        self._naxis = np.empty(capacity, dtype=np.int64)
        self._nsign = np.empty(capacity, dtype=np.float64)
        # Step scratch: the kernels' distances and absorption.
        self._dist = np.empty(capacity, dtype=np.float64)
        self._dist_e = np.empty(capacity, dtype=np.float64)
        self._done = np.empty(capacity, dtype=bool)
        self._dest = np.empty(capacity, dtype=np.int64)
        if self._arena is None:
            self._arena = native.Arena()
            self._arena_ref = ctypes.byref(self._arena)
        a = self._arena
        for name in (
            "uid", "lane", "tol", "grow", "step_no", "pos", "eps", "first",
            "naxis", "nsign", "dist", "dist_e", "done", "dest",
        ):
            setattr(a, name, native.address(getattr(self, "_" + name)))
        a.capacity = capacity

    def _point_window(self) -> None:
        """Point the arena descriptor at the current result window."""
        a = self._arena
        a.res_omega = native.address(self._res_omega)
        a.res_dest = native.address(self._res_dest)
        a.res_steps = native.address(self._res_steps)
        a.win_starts = native.address(self._win_starts)
        a.win_remaining = native.address(self._win_remaining)
        a.win_truncated = native.address(self._win_truncated)
        a.n_win = self._win_starts.shape[0]
        a.win_base_g = self._win_base_g

    # ------------------------------------------------------------------
    # The batch queue
    # ------------------------------------------------------------------
    def submit(
        self, seq, key, ctx: ExtractionContext, streams, uids, width: int
    ) -> None:
        """Queue batch ``seq``: the ``uids`` of the lane ``key`` names.

        A new key adds the lane ``(ctx, streams)``; a known key keeps the
        lane it names, and ``ctx`` and ``streams`` go unused.  ``width``
        sizes an idle vector and is otherwise unused.
        """
        lane = self._keys.get(key)
        if lane is None:
            if self.ctx is None:
                self._start(ctx, width)
            elif not _shares_walk_space(self.ctx, ctx):
                raise ConfigError(
                    "pipeline lanes must share the structure, index, table, "
                    "h_cap and step settings"
                )
            lane = self._keys[key] = len(self._surfaces)
            self._surfaces += (ctypes.byref(ctx.surface._native),)
            self._lane_flux = np.append(self._lane_flux, ctx.flux_scale)
            self._arena.lane_flux = native.address(self._lane_flux)
            self._lane_tol = np.append(self._lane_tol, ctx.absorb_tol)
            providers = self._draws.providers if lane else ()
            self._draws = LaneDraws(providers + (streams,))
        uids = np.ascontiguousarray(uids, dtype=np.uint64)
        self._queue.append((seq, lane, uids))
        self.live[seq] = uids.shape[0]

    def drop(self, seq) -> int:
        """Forget batch ``seq``; returns its walks not yet launched, which
        then never are.  Its launched walks run out unreported."""
        walks = self.live.pop(seq, None)
        if walks is None:  # already emitted
            return 0
        if seq not in self._win_seqs:  # still queued
            unlaunched = walks
        elif seq == self._win_seqs[-1]:  # the batch launching now
            unlaunched = self._pending.shape[0] - self._pending_off
            self._pending_off = self._pending.shape[0]
            self._win_remaining[-1] -= unlaunched
        else:
            unlaunched = 0
        if not self.live:
            self._reset()
        return unlaunched

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------
    def _ensure_pending(self) -> bool:
        """Make sure un-launched UIDs are available; False when the queue
        holds no live batch."""
        while self._pending_off >= self._pending.shape[0]:
            if not self._queue:
                return False
            seq, lane, uids = self._queue.popleft()
            if seq not in self.live:  # dropped while queued
                continue
            n = uids.shape[0]
            self._win_seqs.append(seq)
            self._win_uids.append(uids)
            self._win_starts = np.append(self._win_starts, self._next_g)
            self._win_remaining = np.append(self._win_remaining, n)
            self._win_truncated = np.append(self._win_truncated, 0)
            if n:
                self._res_omega = np.concatenate(
                    [self._res_omega, np.zeros(n, dtype=np.float64)]
                )
                self._res_dest = np.concatenate(
                    [self._res_dest, np.full(n, -1, dtype=np.int64)]
                )
                self._res_steps = np.concatenate(
                    [self._res_steps, np.zeros(n, dtype=np.int64)]
                )
            self._pending = uids
            self._pending_lane = lane
            self._pending_start_g = self._next_g
            self._pending_off = 0
            self._next_g += n
            self._point_window()
        return True

    def _refill(self) -> None:
        """Launch queued walks into the free tail slots, one lane's run of
        UIDs at a time: their draws, then one compiled ``launch`` call for
        their surface points and slot state."""
        tm = self.timers
        launched = False
        while self._n < self.width and self._ensure_pending():
            if tm is not None:
                t0 = perf_counter()
            n, off, lane = self._n, self._pending_off, self._pending_lane
            k = min(self.width - n, self._pending.shape[0] - off)
            uids = self._pending[off : off + k]
            self._pending_off = off + k
            # The launch span joins the global ring phase: with the cursor
            # at ``c``, live slots hold steps ``step_no .. step_no+r-1`` in
            # the ``r`` unconsumed planes ``c..D-1`` (``D`` =
            # ``_ring_depth``); a fresh walk (step_no 1) needs steps
            # ``1..r`` there, plus step 0 for the launch itself — one span
            # of depth ``r+1`` starting at 0, written straight into planes
            # ``c-1..D-1`` of the new slots (plane ``c-1`` is already
            # consumed, so it is free for step 0).
            c = self._ring_cursor
            r = self._ring_depth - c
            self._draws.providers[lane].draws_span(
                uids, 0, r + 1, 3, out=self._ring_v[c - 1 : c + r, n : n + k]
            )
            if tm is not None:
                t0 = tm.lap("rng", t0)
            self._launch(
                self._arena_ref, self._surfaces[lane], n, k,
                native.address(uids), lane, self._lane_tol[lane],
                self._pending_start_g + off, c - 1,
            )
            self._n = n + k
            if tm is not None:
                tm.lap("sample", t0)
            launched = True
        if launched and self.trace is not None:
            n = self._n
            self.trace.append((self._grow[:n].copy(), self._pos[:n].copy()))

    # ------------------------------------------------------------------
    # Retiring and compaction
    # ------------------------------------------------------------------
    def _retire_done(self, truncated: bool) -> None:
        """Retire the walks flagged in ``_done`` (with their ``_dest``):
        release their streams, then bank their outcomes by global row and
        compact the arena by moving kept tail walks into the holes, in one
        compiled call (``retire``), which carries their unconsumed ring
        planes with them."""
        n = self._n
        if self._draws.releases:
            # Each stream is released exactly once, when its walk retires
            # (matters for the MTWalkStreams per-walk state cache).
            done = self._done[:n]
            self._draws.release(self._lane[:n][done], self._uid[:n][done])
        self._n = self._retire(
            self._arena_ref, n, truncated, self._ring_cursor, self._ring_depth
        )

    # ------------------------------------------------------------------
    # The vector step
    # ------------------------------------------------------------------
    def _step(self) -> None:
        """Advance every active walk by one hop (walks at different depths
        mix freely because all per-walk operations are elementwise).

        The step is four stages over the dense slot prefix:
        ``stage_retire_overcap -> stage_locate -> stage_rng ->
        stage_sample``.  Locating, retiring and the hop (cube or
        hemisphere) are one compiled call each over the arena descriptor;
        the RNG stage consumes a prefetched ring plane on most steps (one
        fused span dispatch per ``RNG_PREFETCH_DEPTH`` steps).
        """
        if self._n == 0:
            return
        tm = self.timers
        if tm is not None:
            tm.steps += 1
            t0 = perf_counter()
        else:
            t0 = 0.0

        t0 = self._stage_retire_overcap(t0)
        if self._n == 0:
            return
        t0 = self._stage_locate(t0)
        if self._n == 0:
            return
        t0, plane = self._stage_rng(t0)
        self._stage_sample(t0, plane)

    def _stage_retire_overcap(self, t0: float) -> float:
        """Safety net: retire over-cap survivors as absorbed by the
        enclosure (counted as truncated)."""
        tm = self.timers
        n = self._n
        over = np.greater(
            self._step_no[:n], self.ctx.config.max_steps, out=self._done[:n]
        )
        if over.any():
            self._dest[:n] = self._enclosure_index
            self._retire_done(truncated=True)
            if tm is not None:
                t0 = tm.lap("retire", t0)
        elif tm is not None:
            t0 = tm.lap("bookkeeping", t0)
        return t0

    def _stage_locate(self, t0: float) -> float:
        """Conductor and wall distances and the absorption test of every
        walk (``locate``, charged to ``index``), then retirement of the
        absorbed ones."""
        tm = self.timers
        n = self._n
        absorbed = self._locate(self._arena_ref, n)
        self._index.count_query(n, *self._arena.counts)
        if absorbed < 0:
            raise ConvergenceError(
                "walk absorbed before its first hop; the Gaussian surface "
                "offset is smaller than the absorption tolerance"
            )
        if tm is not None:
            t0 = tm.lap("index", t0)
        if absorbed:
            self._retire_done(truncated=False)
            if tm is not None:
                t0 = tm.lap("retire", t0)
        return t0

    def _stage_rng(self, t0: float):
        """Hop draws for the surviving cohort: returns the ring plane the
        step consumes.

        Most steps consume a ready ring plane (zero dispatches); a drained
        ring is refilled for every live slot by one span pass —
        ``RNG_PREFETCH_DEPTH`` steps deep up to the :data:`RING_TILE`
        width, one step deep for wider vectors.
        """
        tm = self.timers
        n = self._n
        c = self._ring_cursor
        if c < self._ring_depth:
            self._ring_cursor = c + 1
            return t0, c
        # Every live slot (including walks launched mid-ring, whose partial
        # spans drained at the same phase) needs steps step_no onwards.
        depth = self._prefetch if n <= self._span_max_n else 1
        self._draws.draws_span(
            self._lane[:n],
            self._uid[:n],
            self._step_no[:n],
            depth,
            3,
            out=self._ring_v[:depth, :n],
        )
        if tm is not None:
            t0 = tm.lap("rng", t0)
        self._ring_depth = depth
        self._ring_cursor = 1
        return t0, 0

    def _stage_sample(self, t0: float, plane: int) -> None:
        """Transition sampling and position update for the cohort: one
        compiled ``cube_hop`` call (first-hop weights, and the hemisphere
        step of walks that snap onto an interface, included)."""
        tm = self.timers
        n = self._n
        self._cube_hop(self._arena_ref, n, plane)
        if tm is not None:
            t0 = tm.lap("sample", t0)
        if self.trace is not None:
            self.trace.append((self._grow[:n].copy(), self._pos[:n].copy()))
        if tm is not None:
            tm.lap("bookkeeping", t0)

    # ------------------------------------------------------------------
    # Batch emission
    # ------------------------------------------------------------------
    def _emit_front(self) -> tuple:
        """Slice the completed oldest batch out of the result window:
        ``(seq, results)``."""
        seq = self._win_seqs.pop(0)
        uids = self._win_uids.pop(0)
        n0 = uids.shape[0]
        truncated = int(self._win_truncated[0])
        self._win_starts = self._win_starts[1:]
        self._win_remaining = self._win_remaining[1:]
        self._win_truncated = self._win_truncated[1:]
        res = WalkResults(
            uids=uids,
            omega=self._res_omega[:n0].copy(),
            dest=self._res_dest[:n0].copy(),
            steps=self._res_steps[:n0].copy(),
            truncated=truncated,
        )
        self._res_omega = self._res_omega[n0:]
        self._res_dest = self._res_dest[n0:]
        self._res_steps = self._res_steps[n0:]
        self._win_base_g += n0
        self._point_window()
        return seq, res

    def next_batch(self) -> tuple[object, WalkResults] | None:
        """Run until the oldest live batch completes: ``(seq, results)``,
        or ``None`` when no batch is live.

        Slots freed by retiring walks are refilled from the queue, so
        later batches are typically already in flight (or finished and
        banked) when their turn comes.  A dropped batch's launched walks
        finish in their turn and are never returned.
        """
        while self.live:
            self._refill()
            if self._win_remaining[0]:
                self._step()
                continue
            seq, res = self._emit_front()
            if self.live.pop(seq, None) is not None:  # else dropped
                if not self.live:
                    self._reset()
                return seq, res
        return None


_THREAD = threading.local()


def run_segments(
    lanes,
    segments,
    width: int,
    trace: list | None = None,
    timers: StageTimers | None = None,
) -> list[WalkResults]:
    """Run ``(lane, uids)`` segments through one shared walk vector.

    ``lanes`` are ``(ctx, streams)`` pairs (see :class:`WalkPipeline`);
    the segments are queued in order on a vector of ``width`` walks,
    whose freed slots refill from the next segments, so the segments'
    drain tails overlap instead of running back to back.
    Returns one :class:`WalkResults` per segment, in segment order, each in
    its segment's UID order — bit-identical to running every segment alone
    with :func:`run_walks` on its lane.

    The vector is the calling thread's own :class:`WalkPipeline`, so
    consecutive calls on one thread (per-batch loops) reuse its
    preallocated arena.
    """
    pipe = getattr(_THREAD, "pipe", None)
    if pipe is None:
        pipe = _THREAD.pipe = WalkPipeline()
    pipe.timers, pipe.trace = timers, trace
    try:
        for seq, (lane, uids) in enumerate(segments):
            pipe.submit(seq, lane, *lanes[lane], uids, width)
        return [pipe.next_batch()[1] for _ in segments]
    finally:
        pipe._reset()  # idle for the next call, even after a failed one
        pipe.timers = pipe.trace = None


def run_walks(
    ctx: ExtractionContext,
    streams,
    uids: np.ndarray,
    trace: list | None = None,
    timers: StageTimers | None = None,
) -> WalkResults:
    """Run a batch of walks to absorption: the one-segment case of
    :func:`run_segments`, with the vector as wide as the batch.

    Parameters
    ----------
    ctx:
        Extraction context of the master conductor.
    streams:
        A per-walk stream provider (``WalkStreams``, ``MirroredDraws`` or
        ``MTWalkStreams``).
    uids:
        Walk UIDs to execute; results are returned in the same order.
    trace:
        When given, per-step positions of all walks are appended (small
        batches only; used by the scalar reference and Fig. 2).
    timers:
        Optional :class:`StageTimers` accumulating per-stage wall time.
    """
    uids = np.asarray(uids, dtype=np.uint64)
    return run_segments(
        ((ctx, streams),),
        [(0, uids)],
        width=uids.shape[0],
        trace=trace,
        timers=timers,
    )[0]


def concat_results(uids: np.ndarray, parts: list[WalkResults]) -> WalkResults:
    """Consecutive pieces of one UID set, reassembled in UID order."""
    return WalkResults(
        uids=uids,
        omega=np.concatenate([p.omega for p in parts]),
        dest=np.concatenate([p.dest for p in parts]),
        steps=np.concatenate([p.steps for p in parts]),
        truncated=sum(p.truncated for p in parts),
    )


def _shares_walk_space(a: ExtractionContext, b: ExtractionContext) -> bool:
    """Whether two masters' walks may share one vector: every per-step
    input other than the launch surface, the flux scale and the absorption
    tolerance (which :class:`WalkPipeline` keeps per lane) must agree.
    The index and the table must be the same objects: one solver's
    contexts share both, and a process worker attaches one object per
    published block."""
    sa, sb = a.structure, b.structure
    ca, cb = a.config, b.config
    return (
        a.h_cap == b.h_cap
        and a.index is b.index
        and a.table is b.table
        and sa.dielectric == sb.dielectric
        and sa.enclosure == sb.enclosure
        and sa.enclosure_index == sb.enclosure_index
        and ca.max_steps == cb.max_steps
        and ca.interface_snap_fraction == cb.interface_snap_fraction
        and ca.first_hop_interface_floor == cb.first_hop_interface_floor
    )

