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
the holes (a vectorised scatter — the free-list is the tail, kept dense so
every per-step kernel runs on contiguous views); launching scatter-writes
new walks into the freed tail slots.  Steady-state steps therefore perform
**zero array reallocation** of walk state: the step's own temporaries come
from the same arena, and draws are generated straight into a preallocated
ring by the fused Philox kernel.

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

import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..errors import ConfigError, ConvergenceError
from ..geometry.structure import wall_distance
from ..greens.sphere import interface_hemisphere_direction
from ..rng import LaneDraws
from ..rng.counter_stream import SPAN_TILE
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


@dataclass
class StageTimers:
    """Accumulated wall time *and dispatch counts* of the engine's stages.

    ``rng`` — counter-stream draws (with the prefetch ring, one fused span
    pass covers ``RNG_PREFETCH_DEPTH`` steps, so its dispatch count drops by
    ~that factor while ``steps`` keeps counting every vector step);
    ``index_fast`` — the spatial index's tier-1 far-field split (cell
    lookup + bounds mask + capped scatter); ``index`` — the near-field
    candidate gather plus enclosure distance queries; ``sample`` —
    surface/cube-kernel sampling and the position update; ``retire`` —
    result banking, stream release and slot compaction of absorbed walks;
    ``bookkeeping`` — masks, launch scatter-writes and the remaining
    per-step glue.

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
        ``(rows_in_batch, positions)`` tuples (small single-batch runs only;
        used by the scalar reference and Fig. 2).  Frame-internal order is
        unspecified — consumers map rows by value.

    Draws come through an RNG prefetch ring of depth ``K =``
    :data:`RNG_PREFETCH_DEPTH` (read when the vector starts): one fused
    span pass fills the draws for the next ``K`` steps of every live slot
    into the ring buffer, consumed one plane per step, so the fixed
    per-call draw-dispatch cost is paid once per ``K`` steps.  The ring is
    *phase-aligned*: a single cursor is shared by all slots (consuming a
    plane is a zero-dispatch view), launches fill a partial span that
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
        self._reset()

    def _reset(self) -> None:
        """Go idle: forget the lanes, the queue, the result window and the
        ring phase (the arena arrays stay for the next batches)."""
        self.ctx = self._table = self._query_into = None
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
        self._have_first = False
        # Planes filled by the last refill; cursor == _ring_depth means
        # "ring drained": the next step refills before consuming.
        self._ring_depth = 1
        self._ring_cursor = 1

    def _start(self, ctx: ExtractionContext, width: int) -> None:
        """Start an idle vector on ``ctx``'s structure, ``width`` walks wide."""
        self.ctx = ctx
        self.width = max(1, int(width))
        self._stack = ctx.structure.dielectric
        self._interfaces = self._stack._z  # () for homogeneous
        self._enclosure_index = ctx.enclosure_index
        self._table = ctx.table
        enc = ctx.structure.enclosure
        self._enc_lo = tuple(float(v) for v in enc.lo)
        self._enc_hi = tuple(float(v) for v in enc.hi)
        self._query_into = ctx.index.query_into
        self._grow_arena(self.width)
        self._prefetch = RNG_PREFETCH_DEPTH
        # Refill K deep only while the whole (2K, n) span lattice fits one
        # cache-resident tile: fusing amortizes *fixed dispatch cost*,
        # which dominates at small-to-mid vector widths (the pipeline's
        # long-tail regime) but vanishes at full width, where a deep pass
        # only adds cache pressure (measured 0.4x at n=8192, K=4).  Wider
        # vectors refill the ring one step deep.
        self._span_max_n = max(1, SPAN_TILE // (2 * self._prefetch))
        ring = self._ring_store
        if ring is None or ring.shape[0] < self._prefetch:
            # ``ring[k, d, i]`` holds draw slot ``d`` of arena slot ``i`` at
            # the ``k``-th buffered step; it is the engine's only draw
            # buffer (hop and launch draws alike).  Slot-major storage
            # keeps the span kernel's writes and the sample stage's
            # per-draw-slot column reads contiguous.
            self._ring_store = np.empty(
                (self._prefetch, 3, self._capacity), dtype=np.float64
            )
        self._ring = self._ring_store[: self._prefetch]
        # The `_v` view exposes the (depth, n, count) axis order
        # draws_span expects, sharing the memory.
        self._ring_v = self._ring.transpose(0, 2, 1)

    def _grow_arena(self, capacity: int) -> None:
        """Grow the slot arena and the step scratch to ``capacity`` slots.

        Every array is reused for every step, so steady-state steps
        allocate no walk state."""
        if capacity <= self._capacity:
            return
        self._capacity = capacity
        self._ring_store = None  # regrown at the new width by _start
        self._uid = np.empty(capacity, dtype=np.uint64)
        # The slot's lane (master) and that lane's absorption tolerance.
        self._lane = np.empty(capacity, dtype=np.intp)
        self._tol = np.empty(capacity, dtype=np.float64)
        self._grow = np.empty(capacity, dtype=np.int64)
        self._row = np.empty(capacity, dtype=np.int64)
        # uint64 so the RNG's counter build consumes it without a cast copy.
        self._step_no = np.empty(capacity, dtype=np.uint64)
        self._pos = np.empty((capacity, 3), dtype=np.float64)
        self._pos_next = np.empty((capacity, 3), dtype=np.float64)
        self._eps = np.empty(capacity, dtype=np.float64)
        self._first = np.zeros(capacity, dtype=bool)
        self._naxis = np.empty(capacity, dtype=np.int64)
        self._nsign = np.empty(capacity, dtype=np.float64)
        # Step scratch: cube sizes, query_into's outputs, cohort masks.
        self._h = np.empty(capacity, dtype=np.float64)
        self._h2 = np.empty(capacity, dtype=np.float64)
        self._dist = np.empty(capacity, dtype=np.float64)
        self._cond = np.empty(capacity, dtype=np.int64)
        self._b0 = np.empty(capacity, dtype=bool)
        self._b1 = np.empty(capacity, dtype=bool)
        self._b2 = np.empty(capacity, dtype=bool)
        self._b3 = np.empty(capacity, dtype=bool)
        self._b4 = np.empty(capacity, dtype=bool)

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
            self._surfaces += (ctx.surface,)
            self._lane_flux = np.append(self._lane_flux, ctx.flux_scale)
            self._lane_tol = np.append(self._lane_tol, ctx.absorb_tol)
            providers = self._draws.providers if lane else ()
            self._draws = LaneDraws(providers + (streams,))
        uids = np.asarray(uids, dtype=np.uint64)
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
        return True

    def _refill(self) -> None:
        launched = False
        while self._n < self.width and self._ensure_pending():
            off = self._pending_off
            take = min(self.width - self._n, self._pending.shape[0] - off)
            uids = self._pending[off : off + take]
            self._pending_off = off + take
            self._launch(self._pending_lane, uids, self._pending_start_g, off)
            launched = True
        if launched and self.trace is not None:
            n = self._n
            self.trace.append((self._row[:n].copy(), self._pos[:n].copy()))

    def _launch(
        self, lane: int, uids: np.ndarray, start_g: int, off: int
    ) -> None:
        """Scatter-write freshly launched walks of one lane into free tail
        slots (its surface, its stream)."""
        tm = self.timers
        if tm is not None:
            t0 = perf_counter()
        k = uids.shape[0]
        n = self._n
        sl = slice(n, n + k)
        # The launch span joins the global ring phase: with the cursor at
        # ``c``, live slots hold steps ``step_no .. step_no+r-1`` in the
        # ``r`` unconsumed planes ``c..D-1`` (``D`` = ``_ring_depth``); a
        # fresh walk (step_no 1) needs steps ``1..r`` there, plus step 0
        # for the launch itself — one span of depth ``r+1`` starting at 0,
        # written straight into planes ``c-1..D-1`` of the new slots
        # (plane ``c-1`` is already consumed, so it is free for step 0).
        c = self._ring_cursor
        r = self._ring_depth - c
        u = self._draws.providers[lane].draws_span(
            uids, 0, r + 1, 3, out=self._ring_v[c - 1 : c + r, sl]
        )[0]
        if tm is not None:
            t0 = tm.lap("rng", t0)
        pos, naxis, nsign = self._surfaces[lane].sample(u)
        eps = self._stack.eps_at(pos[:, 2])
        if tm is not None:
            t0 = tm.lap("sample", t0)
        self._uid[sl] = uids
        self._lane[sl] = lane
        self._tol[sl] = self._lane_tol[lane]
        self._grow[sl] = np.arange(
            start_g + off, start_g + off + k, dtype=np.int64
        )
        self._row[sl] = np.arange(off, off + k, dtype=np.int64)
        self._step_no[sl] = 1
        self._pos[sl] = pos
        self._eps[sl] = eps
        self._first[sl] = True
        self._naxis[sl] = naxis
        self._nsign[sl] = nsign
        self._n = n + k
        self._have_first = True
        if tm is not None:
            tm.lap("bookkeeping", t0)

    # ------------------------------------------------------------------
    # Retiring and compaction
    # ------------------------------------------------------------------
    def _retire_compact(
        self,
        done: np.ndarray,
        dest: np.ndarray,
        steps: np.ndarray,
        truncated: bool,
        extra: tuple = (),
    ) -> None:
        """Bank the outcomes of the masked walks, release their streams,
        and compact the arena by moving kept tail walks into the holes.

        ``done`` is a boolean mask over the active prefix; ``dest``/``steps``
        are the retired walks' outcomes in mask order.  ``extra`` arrays
        (per-active-walk temporaries the caller keeps using) receive the
        same compaction moves.
        """
        n = self._n
        g = self._grow[:n][done]
        idx = g - self._win_base_g
        self._res_dest[idx] = dest
        self._res_steps[idx] = steps
        # Grouped per-batch remaining/truncated decrements: one bincount
        # scatter-add instead of a per-unique-batch Python loop.
        b = np.searchsorted(self._win_starts, g, side="right") - 1
        counts = np.bincount(b, minlength=self._win_remaining.shape[0])
        self._win_remaining -= counts
        if truncated:
            self._win_truncated += counts
        if self._draws.releases:
            # Each stream is released exactly once, when its walk retires
            # (matters for the MTWalkStreams per-walk state cache).
            self._draws.release(self._lane[:n][done], self._uid[:n][done])
        n_done = dest.shape[0]
        n_new = n - n_done
        movers = n_new + np.nonzero(~done[n_new:n])[0]
        holes = np.nonzero(done[:n_new])[0]
        if holes.shape[0]:
            for arr in (
                self._uid,
                self._lane,
                self._tol,
                self._grow,
                self._row,
                self._step_no,
                self._eps,
                self._first,
                self._naxis,
                self._nsign,
            ):
                arr[holes] = arr[movers]
            self._pos[holes] = self._pos[movers]
            # Unconsumed prefetched planes travel with their slot; the
            # phase alignment (plane c+j = step step_no+j) is preserved
            # because compaction moves whole columns.
            live = slice(self._ring_cursor, self._ring_depth)
            self._ring[live, :, holes] = self._ring[live, :, movers]
            for arr in extra:
                arr[holes] = arr[movers]
        self._n = n_new

    def _store_omega(self, idx: np.ndarray, omega: np.ndarray) -> None:
        """Scatter first-hop weights into the result window by global row."""
        self._res_omega[self._grow[idx] - self._win_base_g] = omega

    # ------------------------------------------------------------------
    # The vector step: decoupled stage kernels
    # ------------------------------------------------------------------
    def _step(self) -> None:
        """Advance every active walk by one hop (identical math to the
        historical batch loop; walks at different depths mix freely because
        all per-walk operations are elementwise).

        The step is a pipeline of cohort-wise stage kernels —
        ``stage_retire_overcap -> stage_index -> stage_absorb ->
        stage_rng -> stage_sample`` — communicating through workspace
        views (the boolean cohort masks ``b0..b4`` and the distance
        buffers).  The RNG stage consumes a prefetched ring plane on most
        steps (one fused span dispatch per ``RNG_PREFETCH_DEPTH`` steps),
        so the per-step fixed dispatch cost of the largest stage amortizes
        away; each stage runs one large numpy kernel cohort over the dense
        slot prefix rather than interleaving small ones.
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
        t0, dist_c, dist_e = self._stage_index(t0)
        t0, dist_c, dist_e = self._stage_absorb(t0, dist_c, dist_e)
        if self._n == 0:
            return
        t0, u = self._stage_rng(t0)
        self._stage_sample(t0, u, dist_c, dist_e)

    def _stage_retire_overcap(self, t0: float) -> float:
        """Safety net: retire over-cap survivors as absorbed by the
        enclosure (counted as truncated)."""
        cfg = self.ctx.config
        tm = self.timers
        n = self._n
        over = np.greater(self._step_no[:n], cfg.max_steps, out=self._b0[:n])
        n_over = int(np.count_nonzero(over))
        if n_over:
            dest = np.full(n_over, self._enclosure_index, dtype=np.int64)
            self._retire_compact(
                over, dest, self._step_no[:n][over], truncated=True
            )
            if tm is not None:
                t0 = tm.lap("retire", t0)
        elif tm is not None:
            t0 = tm.lap("bookkeeping", t0)
        return t0

    def _stage_index(self, t0: float):
        """Conductor-distance and enclosure-distance queries for the
        active cohort (tier-1 far field split charged to ``index_fast``
        by the index itself)."""
        tm = self.timers
        n = self._n
        pos = self._pos[:n]
        # The index fills the arena's query buffers in place (the conductor
        # ids in ``_cond``, read by the absorb stage), charging its tier-1
        # split to ``index_fast`` and the near-field gather to ``index``.
        dist_c = self._dist[:n]
        if tm is not None:
            t0 = self._query_into(pos, dist_c, self._cond[:n], timers=tm, t0=t0)
        else:
            self._query_into(pos, dist_c, self._cond[:n])
        dist_e = wall_distance(
            pos, self._enc_lo, self._enc_hi, out=self._h[:n], tmp=self._h2[:n]
        )
        if tm is not None:
            t0 = tm.lap("index", t0)
        return t0, dist_c, dist_e

    def _stage_absorb(self, t0: float, dist_c, dist_e):
        """Absorption masks over the queried cohort, then retirement and
        slot compaction of the absorbed walks."""
        tm = self.timers
        n = self._n
        cond = self._cond[:n]
        tol = self._tol[:n]
        absorb_wall = np.less(dist_e, tol, out=self._b0[:n])
        absorb_cond = np.less(dist_c, tol, out=self._b1[:n])
        absorb_cond &= np.greater_equal(cond, 0, out=self._b2[:n])
        absorb_cond &= np.logical_not(absorb_wall, out=self._b3[:n])
        done = np.logical_or(absorb_wall, absorb_cond, out=self._b4[:n])
        n_done = int(np.count_nonzero(done))
        if n_done:
            if self._have_first and bool(np.any(done & self._first[:n])):
                raise ConvergenceError(
                    "walk absorbed before its first hop; the Gaussian surface "
                    "offset is smaller than the absorption tolerance"
                )
            dest = np.where(
                absorb_wall[done], self._enclosure_index, cond[done]
            )
            # dist_e lives in self._h, which later stages reuse — move it out.
            dist_e = self._h2[:n]
            dist_e[:] = self._h[:n]
            self._retire_compact(
                done,
                dest,
                self._step_no[:n][done],
                truncated=False,
                extra=(dist_c, dist_e),
            )
            n = self._n
            if tm is not None:
                t0 = tm.lap("retire", t0)
            if n == 0:
                return t0, dist_c, dist_e
            dist_c = dist_c[:n]
            dist_e = dist_e[:n]
        elif tm is not None:
            t0 = tm.lap("bookkeeping", t0)
        return t0, dist_c, dist_e

    def _stage_rng(self, t0: float):
        """Hop draws for the surviving cohort.

        Most steps consume a ready ring plane (a zero-dispatch view); a
        drained ring is refilled for every live slot by one span pass —
        ``RNG_PREFETCH_DEPTH`` steps deep while the lattice is
        cache-resident, one step deep for wider vectors.
        """
        tm = self.timers
        n = self._n
        c = self._ring_cursor
        if c < self._ring_depth:
            self._ring_cursor = c + 1
            # (n, 3) transposed view: each draw-slot column is contiguous;
            # consuming a ready plane dispatches nothing.
            return t0, self._ring_v[c, :n]
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
        return t0, self._ring_v[0, :n]

    def _stage_sample(self, t0: float, u, dist_c, dist_e) -> None:
        """Transition sampling and position update for the cohort."""
        cfg = self.ctx.config
        tm = self.timers
        n = self._n
        pos = self._pos[:n]
        # allow = min(dist_c, dist_e, h_cap); dist_c is dead after this and
        # is reused as the destination buffer.
        allow = np.minimum(dist_c, dist_e, out=dist_c)
        np.minimum(allow, self.ctx.h_cap, out=allow)
        first = self._first[:n]

        if self._stack.is_homogeneous:
            h = allow
            snapped = None
        else:
            dist_i = self._stack.interface_distance(pos[:, 2])
            h = np.minimum(allow, dist_i, out=self._h2[:n])
            # First hops never snap: the hemisphere step has no unbiased
            # normal-gradient estimator across the interface, so the flux
            # weight must come from an interface-clamped cube (the context
            # guarantees launch points keep clearance from interfaces).
            on_iface = np.less(
                dist_i, cfg.interface_snap_fraction * allow, out=self._b0[:n]
            )
            on_iface &= np.logical_not(first, out=self._b1[:n])
            snapped = np.nonzero(on_iface)[0]

        # Every walk takes the cube hop over the full vector; the rows that
        # snapped onto an interface are then overwritten by their hemisphere
        # step.  Exact, because a cube hop has no side effects beyond its
        # own output row, and first hops (which store omega) never snap.
        floor = cfg.first_hop_interface_floor
        if self._have_first and floor > 0.0 and np.any(first):
            # First hops carry the 1/h flux weight: floor h near interfaces
            # (the cube then crosses the interface slightly — a small,
            # bounded bias instead of unbounded weight variance).
            h[first] = np.maximum(h[first], floor * allow[first])
        cells = self._table.sample_cells(u[:, 0])
        unit = self._table.unit_positions(cells, u[:, 1], u[:, 2])
        npos = self._pos_next[:n]
        np.subtract(pos, h[:, None], out=npos)
        h2 = np.multiply(2.0, h, out=self._h[:n])
        np.multiply(unit, h2[:, None], out=unit)
        np.add(npos, unit, out=npos)
        if snapped is not None and snapped.shape[0]:
            k = self._stack.nearest_interface(pos[snapped, 2])
            eps_below, eps_above = self._stack.interface_eps_pair(k)
            # Sphere radius: stay clear of conductors/walls (minus the snap
            # displacement) and of the other interfaces.
            r = np.minimum(
                allow[snapped] - dist_i[snapped],
                _other_interface_gap(self._interfaces, k),
            )
            r = np.maximum(r, 0.5 * self._tol[snapped])
            direction = interface_hemisphere_direction(
                u[snapped, 0], u[snapped, 1], u[snapped, 2], eps_below, eps_above
            )
            center = pos[snapped]
            center[:, 2] = self._stack.interface_z(k)
            npos[snapped] = center + r[:, None] * direction
        if tm is not None:
            t0 = tm.lap("sample", t0)
        if self._have_first:
            fc = np.nonzero(first)[0]
            if fc.shape[0]:
                ratio = self._table.grad_ratio[self._naxis[fc], cells[fc]]
                omega = (
                    -self._lane_flux[self._lane[fc]]
                    * self._eps[fc]
                    * self._nsign[fc]
                    * ratio
                    / (2.0 * h[fc])
                )
                self._store_omega(fc, omega)
            if tm is not None:
                t0 = tm.lap("bookkeeping", t0)

        # Commit: double-buffer swap, no copy.
        self._pos, self._pos_next = self._pos_next, self._pos
        if self._have_first:
            self._first[:n] = False
            self._have_first = False
        self._step_no[:n] += 1
        if self.trace is not None:
            self.trace.append((self._row[:n].copy(), self._pos[:n].copy()))
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


def _other_interface_gap(interfaces: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Distance from interface ``k`` to its nearest neighbouring interface."""
    if interfaces.shape[0] < 2:
        return np.full(np.asarray(k).shape, np.inf)
    gaps = np.diff(interfaces)
    below = np.where(k > 0, gaps[np.maximum(k - 1, 0)], np.inf)
    above = np.where(
        k < interfaces.shape[0] - 1,
        gaps[np.minimum(k, gaps.shape[0] - 1)],
        np.inf,
    )
    return np.minimum(below, above)
