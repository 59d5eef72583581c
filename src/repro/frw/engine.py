"""Vectorised floating-random-walk engine.

Executes batches of walks whose randomness comes entirely from per-walk
streams, so the results of a walk depend only on ``(seed, uid)`` — never
on batching, ordering, or the number of threads.  This is the property
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
same arena.  The step, the launch and the loop over them are compiled
(``repro/native/kernels.c``): ``launch`` writes new walks from their
Gaussian surface, ``locate`` queries and absorbs, ``retire`` banks and
compacts, and ``cube_hop`` moves every walk, the hemisphere step of
walks on a dielectric interface included, each over a
:class:`repro.native.Arena` descriptor of the slot arena.  ``launch`` and
``cube_hop`` compute the draws they consume, walk by walk, from the
slot's lane descriptor (:func:`lane_draws`): no draw is stored between
steps.  One ``advance`` call runs them, step after step, from one batch
boundary to the next; Python keeps the batch queue and the result
window, and steps in only to load the next queued batch, emit a
finished one, or record a trace frame.

Walks carry their own step counters, so the active set may mix walks from
several batches at different depths.  When walks absorb, their slots are
refilled with UIDs from the next queued batches instead of letting the
active set shrink to a ragged tail — the vector width stays near the batch
size for the whole run.  Completed-walk results are scatter-banked by
global row into a flat result window covering the outstanding batches (no
per-batch Python loops; its buffers are reused, batch after batch, so
loading and emitting a batch allocates only the emitted copy), so
checkpoint consumers still see exactly the
batch's UID set, in UID order, bit-identical to unpipelined execution
(per-walk arithmetic is elementwise and draws are keyed by ``(uid,
step)``, so co-scheduling never changes a walk's numbers — the slot a walk
occupies is invisible to its arithmetic).  A dropped batch launches no
further walk.

One vector may also carry walks of several masters ("lanes"): each slot
records its lane, launches use the lane's Gaussian surface, absorption
compares against the lane's tolerance, and the kernels draw each walk
from its lane's stream.
:func:`run_segments` runs a fixed list of ``(lane, uids)`` segments —
pieces of several masters' batches — through one such vector, so their
drain tails overlap; :func:`run_walks`, the historical batch API, is its
one-segment case.  Both use the calling thread's own vector, so repeated
runs share a warm arena.  An executor's workers each keep one long-lived
vector (:mod:`repro.frw.parallel`).

Per-stage costs (index / sample / retire / bookkeeping) can be measured by
passing a :class:`StageTimers` to the pipeline, which the compiled loop
times in C; the engine benchmark reports the breakdown.
"""

from __future__ import annotations

import ctypes
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .. import native
from ..errors import ConfigError, ConvergenceError
from ..rng import MirroredDraws, MTWalkStreams, WalkStreams
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


@dataclass
class StageTimers:
    """Accumulated wall time *and dispatch counts* of the engine's stages.

    ``index`` — the ``locate`` kernel: grid query (cell lookup,
    far-field mask and candidate scan), enclosure distance and the
    absorption test; ``sample`` — the ``launch`` kernel (step-0 draws,
    surface point, layer permittivity and slot writes) and the
    ``cube_hop`` kernel (the step's draws, position update, first-hop
    weights and the hemisphere step of snapped walks included);
    ``retire`` — result banking and slot compaction of absorbed or
    over-cap walks; ``bookkeeping`` — the compiled loop's over-cap scan.
    The loop reads the clock between its kernel calls, so the Python
    between ``advance`` calls (loading a batch, emitting one) is charged
    to no stage.  ``rng`` (the former draw stage, now inside ``sample``)
    and ``index_fast`` (the far-field split of the former NumPy query)
    always read 0: they stay only because the frozen benchmark harness
    reads them, and go with its next change.

    ``counts[stage]`` counts the kernel calls charged to the stage, so a
    stage's fixed per-call overhead is measurable separately from its
    seconds.
    """

    rng: float = 0.0
    index_fast: float = 0.0
    index: float = 0.0
    sample: float = 0.0
    retire: float = 0.0
    bookkeeping: float = 0.0
    steps: int = 0
    counts: dict = field(default_factory=dict)

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


class _Window:
    """Parallel grow-only 1-D buffers (one per dtype) holding a window
    ``[head, tail)`` of entries, added at the tail and consumed from the
    head.  When an addition would pass the end, the live entries move
    back to index 0, and the buffers grow to 1.25 times the window if it
    would fill more than four fifths of them: a steady stream of
    additions and consumptions allocates nothing, and the buffers stay
    within a quarter of the largest window (the resident set with
    them)."""

    __slots__ = ("arrays", "head", "tail", "_bases")

    def __init__(self, *dtypes):
        self.arrays = [np.empty(0, dtype=dt) for dt in dtypes]
        self.head = self.tail = 0
        # No buffer yet: the kernels read a window only once it holds a
        # batch, and the first addition allocates.
        self._bases = [0] * len(dtypes)

    def add(self, n: int) -> int:
        """Room for ``n`` entries at the tail; returns the first one's
        index (its contents are the caller's to set)."""
        if self.tail + n > self.arrays[0].shape[0]:
            live = self.tail - self.head
            size = max(self.arrays[0].shape[0], (live + n) * 5 // 4)
            for k, a in enumerate(self.arrays):
                b = a if size == a.shape[0] else np.empty(size, dtype=a.dtype)
                b[:live] = a[self.head : self.tail]  # overlap-safe
                self.arrays[k] = b
            self.head, self.tail = 0, live
            self._bases = [native.address(a) for a in self.arrays]
        start = self.tail
        self.tail += n
        return start

    def consume(self, n: int) -> None:
        """Drop the ``n`` entries at the head."""
        self.head += n
        if self.head == self.tail:
            self.head = self.tail = 0

    def clear(self) -> None:
        """Drop every entry."""
        self.head = self.tail = 0

    def views(self) -> list[np.ndarray]:
        """The live entries of every buffer (views)."""
        return [a[self.head : self.tail] for a in self.arrays]

    def pointers(self) -> list[int]:
        """Every buffer's address of its head entry (all items are 8
        bytes)."""
        return [base + 8 * self.head for base in self._bases]


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
    ``MTWalkStreams``, see :func:`lane_draws`), named by a caller's key.
    Lanes differ only in their launch surface, flux scale, absorption
    tolerance and streams; they must share the structure, the ``index``
    and ``table`` objects, ``h_cap`` and the step settings
    (:class:`~repro.errors.ConfigError` otherwise).  A walk's numbers
    depend only on its own lane and ``(uid, step)``, so mixing lanes never
    changes a value.  Once no batch is live the vector goes idle: it
    forgets its lanes and width, and the next :meth:`submit` starts it
    afresh on that call's context and ``width``.  The arena arrays are
    kept (grown, never shrunk), so a long-lived vector stays warm.

    Attributes
    ----------
    timers:
        Optional :class:`StageTimers` accumulating per-stage wall time.
    trace:
        When a list, the positions of all active walks are appended after
        each round of launches and each hop as ``(global_rows,
        positions)`` tuples, a walk's global row being its launch index
        since the vector last went idle — its row in the batch for a
        single-batch run (small runs only; used by the scalar reference
        and Fig. 2).  Frame-internal order is unspecified — consumers map
        rows by value.
    width_profile:
        The vector's steps and walk-steps by live width, over its life.

    A walk's draws are computed where they are consumed: ``launch``
    computes step 0's, ``cube_hop`` step ``step_no``'s, from the lane's
    row of ``_lane_draws``.  A Philox draw is a pure function of ``(key,
    uid, step, slot)``, so it needs no stored state; an MT lane's walks
    keep their MT19937 states in the arena (``_mt``, allocated only for a
    vector with an MT lane), and compaction carries each state's index
    (``_mt_slot``) with its walk.
    """

    def __init__(
        self, timers: StageTimers | None = None, trace: list | None = None
    ):
        self.timers = timers
        self.trace = trace
        self._capacity = 0
        self._mt = self._mt_slot = None
        # The compiled loop's view of the arena: slot pointers are set by
        # _grow_arena, the walk space and result window by _start, the
        # window, run and lane fields again whenever those arrays change.
        # An idle vector's descriptor may point at freed arrays; no kernel
        # runs before _start.
        self._arena = native.Arena()
        self._arena_ref = ctypes.byref(self._arena)
        # The result window over the launched, unemitted batches: per
        # global row (omega, dest, steps) and per batch (start row,
        # remaining walks, truncated walks).  Each walk banks its outcome
        # by *global row* — a scatter write, no per-batch grouping loops.
        self._rows = _Window(np.float64, np.int64, np.int64)
        self._batches = _Window(np.int64, np.int64, np.int64)
        self._reset()

    def _reset(self) -> None:
        """Go idle: forget the lanes, the queue and the result window (the
        arena arrays stay for the next batches)."""
        self.ctx = self._index = None
        self.width = 0
        self._keys: dict = {}  # caller's key -> lane
        self._surfaces: tuple = ()
        # Per lane: its launch surface's address and its absorption
        # tolerance, the run fields ``_load_run`` sets.
        self._lane_run: list[tuple[int, float]] = []
        self._lane_flux = np.empty(0, dtype=np.float64)
        self._lane_draws = np.empty((0, 3), dtype=np.uint64)
        self.live: dict = {}  # seq -> walks, until emitted or dropped
        self._queue: deque = deque()  # (seq, lane, uids) not yet launching

        # The batch the arena's run points into, kept alive here.
        self._run = None
        a = self._arena
        a.run_n = a.run_off = a.queued = a.refilled = 0

        # The result window's batches (its buffers stay allocated).
        self._win_seqs: list = []
        self._win_uids: list[np.ndarray] = []
        self._rows.clear()
        self._batches.clear()
        self._win_base_g = 0  # global row of the window's first slot
        self._next_g = 0  # next global row to assign

        # Active walks occupy the arena prefix [0, n); the rest is free.
        a.n = 0

    def _start(self, ctx: ExtractionContext, width: int) -> None:
        """Start an idle vector on ``ctx``'s structure, ``width`` walks wide."""
        self.ctx = ctx
        self.width = max(1, int(width))
        stack = ctx.structure.dielectric
        self._index = ctx.index
        self._grow_arena(self.width)
        cfg = ctx.config
        enc = ctx.structure.enclosure
        a = self._arena
        # Held here, not only by the index and the table: two vectors
        # starting at once on worker threads may each build a descriptor,
        # and the arena keeps only their addresses.
        self._descriptors = (ctx.index.descriptor(), ctx.table._native)
        a.grid = ctypes.addressof(self._descriptors[0])
        a.table = ctypes.addressof(self._descriptors[1])
        a.interfaces = native.address(stack._z)
        a.n_interfaces = stack._z.shape[0]  # 0 for homogeneous
        a.layer_eps = native.address(stack._eps)
        a.enc_lo[:] = [float(v) for v in enc.lo]
        a.enc_hi[:] = [float(v) for v in enc.hi]
        a.enc_index = ctx.enclosure_index
        a.h_cap = ctx.h_cap
        a.snap_fraction = cfg.interface_snap_fraction
        a.first_floor = cfg.first_hop_interface_floor
        a.width = self.width
        a.max_steps = cfg.max_steps
        self._point_window()

    def _grow_arena(self, capacity: int) -> None:
        """Grow the slot arena and the step scratch to ``capacity`` slots
        and point the arena descriptor at them.

        Every array is reused for every step, so steady-state steps
        allocate no walk state."""
        if capacity <= self._capacity:
            return
        self._capacity = capacity
        self._uid = np.empty(capacity, dtype=np.uint64)
        # The slot's lane (master) and that lane's absorption tolerance.
        self._lane = np.empty(capacity, dtype=np.int64)
        self._tol = np.empty(capacity, dtype=np.float64)
        self._grow = np.empty(capacity, dtype=np.int64)
        # uint64: the kernels' ``step_no`` is the Philox counter's step.
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
        a = self._arena
        for name in (
            "uid", "lane", "tol", "grow", "step_no", "pos", "eps", "first",
            "naxis", "nsign", "dist", "dist_e", "done", "dest",
        ):
            setattr(a, name, native.address(getattr(self, "_" + name)))
        a.capacity = capacity
        # MT states are allocated at this width by the first MT lane.
        self._mt = self._mt_slot = a.mt = a.mt_slot = None

    def _grow_mt(self) -> None:
        """Allocate the arena's per-slot MT19937 states (~2.5 KB a slot)
        for a vector that has an MT lane."""
        if self._mt is not None:
            return
        self._mt = np.empty((self._capacity, native.MT_WORDS), dtype=np.uint32)
        # Slot i's state is _mt[_mt_slot[i]]: a permutation, swapped along
        # with the walks by compaction.
        self._mt_slot = np.arange(self._capacity, dtype=np.int64)
        self._arena.mt = native.address(self._mt)
        self._arena.mt_slot = native.address(self._mt_slot)

    def _point_window(self) -> None:
        """Point the arena descriptor at the current result window."""
        a = self._arena
        a.res_omega, a.res_dest, a.res_steps = self._rows.pointers()
        batches = self._batches
        a.win_starts, a.win_remaining, a.win_truncated = batches.pointers()
        a.n_win = batches.tail - batches.head
        a.win_base_g = self._win_base_g

    # The result window's live entries, as views: per row from
    # ``_win_base_g`` and per batch from the front one.
    _res_omega = property(lambda self: self._rows.views()[0])
    _res_dest = property(lambda self: self._rows.views()[1])
    _res_steps = property(lambda self: self._rows.views()[2])
    _win_starts = property(lambda self: self._batches.views()[0])
    _win_remaining = property(lambda self: self._batches.views()[1])
    _win_truncated = property(lambda self: self._batches.views()[2])

    @property
    def width_profile(self) -> np.ndarray:
        """The vector's steps by live width, over its life: row ``b`` of
        the ``(WIDTH_BUCKETS, 2)`` int64 array holds the steps that began
        with ``2**b`` to ``2**(b + 1) - 1`` live walks and the walk-steps
        they took (each walk's step count is the number of steps it began
        live in)."""
        a = self._arena
        return np.array([a.width_steps, a.width_walks], dtype=np.int64).T

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
            # Read once: vectors starting at once on worker threads may
            # each build the surface's descriptor, and the arena keeps
            # only the address of the one held here.
            surface = ctx.surface._native
            lane = self._keys[key] = len(self._surfaces)
            self._surfaces += (surface,)
            self._lane_run.append(
                (ctypes.addressof(surface), float(ctx.absorb_tol))
            )
            self._lane_flux = np.append(self._lane_flux, ctx.flux_scale)
            self._arena.lane_flux = native.address(self._lane_flux)
            draws = lane_draws(streams)
            self._lane_draws = np.concatenate(
                [self._lane_draws, np.array([draws], dtype=np.uint64)]
            )
            self._arena.lane_draws = native.address(self._lane_draws)
            if draws[0] & native.DRAW_MT:
                self._grow_mt()
        uids = np.ascontiguousarray(uids, dtype=np.uint64)
        self._queue.append((seq, lane, uids))
        self._arena.queued = 1
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
            a = self._arena
            unlaunched = a.run_n - a.run_off
            a.run_off = a.run_n
            self._batches.arrays[1][self._batches.tail - 1] -= unlaunched
        else:
            unlaunched = 0
        if not self.live:
            self._reset()
        return unlaunched

    def _load_run(self) -> None:
        """Make the next live queued batch the run of UIDs to launch: its
        rows join the result window.  Batches dropped while queued are
        skipped."""
        a = self._arena
        while self._queue:
            seq, lane, uids = self._queue.popleft()
            if seq not in self.live:  # dropped while queued
                continue
            n = uids.shape[0]
            self._win_seqs.append(seq)
            self._win_uids.append(uids)
            b = self._batches.add(1)
            starts, remaining, truncated = self._batches.arrays
            starts[b], remaining[b], truncated[b] = self._next_g, n, 0
            # The kernels write every row of a batch before it is emitted:
            # omega at the walk's first hop (a walk absorbed before it
            # stops the run), dest and steps when it retires.
            self._rows.add(n)
            self._run = uids
            a.run = native.address(uids)
            a.run_n, a.run_off, a.run_lane = n, 0, lane
            a.run_row = self._next_g
            a.run_surface, a.run_tol = self._lane_run[lane]
            self._next_g += n
            self._point_window()
            break
        a.queued = 1 if self._queue else 0

    # ------------------------------------------------------------------
    # The vector loop
    # ------------------------------------------------------------------
    def _advance(self) -> int:
        """One compiled ``advance`` call, which launches, steps and retires
        walks until the front batch is done or it needs Python (see
        :data:`~repro.native.ADVANCE_FRONT` and the others).  Its counts
        go to the index's query stats and the timers, and a trace frame,
        ``(global_rows, positions)`` of the live walks, to ``trace``.
        Returns what the call stopped at."""
        a = self._arena
        tm = self.timers
        a.trace = self.trace is not None
        a.timed = tm is not None
        status = native.library().advance(self._arena_ref)
        if a.locates:
            self._index.count_query(a.points, a.near, a.visited, a.locates)
        if tm is not None:
            tm.steps += a.steps
            for stage, ns, calls in zip(
                native.ADVANCE_STAGES, a.stage_ns, a.stage_calls
            ):
                if calls:
                    setattr(tm, stage, getattr(tm, stage) + ns * 1e-9)
                    tm.counts[stage] = tm.counts.get(stage, 0) + calls
        if status == native.ADVANCE_FRAME:
            n = a.n
            self.trace.append((self._grow[:n].copy(), self._pos[:n].copy()))
        return status

    # ------------------------------------------------------------------
    # Batch emission
    # ------------------------------------------------------------------
    def _emit_front(self) -> tuple:
        """Slice the completed oldest batch out of the result window:
        ``(seq, results)``."""
        seq = self._win_seqs.pop(0)
        uids = self._win_uids.pop(0)
        n0 = uids.shape[0]
        lo = self._rows.head
        omega, dest, steps = self._rows.arrays
        res = WalkResults(
            uids=uids,
            omega=omega[lo : lo + n0].copy(),
            dest=dest[lo : lo + n0].copy(),
            steps=steps[lo : lo + n0].copy(),
            truncated=int(self._batches.arrays[2][self._batches.head]),
        )
        self._rows.consume(n0)
        self._batches.consume(1)
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
            status = self._advance()
            if status == native.ADVANCE_RUN:
                self._load_run()
            elif status == native.ADVANCE_EARLY:
                raise ConvergenceError(
                    "walk absorbed before its first hop; the Gaussian surface "
                    "offset is smaller than the absorption tolerance"
                )
            elif status == native.ADVANCE_FRONT:
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


def lane_draws(streams) -> tuple[int, int, int]:
    """The draw descriptor ``(kind, key0, key1)`` of a lane's stream
    provider (``lane_draw_t`` in ``kernels.c``): a
    :class:`~repro.rng.WalkStreams` gives its Philox key, a
    :class:`~repro.rng.MirroredDraws` view over one adds
    :data:`~repro.native.DRAW_MIRRORED`, and an
    :class:`~repro.rng.MTWalkStreams` gives :data:`~repro.native.DRAW_MT`
    and its base.  Any other provider raises
    :class:`~repro.errors.ConfigError`: the kernels draw nothing else."""
    if isinstance(streams, MTWalkStreams):
        return native.DRAW_MT, streams.base, 0
    if isinstance(streams, MirroredDraws) and isinstance(
        streams.base, WalkStreams
    ):
        return native.DRAW_MIRRORED, *streams.base.key
    if isinstance(streams, WalkStreams):
        return 0, *streams.key
    raise ConfigError(f"the walk engine cannot draw from {streams!r}")


def _shares_walk_space(a: ExtractionContext, b: ExtractionContext) -> bool:
    """Whether two masters' walks may share one vector: every per-step
    input other than the launch surface, the flux scale and the absorption
    tolerance (which :class:`WalkPipeline` keeps per lane) must agree.
    The index and the table must be the same objects: one solver's
    contexts share both."""
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

