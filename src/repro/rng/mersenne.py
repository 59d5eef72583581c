"""Mersenne-Twister-backed walk streams (the paper's FRW-NC ablation).

Sec. III-C argues Mersenne Twister is a poor fit for fine-grained reseeding:
seeding its 624-word state per walk is expensive and its 2^19937 period is
wasted.  This adapter exposes the same :class:`~repro.rng.WalkStreams`
interface but pays exactly that cost — one full MT initialisation per walk —
so the FRW-NC variant and the Fig. 5 CBRNG-vs-MT comparison can be run
faithfully.

Determinism: each walk UID seeds its own private MT stream, so results remain
DOP-independent (the paper notes "simply changing PRNGs does not affect
reproducibility"); only the efficiency differs.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import RNGError
from .counter_stream import MAX_DRAWS_PER_STEP, MAX_PREFETCH_STEPS
from .philox import splitmix64

_MASK32 = 0xFFFFFFFF

#: Default bound on live per-walk ``RandomState`` objects.  Each MT state is
#: ~2.5 KB (624 words + object overhead); the bound must exceed the number
#: of *concurrently active* walks (≈ ``batch_size``, default 10 000) so the
#: steady state never evicts, while capping worst-case cache memory at
#: ~40 MB even on code paths that never call :meth:`MTWalkStreams.release`.
DEFAULT_MAX_LIVE = 16_384


class MTWalkStreams:
    """Per-walk Mersenne Twister streams with per-walk (re)seeding.

    Draws for a given walk must be requested in non-decreasing ``step``
    order, which the walk engine guarantees; each walk stream hands out its
    uniforms sequentially.  An LRU cache (bounded by ``max_live``) keeps
    generators alive between steps; the engine drops finished walks eagerly
    via :meth:`release`, and any stream evicted while still active is
    revived *bit-identically* by reseeding and fast-forwarding past the
    draws it already handed out, so the cache bound is a pure
    memory/latency trade-off and never affects sample values.
    """

    def __init__(self, seed: int, stream: int = 0, max_live: int = DEFAULT_MAX_LIVE):
        if max_live < 1:
            raise RNGError(f"max_live must be >= 1, got {max_live}")
        self.seed = int(seed)
        self.stream = int(stream)
        self.max_live = int(max_live)
        self._base = splitmix64(splitmix64(seed) ^ splitmix64(stream))
        self._states: OrderedDict[int, np.random.RandomState] = OrderedDict()
        # Draws already handed out per uid — kept past eviction (it is the
        # replay cursor) and dropped only on release()/reset().
        self._consumed: dict[int, int] = {}

    def _state_for(self, uid: int) -> np.random.RandomState:
        state = self._states.get(uid)
        if state is None:
            walk_seed = splitmix64(self._base ^ splitmix64(uid)) & _MASK32
            state = np.random.RandomState(walk_seed)
            consumed = self._consumed.get(uid, 0)
            if consumed:
                # Revival after eviction: skip what the walk already saw.
                state.random_sample(consumed)
            self._states[uid] = state
            while len(self._states) > self.max_live:
                self._states.popitem(last=False)
        else:
            self._states.move_to_end(uid)
        return state

    def draws(
        self,
        uids: np.ndarray,
        step: int | np.ndarray,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``(len(uids), count)`` uniforms; the depth-1 view of
        :meth:`draws_span`."""
        span_out = None if out is None else out[None]
        return self.draws_span(uids, step, 1, count, out=span_out)[0]

    def draws_span(
        self,
        uids: np.ndarray,
        steps: int | np.ndarray,
        depth: int,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Return ``(depth, len(uids), count)`` uniforms; loops per walk by
        design.

        Each walk hands out its next ``depth * count`` uniforms, plane
        ``k`` taking the ``k``-th ``count`` of them — the same per-walk
        sequence ``depth`` consecutive one-step calls produce, so the
        engine's prefetch ring cannot change a value.  ``steps`` is
        accepted for protocol compatibility and ignored: the stream is
        sequential, and the engine requests each walk's steps in order.
        The per-walk Python loop and per-walk MT construction are the very
        overheads the paper measures (~2x total runtime); keeping them
        makes the FRW-NC ablation honest rather than an artificially
        slowed stub.
        """
        if count < 1 or count > MAX_DRAWS_PER_STEP:
            raise RNGError(
                f"count must be in [1, {MAX_DRAWS_PER_STEP}], got {count}"
            )
        if depth < 1 or depth > MAX_PREFETCH_STEPS:
            raise RNGError(
                f"depth must be in [1, {MAX_PREFETCH_STEPS}], got {depth}"
            )
        uids = np.asarray(uids, dtype=np.uint64)
        n = uids.shape[0]
        if out is None:
            out = np.empty((depth, n, count), dtype=np.float64)
        total = depth * count
        for row, uid_raw in enumerate(uids):
            uid = int(uid_raw)
            values = self._state_for(uid).random_sample(total)
            out[:depth, row, :count] = values.reshape(depth, count)
            self._consumed[uid] = self._consumed.get(uid, 0) + total
        return out[:depth, :n, :count]

    def draws_scalar(self, uid: int, step: int, count: int) -> list[float]:
        """Scalar path, consistent with :meth:`draws_span` for a fresh
        stream."""
        uid = int(uid)
        values = list(self._state_for(uid).random_sample(count))
        self._consumed[uid] = self._consumed.get(uid, 0) + count
        return values

    def release(self, uids: np.ndarray) -> None:
        """Drop cached generators *and* replay cursors for finished walks."""
        for uid in np.asarray(uids, dtype=np.uint64):
            self._states.pop(int(uid), None)
            self._consumed.pop(int(uid), None)

    def reset(self) -> None:
        """Forget all cached walk states (fresh extraction)."""
        self._states.clear()
        self._consumed.clear()
