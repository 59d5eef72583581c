"""Draws for one walk vector that mixes several masters' streams.

The walk engine may run walks of several master conductors in one vector
("lanes"): lane ``l`` draws from its own provider, walk ``i`` belongs to
lane ``lane[i]``, and every walk's draws must equal what its own provider
gives it alone.  :class:`LaneDraws` serves such a vector:

* one lane calls its provider directly, with the scalar Philox key;
* counter-based lanes that differ only in their key (:class:`WalkStreams`,
  or :class:`MirroredDraws` over them) take one Philox pass with a key per
  walk column;
* anything else — the stateful MT ablation streams — is served one lane at
  a time; those providers loop per walk anyway.

All lane logic lives here because det-lint DET011 confines Philox calls to
``repro.rng``.
"""

from __future__ import annotations

import numpy as np

from .antithetic import MirroredDraws
from .counter_stream import WalkStreams


def _rekeyable(p, head) -> bool:
    """Whether ``p`` draws exactly as ``head`` would under ``p``'s key."""
    if isinstance(head, MirroredDraws):
        return isinstance(p, MirroredDraws) and _rekeyable(p.base, head.base)
    return type(head) is WalkStreams and type(p) is WalkStreams


class LaneDraws:
    """The stream providers of a vector's lanes, served as one provider.

    ``draws_span(lane, uids, steps, depth, count, out=)`` is the lane-aware
    form of the provider protocol: ``lane`` gives each walk's lane index.
    """

    def __init__(self, providers):
        self.providers = tuple(providers)
        head = self.providers[0]
        self._keys = None
        if len(self.providers) > 1 and all(
            _rekeyable(p, head) for p in self.providers
        ):
            # (2, lanes): row 0 holds every lane's k0, row 1 its k1.
            self._keys = np.array(
                [p.key for p in self.providers], dtype=np.uint64
            ).T.copy()
        self.releases = any(hasattr(p, "release") for p in self.providers)

    def draws_span(
        self,
        lane: np.ndarray,
        uids: np.ndarray,
        steps: int | np.ndarray,
        depth: int,
        count: int,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(depth, len(uids), count)`` uniforms; walk ``i`` draws from
        ``providers[lane[i]]``, bit-identical to that provider alone."""
        if len(self.providers) == 1:
            return self.providers[0].draws_span(uids, steps, depth, count, out=out)
        if self._keys is not None:
            k0, k1 = self._keys[:, lane]
            return self.providers[0].draws_span(
                uids, steps, depth, count, out=out, keys=(k0, k1)
            )
        n = uids.shape[0]
        if out is None:
            out = np.empty((depth, n, count), dtype=np.float64)
        steps = np.broadcast_to(np.asarray(steps, dtype=np.uint64), (n,))
        for index, provider in enumerate(self.providers):
            rows = np.flatnonzero(lane == index)
            if rows.shape[0]:
                out[:depth, rows, :count] = provider.draws_span(
                    uids[rows], steps[rows], depth, count
                )
        return out[:depth, :n, :count]

    def release(self, lane: np.ndarray, uids: np.ndarray) -> None:
        """Release finished walks in the providers that keep per-walk
        state (the MT ablation streams)."""
        for index, provider in enumerate(self.providers):
            if hasattr(provider, "release"):
                provider.release(uids[lane == index])
