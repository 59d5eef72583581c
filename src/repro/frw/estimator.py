"""Capacitance estimators: per-destination weight accumulators.

A walk from master ``i`` that ends on conductor ``k`` with weight ``omega``
is, simultaneously, a sample of *every* ``X_ij``: ``x_ij = omega * [k = j]``
(Sec. II-B).  The accumulator therefore keeps, per destination conductor,
the sum of weights and of squared weights plus a hit count; means divide by
the total walk count ``M`` and the variance of each mean follows Eq. (9).

The summation backend is pluggable (Kahan or naive) because the paper's
FRW-NK ablation differs from FRW-R exactly here.

**Antithetic (paired) accumulation.**  With ``paired=True`` the
accumulator switches to per-pair means: walks arrive in UID order as
aligned pairs ``(2k, 2k+1)`` of antithetically coupled partners, and what
enters the sum/sum-of-squares registers is each pair's *mean* weight
vector, not the raw per-walk weights.  The mean estimate is algebraically
unchanged (mean of complete pair means == raw mean), but the variance
must be computed over pair means: the two walks of a pair are deliberately
anticorrelated, so the raw per-walk sample variance over-counts the
information and Eq. (9) applied to it would be *biased* (it would report
the variance an independent sample of the same size would have, hiding the
antithetic gain from the stopping rule — and from Alg. 3's regularizer).
Treating each pair mean as one i.i.d. observation (they are: disjoint UID
blocks, independent Philox words) restores the textbook unbiased variance
of the mean with ``m = number of pairs``; this is the merged mean/variance
algebra of Healy (PAPERS.md) applied at pair granularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..numerics.summation import KahanVector, NaiveVector


@dataclass(frozen=True)
class CapacitanceRow:
    """One extracted row of the Maxwell capacitance matrix.

    ``values[j]`` estimates ``C_master,j`` in fF; ``sigma2[j]`` is the
    Eq. (9) variance of that mean; ``hits[j]`` counts absorbed walks.
    """

    master: int
    values: np.ndarray
    sigma2: np.ndarray
    hits: np.ndarray
    walks: int
    total_steps: int

    @property
    def self_capacitance(self) -> float:
        """The diagonal entry C_ii."""
        return float(self.values[self.master])

    @property
    def self_relative_error(self) -> float:
        """Relative standard error of C_ii (the paper's stopping metric)."""
        c = self.values[self.master]
        if c == 0.0:
            return math.inf
        return math.sqrt(max(self.sigma2[self.master], 0.0)) / abs(c)


class RowAccumulator:
    """Streaming accumulator for one master conductor's row.

    With ``paired=True`` the sum registers hold sums of *pair means*
    (see the module docstring); ``walks`` always counts raw walks, and
    sample counts for mean/variance use ``walks // 2`` complete pairs.
    Paired accumulation happens only through :meth:`add_batch`; the
    per-walk paths refuse to run paired so the two bookkeeping schemes can
    never silently mix.
    """

    def __init__(
        self,
        n_conductors: int,
        master: int,
        summation: str = "kahan",
        paired: bool = False,
    ):
        vector_cls = KahanVector if summation == "kahan" else NaiveVector
        self.master = master
        self.n_conductors = n_conductors
        self.summation = summation
        self.paired = bool(paired)
        self.sum_w = vector_cls(n_conductors)
        self.sum_w2 = vector_cls(n_conductors)
        self.hits = np.zeros(n_conductors, dtype=np.int64)
        self.walks = 0
        self.total_steps = 0

    def spawn(self) -> "RowAccumulator":
        """A fresh accumulator with the same configuration (thread-local)."""
        return RowAccumulator(
            self.n_conductors, self.master, self.summation, self.paired
        )

    def _require_unpaired(self, caller: str) -> None:
        if self.paired:
            raise ConfigError(
                f"{caller} accumulates raw per-walk weights; a paired "
                "accumulator must use add_batch so sum registers "
                "stay in pair-mean units"
            )

    def add_walk(self, omega: float, dest: int, steps: int = 0) -> None:
        """Accumulate a single walk (scalar hot path of the simulator)."""
        self._require_unpaired("add_walk")
        self.sum_w.add_at(dest, omega)
        self.sum_w2.add_at(dest, omega * omega)
        self.hits[dest] += 1
        self.walks += 1
        self.total_steps += steps

    def add_walks_ordered(
        self, omega: np.ndarray, dest: np.ndarray, steps: np.ndarray | None = None
    ) -> None:
        """Accumulate walks in the given array order, vectorised.

        Bit-identical to calling :meth:`add_walk` once per element in array
        order (per-destination slots are independent, so the summation
        backends replay each slot's subsequence sequentially), but without
        the per-walk Python call overhead.  This is the hot path of the
        virtual-thread merge replay.
        """
        self._require_unpaired("add_walks_ordered")
        omega = np.asarray(omega, dtype=np.float64)
        dest = np.asarray(dest, dtype=np.int64)
        self._check_batch(omega, dest)
        self.sum_w.add_ordered(dest, omega)
        self.sum_w2.add_ordered(dest, omega * omega)
        np.add.at(self.hits, dest, 1)
        self.walks += int(dest.shape[0])
        if steps is not None:
            self.total_steps += int(np.sum(steps))

    def add_batch(
        self, omega: np.ndarray, dest: np.ndarray, steps: np.ndarray | None = None
    ) -> None:
        """Accumulate a UID-ordered batch, one observation per sample.

        Walks form samples of ``g`` consecutive walks: ``g = 2`` when
        paired (elements ``2k`` and ``2k + 1`` are the partners of pair
        ``k``), else ``g = 1``.  Each sample's mean weight vector enters
        the compensated accumulators once; ``hits``/``walks``/
        ``total_steps`` keep raw per-walk counts.  Partial sums are formed
        over the input order, so the result depends only on the UID
        order — not the schedule that produced the batch.
        """
        g = 2 if self.paired else 1
        omega = np.asarray(omega, dtype=np.float64)
        dest = np.asarray(dest, dtype=np.int64)
        self._check_batch(omega, dest)
        n = dest.shape[0]
        if n % g != 0:
            raise ConfigError(f"add_batch needs whole pairs: {n} walks is odd")
        gm = np.zeros((n // g, self.n_conductors), dtype=np.float64)
        np.add.at(gm, (np.arange(n, dtype=np.int64) // g, dest), omega)
        gm /= g
        self.sum_w.add(gm.sum(axis=0))
        self.sum_w2.add((gm * gm).sum(axis=0))
        np.add.at(self.hits, dest, 1)
        self.walks += int(n)
        if steps is not None:
            self.total_steps += int(np.sum(steps))

    def merge(self, other: "RowAccumulator") -> None:
        """Absorb another accumulator (e.g. a thread-local partial).

        Both sides must agree on the full accumulator configuration —
        summation mode, conductor count, master, and pairing.  Mixing
        (say) a Kahan global with a naive partial, or raw-walk sums with
        pair-mean sums, would silently corrupt the registers; it now
        raises :class:`~repro.errors.ConfigError` instead.
        """
        if not isinstance(other, RowAccumulator):
            raise ConfigError(
                f"merge expects a RowAccumulator, got {type(other).__name__}"
            )
        if other.summation != self.summation:
            raise ConfigError(
                f"merge: summation mode mismatch ({self.summation!r} vs "
                f"{other.summation!r})"
            )
        if other.n_conductors != self.n_conductors:
            raise ConfigError(
                f"merge: conductor count mismatch ({self.n_conductors} vs "
                f"{other.n_conductors})"
            )
        if other.master != self.master:
            raise ConfigError(
                f"merge: master mismatch ({self.master} vs {other.master})"
            )
        if other.paired != self.paired:
            raise ConfigError(
                f"merge: pairing mismatch ({self.paired} vs {other.paired})"
            )
        self.sum_w.merge(other.sum_w)
        self.sum_w2.merge(other.sum_w2)
        self.hits += other.hits
        self.walks += other.walks
        self.total_steps += other.total_steps

    def _check_batch(self, omega: np.ndarray, dest: np.ndarray) -> None:
        if omega.shape[0] != dest.shape[0]:
            raise ConfigError(
                f"omega/dest length mismatch: {omega.shape[0]} vs "
                f"{dest.shape[0]}"
            )
        if dest.shape[0] and (
            int(dest.min()) < 0 or int(dest.max()) >= self.n_conductors
        ):
            raise ConfigError(
                f"dest indices out of range for {self.n_conductors} "
                "conductors"
            )

    @property
    def samples(self) -> int:
        """Independent observations held: pairs if paired, else walks."""
        return self.walks // 2 if self.paired else self.walks

    def row(self) -> CapacitanceRow:
        """Current estimates as a :class:`CapacitanceRow`.

        Paired accumulators divide by the pair count (the registers
        hold pair-mean sums — the resulting mean equals the raw walk
        mean) and report the unbiased variance *of the pair means*,
        which is what the stopping rule and Alg. 3 must consume under
        antithetic coupling.
        """
        m = self.samples
        sum_w = self.sum_w.value
        sum_w2 = self.sum_w2.value
        if m == 0:
            values = np.zeros(self.n_conductors)
            sigma2 = np.full(self.n_conductors, np.inf)
        else:
            values = sum_w / m
            if m < 2:
                sigma2 = np.full(self.n_conductors, np.inf)
            else:
                ss = np.maximum(sum_w2 - m * values * values, 0.0)
                sigma2 = ss / (m * (m - 1))
        return CapacitanceRow(
            master=self.master,
            values=values,
            sigma2=sigma2,
            hits=self.hits.copy(),
            walks=self.walks,
            total_steps=self.total_steps,
        )

    @property
    def self_relative_error(self) -> float:
        """Relative standard error of the diagonal entry (the stopping
        metric), from the one variance formula in :meth:`row`."""
        return self.row().self_relative_error
