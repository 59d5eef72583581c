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

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from .. import native
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
        i = self.master
        return _relative_error(self.values[i], self.sigma2[i])


class RowAccumulator:
    """Streaming accumulator for one master conductor's row.

    With ``paired=True`` the sum registers hold sums of *pair means*
    (see the module docstring); ``walks`` always counts raw walks, and
    sample counts for mean/variance use ``walks // 2`` complete pairs.
    Paired accumulation happens only through :meth:`add_batch`; the
    per-walk paths refuse to run paired so the two bookkeeping schemes can
    never silently mix.

    Both batch paths are one compiled fold (``fold_batch`` in
    ``repro/native/kernels.c``) over the registers; the scalar
    :meth:`add_walk` is its reference.
    """

    def __init__(
        self,
        n_conductors: int,
        master: int,
        summation: str = "kahan",
        paired: bool = False,
    ):
        kahan = summation == "kahan"
        vector_cls = KahanVector if kahan else NaiveVector
        self.master = master
        self.n_conductors = n_conductors
        self.summation = summation
        self.paired = bool(paired)
        self.sum_w = vector_cls(n_conductors)
        self.sum_w2 = vector_cls(n_conductors)
        self.hits = np.zeros(n_conductors, dtype=np.int64)
        # The fold's fresh registers and column sums, zero between folds.
        self._scratch = np.zeros((4, n_conductors), dtype=np.float64)
        self._row = native.Row(
            native.address(self.sum_w.total),
            native.address(self.sum_w.compensation) if kahan else None,
            native.address(self.sum_w2.total),
            native.address(self.sum_w2.compensation) if kahan else None,
            native.address(self.hits),
            native.address(self._scratch),
            n_conductors,
        )
        self._row_ref = ctypes.byref(self._row)

    @property
    def walks(self) -> int:
        """Raw walks accumulated."""
        return self._row.walks

    @property
    def total_steps(self) -> int:
        """Steps of the accumulated walks."""
        return self._row.total_steps

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
        """Accumulate a single walk (the scalar reference of the fold)."""
        self._require_unpaired("add_walk")
        self.sum_w.add_at(dest, omega)
        self.sum_w2.add_at(dest, omega * omega)
        self.hits[dest] += 1
        self._row.walks += 1
        self._row.total_steps += steps

    def add_walks_ordered(
        self,
        omega: np.ndarray,
        dest: np.ndarray,
        steps: np.ndarray | None = None,
        order: np.ndarray | None = None,
        bounds: np.ndarray | None = None,
    ) -> None:
        """Accumulate walks one by one, in ``order`` (a permutation of the
        batch; default: array order).

        Bit-identical to calling :meth:`add_walk` once per walk in that
        order.  With ``bounds`` (``0 = bounds[0] <= ... <= bounds[-1] =
        len(omega)``), the walks ``order[bounds[t]:bounds[t + 1]]`` of each
        virtual thread ``t`` go into fresh registers that are then merged
        in, in thread order: the virtual-thread replay, bit-identical to
        :meth:`spawn`, per-walk adds and :meth:`merge` per thread.
        """
        self._require_unpaired("add_walks_ordered")
        self._fold(omega, dest, steps, 0, order, bounds)

    def add_batch(
        self, omega: np.ndarray, dest: np.ndarray, steps: np.ndarray | None = None
    ) -> None:
        """Accumulate a UID-ordered batch, one observation per sample.

        Walks form samples of ``g`` consecutive walks: ``g = 2`` when
        paired (elements ``2k`` and ``2k + 1`` are the partners of pair
        ``k``), else ``g = 1``.  Each sample's mean weight vector enters
        per-conductor column sums, in sample order from 0.0, and each
        column then enters the compensated registers once;
        ``hits``/``walks``/``total_steps`` keep raw per-walk counts.  The
        result depends only on the UID order — not the schedule that
        produced the batch.
        """
        g = 2 if self.paired else 1
        n = len(omega)
        if n % g != 0:
            raise ConfigError(f"add_batch needs whole pairs: {n} walks is odd")
        self._fold(omega, dest, steps, g)

    def _fold(self, omega, dest, steps, group, order=None, bounds=None):
        """Validate a batch and fold it in with ``fold_batch``: one mean
        per sample of ``group`` walks, or with ``group`` 0 walk by walk."""
        omega = np.ascontiguousarray(omega, dtype=np.float64)
        n = omega.shape[0]
        dest, dest_p = _int64s(dest, n, "dest")
        steps, steps_p = _int64s(steps, n, "steps")
        order, order_p = _int64s(order, n, "order")
        bounds, bounds_p = _int64s(bounds, None, "bounds")
        status = native.library().fold_batch(
            self._row_ref,
            n,
            native.address(omega),
            dest_p,
            steps_p,
            group,
            order_p,
            bounds_p,
            0 if bounds is None else bounds.shape[0] - 1,
        )
        if status == -1:
            raise ConfigError(
                f"dest indices out of range for {self.n_conductors} "
                "conductors"
            )
        if status == -2:
            raise ConfigError("walk order or thread bounds out of range")

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
        self._row.walks += other.walks
        self._row.total_steps += other.total_steps

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
        metric): the master's entry of :meth:`row` bit for bit, in the
        same operations on its registers' floats, without building the
        row."""
        m = self.samples
        i = self.master
        s1, s2 = self.sum_w.value_at(i), self.sum_w2.value_at(i)
        value = s1 / m if m else 0.0
        if m < 2:
            return _relative_error(value, math.inf)
        ss = s2 - m * value * value
        ss = ss if ss > 0.0 or ss != ss else 0.0  # np.maximum(ss, 0.0)
        return _relative_error(value, ss / (m * (m - 1)))


def _int64s(a, n: int | None, name: str):
    """``a`` as a contiguous int64 array, checked to hold ``n`` entries
    (any number for ``None``), and its address; ``(None, None)`` for no
    array."""
    if a is None:
        return None, None
    a = np.ascontiguousarray(a, dtype=np.int64)
    if n is not None and a.shape[0] != n:
        raise ConfigError(f"omega/{name} length mismatch: {n} vs {a.shape[0]}")
    return a, native.address(a)


def _relative_error(value: float, sigma2: float) -> float:
    """Relative standard error of a mean ``value`` of variance ``sigma2``."""
    if value == 0.0:
        return math.inf
    return math.sqrt(max(sigma2, 0.0)) / abs(value)
