"""Summation algorithms with controlled floating-point behaviour.

The reproducible FRW scheme merges per-thread partial sums whose order
depends on scheduling; floating-point addition is not associative, so the
merged value wobbles in its last bits.  The paper applies *Kahan compensated
summation* (Sec. III-C) to shrink that wobble enough that results match to
13+ digits and are frequently bitwise identical.

This module provides the two ``summation=`` backends of the estimator's
registers:

* :class:`KahanVector` — running elementwise compensated accumulator
  (Neumaier's improved variant, which also handles the case where the
  incoming term is larger than the running sum); FRW-R.
* :class:`NaiveVector` — the same interface, uncompensated; the FRW-NK
  ablation.

A row's batches reach these registers through the compiled fold
(``fold_batch`` in ``repro/native/kernels.c``), which repeats
:meth:`KahanVector.add_at` / :meth:`NaiveVector.add_at` and ``merge``
operation for operation; every method here works in place, so the
registers keep the addresses the fold was given.
"""

from __future__ import annotations

import numpy as np


class KahanVector:
    """Elementwise Neumaier-compensated accumulator over a fixed shape.

    This is the per-thread accumulator of the walk scheme: one compensated
    slot per destination conductor (plus squared-weight slots for variance).
    All operations are vectorised.
    """

    __slots__ = ("total", "compensation")

    def __init__(self, shape: tuple[int, ...] | int):
        self.total = np.zeros(shape, dtype=np.float64)
        self.compensation = np.zeros(shape, dtype=np.float64)

    def add(self, x: np.ndarray) -> None:
        """Elementwise compensated add of an array of the accumulator shape
        (in place: the registers keep their addresses)."""
        x = np.asarray(x, dtype=np.float64)
        total = self.total
        t = total + x
        big = np.abs(total) >= np.abs(x)
        self.compensation += np.where(big, (total - t) + x, (x - t) + total)
        total[...] = t

    def add_at(self, index: int, x: float) -> None:
        """Compensated add of a scalar into one slot (scalar hot path)."""
        t = self.total[index] + x
        if abs(self.total[index]) >= abs(x):
            self.compensation[index] += (self.total[index] - t) + x
        else:
            self.compensation[index] += (x - t) + self.total[index]
        self.total[index] = t

    def merge(self, other: "KahanVector") -> None:
        """Absorb another accumulator of the same shape."""
        self.add(other.total)
        self.compensation += other.compensation

    @property
    def value(self) -> np.ndarray:
        """Best current estimate of the elementwise sums."""
        return self.total + self.compensation

    def value_at(self, index: int) -> float:
        """Entry ``index`` of :attr:`value`, computed alone."""
        return self.total.item(index) + self.compensation.item(index)


class NaiveVector:
    """Uncompensated elementwise accumulator (FRW-NK ablation).

    Same interface as :class:`KahanVector` so the two are interchangeable in
    the walk scheme.
    """

    __slots__ = ("total",)

    def __init__(self, shape: tuple[int, ...] | int):
        self.total = np.zeros(shape, dtype=np.float64)

    def add(self, x: np.ndarray) -> None:
        self.total += np.asarray(x, dtype=np.float64)

    def add_at(self, index: int, x: float) -> None:
        self.total[index] = self.total[index] + x

    def merge(self, other: "NaiveVector") -> None:
        self.total += other.total

    @property
    def value(self) -> np.ndarray:
        return self.total.copy()

    def value_at(self, index: int) -> float:
        return self.total.item(index)
