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
        """Elementwise compensated add of an array of the accumulator shape."""
        x = np.asarray(x, dtype=np.float64)
        t = self.total + x
        big = np.abs(self.total) >= np.abs(x)
        self.compensation += np.where(
            big, (self.total - t) + x, (x - t) + self.total
        )
        self.total = t

    def add_at(self, index: int, x: float) -> None:
        """Compensated add of a scalar into one slot (scalar hot path)."""
        t = self.total[index] + x
        if abs(self.total[index]) >= abs(x):
            self.compensation[index] += (self.total[index] - t) + x
        else:
            self.compensation[index] += (x - t) + self.total[index]
        self.total[index] = t

    def add_ordered(self, dest: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add ``values`` into slots ``dest``, preserving order.

        Bit-identical to calling :meth:`add_at` once per element in array
        order: slots are independent, so each slot's subsequence is replayed
        through the scalar Neumaier recurrence on native floats.  This
        replaces a per-walk Python call chain with one tight loop per
        destination plus vectorised grouping.
        """
        dest = np.asarray(dest, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        for j in np.unique(dest):
            seq = values[dest == j].tolist()
            total = float(self.total[j])
            comp = float(self.compensation[j])
            for x in seq:
                t = total + x
                if abs(total) >= abs(x):
                    comp += (total - t) + x
                else:
                    comp += (x - t) + total
                total = t
            self.total[j] = total
            self.compensation[j] = comp

    def merge(self, other: "KahanVector") -> None:
        """Absorb another accumulator of the same shape."""
        self.add(other.total)
        self.compensation += other.compensation

    @property
    def value(self) -> np.ndarray:
        """Best current estimate of the elementwise sums."""
        return self.total + self.compensation


class NaiveVector:
    """Uncompensated elementwise accumulator (FRW-NK ablation).

    Same interface as :class:`KahanVector` so the two are interchangeable in
    the walk scheme.
    """

    __slots__ = ("total",)

    def __init__(self, shape: tuple[int, ...] | int):
        self.total = np.zeros(shape, dtype=np.float64)

    def add(self, x: np.ndarray) -> None:
        self.total = self.total + np.asarray(x, dtype=np.float64)

    def add_at(self, index: int, x: float) -> None:
        self.total[index] = self.total[index] + x

    def add_ordered(self, dest: np.ndarray, values: np.ndarray) -> None:
        """Order-preserving scatter-add; bit-identical to per-element add_at.

        ``np.add.at`` is unbuffered and applies repeated-index updates in
        array order, which is exactly the sequential naive recurrence.
        """
        dest = np.asarray(dest, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        np.add.at(self.total, dest, values)

    def merge(self, other: "NaiveVector") -> None:
        self.total = self.total + other.total

    @property
    def value(self) -> np.ndarray:
        return self.total.copy()
