"""Axis-aligned 3-D boxes and vectorised point-to-box distance kernels.

Interconnect geometry in Manhattan IC layouts is a union of axis-aligned
boxes.  The FRW transition domain is the largest *cube* centred at the walk
position that avoids all conductors, so the key query is the **Chebyshev
(L-infinity) distance** from a point to a box: the largest empty cube's
half-size equals the minimum L-inf distance over all conductor boxes.
The walk-on-spheres validation engine uses the Euclidean (L2) distance
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError

AXIS_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class Box:
    """A non-degenerate axis-aligned box ``[lo, hi]`` in 3-D.

    Coordinates are in the library length unit (micrometres).
    """

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self) -> None:
        for axis in range(3):
            # False for NaN too, and for an infinite bound.
            if not (-math.inf < self.lo[axis] < self.hi[axis] < math.inf):
                raise GeometryError(
                    f"degenerate or non-finite box along {AXIS_NAMES[axis]}: "
                    f"lo={self.lo} hi={self.hi}"
                )

    @classmethod
    def from_bounds(
        cls,
        x0: float,
        x1: float,
        y0: float,
        y1: float,
        z0: float,
        z1: float,
    ) -> "Box":
        """Construct from six scalar bounds."""
        return cls((float(x0), float(y0), float(z0)), (float(x1), float(y1), float(z1)))

    @classmethod
    def from_center(
        cls, center: tuple[float, float, float], half_sizes: tuple[float, float, float]
    ) -> "Box":
        """Construct from a centre point and per-axis half sizes."""
        return cls(
            tuple(c - h for c, h in zip(center, half_sizes)),
            tuple(c + h for c, h in zip(center, half_sizes)),
        )

    @property
    def center(self) -> tuple[float, float, float]:
        """Geometric centre."""
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    @property
    def sizes(self) -> tuple[float, float, float]:
        """Edge lengths per axis."""
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    @property
    def volume(self) -> float:
        """Box volume."""
        sx, sy, sz = self.sizes
        return sx * sy * sz

    @property
    def surface_area(self) -> float:
        """Total surface area."""
        sx, sy, sz = self.sizes
        return 2.0 * (sx * sy + sy * sz + sz * sx)

    def contains(self, point: tuple[float, float, float], tol: float = 0.0) -> bool:
        """Whether the point lies inside (or within ``tol`` of) the box."""
        return all(
            self.lo[a] - tol <= point[a] <= self.hi[a] + tol for a in range(3)
        )

    def strictly_inside(self, other: "Box") -> bool:
        """Whether this box lies strictly inside ``other``."""
        return all(
            other.lo[a] < self.lo[a] and self.hi[a] < other.hi[a] for a in range(3)
        )

    def intersects(self, other: "Box", tol: float = 0.0) -> bool:
        """Whether the (open) interiors intersect (gap < -tol counts)."""
        return all(
            self.lo[a] < other.hi[a] - tol and other.lo[a] < self.hi[a] - tol
            for a in range(3)
        )

    def inflate(self, delta: float) -> "Box":
        """Return the box grown by ``delta`` on every side."""
        if delta <= -min(self.sizes) / 2.0:
            raise GeometryError(f"inflation {delta} would collapse the box")
        return Box(
            tuple(v - delta for v in self.lo),
            tuple(v + delta for v in self.hi),
        )

    def distance_linf(self, point: tuple[float, float, float]) -> float:
        """Chebyshev distance from a point to the box (0 inside)."""
        d = 0.0
        for a in range(3):
            gap = max(self.lo[a] - point[a], point[a] - self.hi[a], 0.0)
            d = max(d, gap)
        return d

    def distance_l2(self, point: tuple[float, float, float]) -> float:
        """Euclidean distance from a point to the box (0 inside)."""
        s = 0.0
        for a in range(3):
            gap = max(self.lo[a] - point[a], point[a] - self.hi[a], 0.0)
            s += gap * gap
        return float(np.sqrt(s))

    def gap_linf(self, other: "Box") -> float:
        """Chebyshev gap between two boxes (0 if they touch or overlap)."""
        d = 0.0
        for a in range(3):
            gap = max(other.lo[a] - self.hi[a], self.lo[a] - other.hi[a], 0.0)
            d = max(d, gap)
        return d

    def union_bounds(self, other: "Box") -> "Box":
        """Axis-aligned bounding box of the union."""
        return Box(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = ", ".join(f"{v:g}" for v in self.lo)
        hi = ", ".join(f"{v:g}" for v in self.hi)
        return f"Box([{lo}] .. [{hi}])"


def boxes_to_arrays(boxes: list[Box]) -> tuple[np.ndarray, np.ndarray]:
    """Stack box bounds into ``(m, 3)`` lo/hi arrays for vectorised kernels."""
    if not boxes:
        return np.empty((0, 3)), np.empty((0, 3))
    lo = np.array([b.lo for b in boxes], dtype=np.float64)
    hi = np.array([b.hi for b in boxes], dtype=np.float64)
    return lo, hi


def points_box_gaps(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Per-axis outside gaps: ``(n, m, 3)`` array of max(lo-p, p-hi, 0)."""
    p = points[:, None, :]
    return np.maximum(np.maximum(lo[None, :, :] - p, p - hi[None, :, :]), 0.0)


def distance_linf_many(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Chebyshev distances: ``(n, m)`` from each point to each box."""
    return points_box_gaps(points, lo, hi).max(axis=2)


def distance_l2_many(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Euclidean distances: ``(n, m)`` from each point to each box."""
    gaps = points_box_gaps(points, lo, hi)
    return np.sqrt((gaps * gaps).sum(axis=2))


def nearest_box(
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    metric: str = "linf",
    chunk: int = 4_000_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest box per point: ``(distance (n,), box_index (n,))``.

    Memory-bounded: processes boxes in chunks so ``n * m_chunk`` stays below
    ``chunk`` elements.  With no boxes, distances are +inf and indices -1.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    m = lo.shape[0]
    best = np.full(n, np.inf, dtype=np.float64)
    best_idx = np.full(n, -1, dtype=np.int64)
    if m == 0 or n == 0:
        return best, best_idx
    dist_fn = distance_linf_many if metric == "linf" else distance_l2_many
    step = max(1, chunk // max(n, 1))
    if step >= m:
        # Single chunk: plain argmin, no running-best merge.
        d = dist_fn(points, lo, hi)
        best_idx = d.argmin(axis=1).astype(np.int64, copy=False)
        best = d[np.arange(n), best_idx]
        best_idx[np.isinf(best)] = -1
        return best, best_idx
    for start in range(0, m, step):
        stop = min(m, start + step)
        d = dist_fn(points, lo[start:stop], hi[start:stop])
        local_idx = d.argmin(axis=1)
        local_best = d[np.arange(n), local_idx]
        better = local_best < best
        best[better] = local_best[better]
        best_idx[better] = local_idx[better] + start
    return best, best_idx
