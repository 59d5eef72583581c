"""The extraction problem container: conductors + dielectric + enclosure.

A :class:`Structure` holds the conductor nets, the stratified dielectric
stack, and the grounded *enclosure* box that bounds the domain.  The
enclosure is an explicit conductor (always the **last** index ``N-1``):
walks that reach the domain boundary are absorbed there.  Because the
problem is then fully bounded by conductor surfaces, the true capacitance
matrix satisfies the zero row-sum property (Property 3) *exactly* — holding
every conductor at 1 V makes the potential identically 1 and all charges
zero.  This mirrors Sec. II-A's "practical and bounded-domain problems".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GeometryError, StructureValidationError
from .box import Box, boxes_to_arrays
from .conductor import Conductor
from .dielectric import DielectricStack

#: Name used for the implicit enclosure conductor.
ENCLOSURE_NAME = "ENV"


@dataclass
class Structure:
    """A capacitance-extraction problem.

    Parameters
    ----------
    conductors:
        The conductor nets (excluding the enclosure).
    dielectric:
        Stratified dielectric stack; defaults to vacuum.
    enclosure:
        Domain-bounding box.  If omitted, the conductor bounding box inflated
        by ``auto_margin`` times its largest edge is used.
    auto_margin:
        Relative margin for the automatic enclosure.
    """

    conductors: list[Conductor]
    dielectric: DielectricStack = field(default_factory=DielectricStack.homogeneous)
    enclosure: Box | None = None
    auto_margin: float = 1.0

    def __post_init__(self) -> None:
        if not self.conductors:
            raise GeometryError("structure needs at least one conductor")
        if self.enclosure is None:
            bb = self.conductors[0].bounding_box
            for cond in self.conductors[1:]:
                bb = bb.union_bounds(cond.bounding_box)
            margin = self.auto_margin * max(bb.sizes)
            self.enclosure = bb.inflate(margin)
        self._build_arrays()

    def _build_arrays(self) -> None:
        boxes: list[Box] = []
        owner: list[int] = []
        for idx, cond in enumerate(self.conductors):
            for box in cond.boxes:
                boxes.append(box)
                owner.append(idx)
        self._boxes = boxes
        self._box_lo, self._box_hi = boxes_to_arrays(boxes)
        self._box_owner = np.array(owner, dtype=np.int64)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_conductors(self) -> int:
        """Total conductor count N, *including* the enclosure."""
        return len(self.conductors) + 1

    @property
    def enclosure_index(self) -> int:
        """Capacitance-matrix index of the enclosure conductor."""
        return len(self.conductors)

    @property
    def names(self) -> list[str]:
        """Conductor names, enclosure last."""
        return [c.name for c in self.conductors] + [ENCLOSURE_NAME]

    @property
    def boxes(self) -> list[Box]:
        """All conductor boxes (flattened, enclosure excluded)."""
        return self._boxes

    @property
    def box_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(lo (m,3), hi (m,3), owner (m,))`` arrays for vector kernels."""
        return self._box_lo, self._box_hi, self._box_owner

    @property
    def n_boxes(self) -> int:
        """Total number of conductor boxes."""
        return len(self._boxes)

    def index_of(self, name: str) -> int:
        """Conductor index by name (the enclosure resolves by its name)."""
        if name == ENCLOSURE_NAME:
            return self.enclosure_index
        for idx, cond in enumerate(self.conductors):
            if cond.name == name:
                return idx
        raise KeyError(f"no conductor named {name!r}")

    @property
    def min_feature(self) -> float:
        """Smallest box edge in the structure (tolerance scale)."""
        return float(min(min(b.sizes) for b in self._boxes))

    def conductor_clearance(self, index: int) -> float:
        """Minimum Chebyshev gap from conductor ``index`` to everything else
        (other conductors and the enclosure walls)."""
        # Indexes like the conductor list: negatives wrap, others raise.
        mine = self._box_owner == range(len(self.conductors))[index]
        lo, hi = self._box_lo[mine], self._box_hi[mine]
        gap = min(
            float((lo - np.asarray(self.enclosure.lo)).min()),
            float((np.asarray(self.enclosure.hi) - hi).min()),
        )
        olo, ohi = self._box_lo[~mine], self._box_hi[~mine]
        if olo.shape[0]:
            # One vector pass over every other conductor's boxes per box
            # of this net (nets have few boxes; structures may have many).
            for blo, bhi in zip(lo, hi):
                axis_gaps = np.maximum(np.maximum(olo - bhi, blo - ohi), 0.0)
                gap = min(gap, float(axis_gaps.max(axis=1).min()))
        return gap

    # ------------------------------------------------------------------
    # Enclosure distance kernels (the walk is always inside the enclosure)
    # ------------------------------------------------------------------
    def enclosure_distance(self, points: np.ndarray) -> np.ndarray:
        """Chebyshev distance from interior points ``(n, 3)`` to the
        enclosure walls: a running ``np.minimum`` over the six per-axis
        wall gaps, low then high wall of x, y and z.  The walk engine's
        compiled query (``locate`` in ``repro/native/kernels.c``) takes the
        minima in the same order, so it gives the same bits, zero signs
        included."""
        points = np.asarray(points, dtype=np.float64)
        lo, hi = self.enclosure.lo, self.enclosure.hi
        out = points[:, 0] - lo[0]
        for axis in range(3):
            col = points[:, axis]
            if axis:
                np.minimum(out, col - lo[axis], out=out)
            np.minimum(out, hi[axis] - col, out=out)
        return out

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, min_gap: float = 0.0) -> None:
        """Check structural invariants, raising on violation.

        * every box is strictly inside the enclosure,
        * boxes of *different* conductors do not intersect and keep at least
          ``min_gap`` Chebyshev clearance,
        * the dielectric stack covers the enclosure z-range.

        Overlap checking is grid-accelerated so large structures validate in
        near-linear time.
        """
        enc = self.enclosure
        for box in self._boxes:
            if not box.strictly_inside(enc):
                raise StructureValidationError(
                    f"{box!r} is not strictly inside the enclosure {enc!r}"
                )
        self._check_overlaps(min_gap)
        z = self.dielectric._z
        if z.shape[0] and (z[0] <= enc.lo[2] or z[-1] >= enc.hi[2]):
            # Interfaces outside the domain are harmless but usually a bug.
            raise StructureValidationError(
                "dielectric interfaces must lie strictly inside the enclosure"
            )

    def _check_overlaps(self, min_gap: float) -> None:
        m = self.n_boxes
        if m < 2:
            return
        lo, hi = self._box_lo, self._box_hi
        owner = self._box_owner
        # Bin boxes into a coarse uniform grid; only same/adjacent-cell pairs
        # can violate clearance.
        enc = self.enclosure
        extent = np.asarray(enc.hi) - np.asarray(enc.lo)
        n_cells = max(1, int(np.ceil(m ** (1.0 / 3.0))))
        cell = extent / n_cells
        cell = np.maximum(cell, 1e-12)
        grid: dict[tuple[int, int, int], list[int]] = {}
        lo_cells = np.floor((lo - np.asarray(enc.lo) - min_gap) / cell).astype(int)
        hi_cells = np.floor((hi - np.asarray(enc.lo) + min_gap) / cell).astype(int)
        lo_cells = np.clip(lo_cells, 0, n_cells - 1)
        hi_cells = np.clip(hi_cells, 0, n_cells - 1)
        for b in range(m):
            for cx in range(lo_cells[b, 0], hi_cells[b, 0] + 1):
                for cy in range(lo_cells[b, 1], hi_cells[b, 1] + 1):
                    for cz in range(lo_cells[b, 2], hi_cells[b, 2] + 1):
                        grid.setdefault((cx, cy, cz), []).append(b)
        checked: set[tuple[int, int]] = set()
        for members in grid.values():
            for i_pos, b1 in enumerate(members):
                for b2 in members[i_pos + 1 :]:
                    if owner[b1] == owner[b2]:
                        continue
                    pair = (min(b1, b2), max(b1, b2))
                    if pair in checked:
                        continue
                    checked.add(pair)
                    gap = float(
                        np.maximum(
                            np.maximum(lo[b2] - hi[b1], lo[b1] - hi[b2]), 0.0
                        ).max()
                    )
                    overlap = bool(
                        np.all(lo[b1] < hi[b2]) and np.all(lo[b2] < hi[b1])
                    )
                    if overlap or gap < min_gap:
                        raise StructureValidationError(
                            f"conductors {self.conductors[owner[b1]].name!r} and "
                            f"{self.conductors[owner[b2]].name!r} are too close "
                            f"(gap {gap:g} < required {min_gap:g})"
                        )

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"Structure: {len(self.conductors)} conductors (+enclosure), "
            f"{self.n_boxes} boxes, {self.dielectric.n_layers} dielectric "
            f"layer(s), enclosure {self.enclosure!r}"
        )
