"""Gaussian (offset) surface construction and sampling.

The FRW charge estimator (Eq. 2) integrates the normal flux over a closed
*Gaussian surface* enclosing the master conductor.  For a net drawn as a
union of boxes, we offset every box outward by a clearance ``delta`` and
take the exact boundary of the union of the inflated boxes: each inflated
face, minus the parts covered by the other inflated boxes of the same net
(2-D rectilinear subtraction), yields flat rectangular patches with known
outward normals.  Sampling a uniform point on the surface is then a
cumulative-area lookup plus a uniform point in the chosen rectangle.

``delta`` defaults to half the conductor's minimum Chebyshev clearance, so
the surface stays strictly outside every other conductor and strictly inside
the enclosure, and the first transition cube (whose half-size is the
distance to the nearest conductor) is as large as possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .. import native
from ..errors import GaussianSurfaceError
from .box import Box
from .rect import Rect, subtract_many
from .structure import Structure

#: Transverse axes (sorted) for each normal axis.
TRANSVERSE = ((1, 2), (0, 2), (0, 1))


@dataclass(frozen=True)
class SurfacePatch:
    """A flat rectangular piece of the Gaussian surface.

    ``axis``/``sign`` give the outward normal; ``coord`` is the plane
    position along ``axis``; ``rect`` lives in the transverse axes (sorted
    order per :data:`TRANSVERSE`).
    """

    axis: int
    sign: int
    coord: float
    rect: Rect

    @property
    def area(self) -> float:
        """Patch area."""
        return self.rect.area


class GaussianSurface:
    """Closed offset surface of one conductor with area-uniform sampling."""

    def __init__(self, patches: list[SurfacePatch], delta: float):
        if not patches:
            raise GaussianSurfaceError("Gaussian surface has no patches")
        self.patches = patches
        self.delta = float(delta)
        areas = np.array([p.area for p in patches], dtype=np.float64)
        self.total_area = float(areas.sum())
        self._cum = np.cumsum(areas)
        # Packed arrays for vectorised sampling.
        self._axis = np.array([p.axis for p in patches], dtype=np.int64)
        self._sign = np.array([p.sign for p in patches], dtype=np.int64)
        self._coord = np.array([p.coord for p in patches], dtype=np.float64)
        self._x0 = np.array([p.rect.x0 for p in patches], dtype=np.float64)
        self._x1 = np.array([p.rect.x1 for p in patches], dtype=np.float64)
        self._y0 = np.array([p.rect.y0 for p in patches], dtype=np.float64)
        self._y1 = np.array([p.rect.y1 for p in patches], dtype=np.float64)

    @property
    def n_patches(self) -> int:
        """Number of rectangular patches."""
        return int(self._axis.shape[0])

    def packed(self) -> tuple[dict, dict]:
        """Split the surface into (scalars, arrays): the arrays are exactly
        the packed sampling state the compiled descriptor reads, so a
        surface rebuilt from them (:meth:`from_packed`) samples
        bit-identically."""
        scalars = {"delta": self.delta, "total_area": self.total_area}
        arrays = {
            "cum": self._cum,
            "axis": self._axis,
            "sign": self._sign,
            "coord": self._coord,
            "x0": self._x0,
            "x1": self._x1,
            "y0": self._y0,
            "y1": self._y1,
        }
        return scalars, arrays

    @classmethod
    def from_packed(cls, scalars: dict, arrays: dict) -> "GaussianSurface":
        """Rebuild a surface from :meth:`packed` state.

        The patch object list is not reconstructed (``patches`` is
        ``None``): sampling uses only the packed arrays.  The arrays may
        be read-only views — sampling never writes to them.
        """
        self = cls.__new__(cls)
        self.patches = None
        self.delta = float(scalars["delta"])
        self.total_area = float(scalars["total_area"])
        for key, array in arrays.items():
            setattr(self, "_" + key, array)
        return self

    @cached_property
    def _native(self) -> native.Surface:
        """The compiled kernels' descriptor of the packed arrays, built
        once per surface object."""
        scalars, arrays = self.packed()
        return native.surface(scalars["total_area"], **arrays)

    def __getstate__(self) -> dict:
        # The descriptor is derived state: never pickled.
        state = dict(self.__dict__)
        state.pop("_native", None)
        return state

    def sample(
        self, u: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map uniforms ``u (n, 3)`` to surface points.

        Returns ``(points (n,3), normal_axis (n,), normal_sign (n,))``.
        ``u[:, 0]`` selects the patch by cumulative area
        (``searchsorted(cum, u0 * total_area, "right")``, clipped to the
        last patch); ``u[:, 1:]`` place the point inside the patch — a pure
        function of ``u``, as required for reproducible per-walk streams.
        One compiled call (:func:`repro.native.surface_sample`; the
        engine's launch uses the same inline function).
        """
        u = np.asarray(u, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] < 3:
            raise ValueError(f"need uniforms of shape (n, 3), got {u.shape}")
        return native.surface_sample(self._native, u)


def _face_rect(box: Box, axis: int) -> Rect:
    """Transverse-plane rectangle of a box face normal to ``axis``."""
    ta, tb = TRANSVERSE[axis]
    return Rect(box.lo[ta], box.hi[ta], box.lo[tb], box.hi[tb])


def _covering_holes(
    boxes: list[Box], me: int, axis: int, sign: int, plane: float
) -> list[Rect]:
    """Rectangles (in the face plane) covered by other boxes of the net.

    A face is interior where another inflated box of the same net occupies
    the far side of its plane; closure is chosen so that two touching boxes
    annihilate both coincident faces (the union surface passes around them).
    """
    holes: list[Rect] = []
    ta, tb = TRANSVERSE[axis]
    for k, other in enumerate(boxes):
        if k == me:
            continue
        if sign > 0:
            covers = other.lo[axis] <= plane < other.hi[axis]
        else:
            covers = other.lo[axis] < plane <= other.hi[axis]
        if covers:
            holes.append(Rect(other.lo[ta], other.hi[ta], other.lo[tb], other.hi[tb]))
        elif (
            k < me
            and (other.lo[axis] == plane if sign < 0 else other.hi[axis] == plane)
        ):
            # Coplanar same-orientation face of an earlier box: dedupe so the
            # shared area is emitted once.
            holes.append(Rect(other.lo[ta], other.hi[ta], other.lo[tb], other.hi[tb]))
    return holes


def build_offset_surface(boxes: list[Box], delta: float) -> GaussianSurface:
    """Exact boundary of the union of ``boxes`` each inflated by ``delta``."""
    if delta <= 0:
        raise GaussianSurfaceError(f"offset must be positive, got {delta}")
    inflated = [b.inflate(delta) for b in boxes]
    patches: list[SurfacePatch] = []
    for me, box in enumerate(inflated):
        for axis in range(3):
            for sign, plane in ((-1, box.lo[axis]), (1, box.hi[axis])):
                face = _face_rect(box, axis)
                holes = _covering_holes(inflated, me, axis, sign, plane)
                for piece in subtract_many(face, holes):
                    patches.append(
                        SurfacePatch(axis=axis, sign=sign, coord=plane, rect=piece)
                    )
    if not patches:
        raise GaussianSurfaceError(
            "offset surface is empty (boxes mutually covered?)"
        )
    return GaussianSurface(patches, delta)


def _interface_margin(boxes: list[Box], delta: float, interfaces) -> float:
    """Distance of the nearest horizontal offset face to any interface."""
    import numpy as np

    planes = []
    for box in boxes:
        planes.append(box.lo[2] - delta)
        planes.append(box.hi[2] + delta)
    z = np.asarray(planes, dtype=float)
    return float(np.abs(z[:, None] - np.asarray(interfaces)[None, :]).min())


def build_gaussian_surface(
    structure: Structure,
    conductor_index: int,
    offset_fraction: float = 0.5,
    min_offset: float = 0.0,
) -> GaussianSurface:
    """Gaussian surface of conductor ``conductor_index`` in a structure.

    The offset is ``offset_fraction`` of the conductor's minimum clearance
    (to other conductors and the enclosure), floored at ``min_offset``.
    ``offset_fraction`` must stay in (0, 1) — at most the full clearance —
    and the default 0.5 maximises the first transition cube.

    In stratified dielectrics the offset is additionally chosen
    *interface-aware*: a horizontal offset face sitting almost on a layer
    interface would give its launch points interface-clamped first cubes of
    near-zero size — an unbiased but enormous-variance flux estimator.  If
    the candidate offset puts any horizontal face within 20% of the offset
    from an interface, progressively smaller offsets are tried and the one
    with the best interface margin is used.
    """
    if not (0.0 < offset_fraction < 1.0):
        raise GaussianSurfaceError(
            f"offset_fraction must be in (0, 1), got {offset_fraction}"
        )
    clearance = structure.conductor_clearance(conductor_index)
    if clearance <= 0:
        raise GaussianSurfaceError(
            f"conductor {structure.conductors[conductor_index].name!r} has no "
            "clearance to its neighbours; cannot build a Gaussian surface"
        )
    boxes = list(structure.conductors[conductor_index].boxes)
    delta = max(offset_fraction * clearance, min_offset)
    if delta >= clearance:
        delta = 0.5 * clearance

    interfaces = structure.dielectric._z
    if interfaces.shape[0]:
        margin_frac = 0.2
        if _interface_margin(boxes, delta, interfaces) < margin_frac * delta:
            best_delta, best_score = delta, 0.0
            for scale in (0.8, 0.65, 0.5, 0.4, 0.3):
                candidate = delta * scale
                margin = _interface_margin(boxes, candidate, interfaces)
                score = min(margin / (margin_frac * candidate), 1.0) * candidate
                if margin >= margin_frac * candidate:
                    best_delta = candidate
                    break
                if score > best_score:
                    best_delta, best_score = candidate, score
            delta = best_delta
    return build_offset_surface(boxes, delta)
