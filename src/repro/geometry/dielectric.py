"""Stratified (planar multilayer) dielectric stacks.

Advanced-node back-end-of-line stacks are, to first order, planar layers of
different permittivity stacked along z.  The stack answers two vectorised
queries:

* permittivity at a point (for the first-hop flux weight),
* distance from a point to the nearest layer interface (transition cubes
  must not cross an interface, so the cube half-size is clamped by it).

The walk engine's compiled step reads the interfaces (``_z``) and the
layer permittivities (``_eps``) directly: its launch takes the layer of
a point and its hemisphere step the permittivity pair straddling an
interface (``repro/native/kernels.c``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import GeometryError


@dataclass(frozen=True)
class DielectricStack:
    """Planar layers along z.

    ``interfaces`` are the z-coordinates separating layers (strictly
    increasing, possibly empty); ``eps`` has one relative permittivity per
    layer, ``len(interfaces) + 1`` entries ordered bottom to top.
    """

    interfaces: tuple[float, ...] = ()
    eps: tuple[float, ...] = (1.0,)
    _z: np.ndarray = field(init=False, repr=False, compare=False)
    _eps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        z = np.asarray(self.interfaces, dtype=np.float64)
        eps = np.asarray(self.eps, dtype=np.float64)
        if eps.shape[0] != z.shape[0] + 1:
            raise GeometryError(
                f"need len(eps) == len(interfaces) + 1, got "
                f"{eps.shape[0]} vs {z.shape[0]}"
            )
        if not (np.isfinite(z).all() and np.isfinite(eps).all()):
            raise GeometryError(
                f"interfaces and permittivities must be finite, got "
                f"{self.interfaces} and {self.eps}"
            )
        if z.shape[0] and np.any(np.diff(z) <= 0):
            raise GeometryError("interfaces must be strictly increasing")
        if np.any(eps <= 0):
            raise GeometryError("permittivities must be positive")
        object.__setattr__(self, "_z", z)
        object.__setattr__(self, "_eps", eps)

    @classmethod
    def homogeneous(cls, eps: float = 1.0) -> "DielectricStack":
        """A single uniform dielectric."""
        return cls((), (float(eps),))

    @property
    def is_homogeneous(self) -> bool:
        """True when the stack has a single layer."""
        return self._z.shape[0] == 0

    @property
    def n_layers(self) -> int:
        """Number of layers."""
        return int(self._eps.shape[0])

    def layer_index(self, z: np.ndarray) -> np.ndarray:
        """Layer index per z (points exactly on an interface go to the
        upper layer, consistent with ``searchsorted(side='right')``)."""
        z = np.asarray(z, dtype=np.float64)
        return np.searchsorted(self._z, z, side="right")

    def eps_at(self, z: np.ndarray) -> np.ndarray:
        """Relative permittivity at height(s) z."""
        return self._eps[self.layer_index(z)]

    def interface_distance(self, z: np.ndarray) -> np.ndarray:
        """Distance from z to the nearest interface (+inf if homogeneous)."""
        z = np.asarray(z, dtype=np.float64)
        if self.is_homogeneous:
            return np.full(z.shape, np.inf)
        dist = np.abs(z - self._z[0])
        for zk in self._z[1:]:
            np.minimum(dist, np.abs(z - zk), out=dist)
        return dist
