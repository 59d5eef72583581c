"""Per-master extraction context: everything a walk needs, precomputed.

Building the Gaussian surface, spatial index, and transition table is done
once per master conductor; the walk engine then only touches packed arrays.
The spatial index and the transition table are *master-independent* (the
index depends only on the structure and ``h_cap``, the table only on its
resolution), so a multi-master extraction shares them instead of
rebuilding per master: the index through the solver's
:class:`SharedAssets`, the table through :func:`get_cube_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import FRWConfig
from ..errors import GaussianSurfaceError
from ..geometry import (
    GaussianSurface,
    GridIndex,
    Structure,
    build_gaussian_surface,
    build_index,
)
from ..greens import CubeTransitionTable, get_cube_table
from ..units import EPS0_FF_PER_UM


@dataclass
class ExtractionContext:
    """Precomputed state for extracting one row of the capacitance matrix."""

    structure: Structure
    master: int
    config: FRWConfig
    surface: GaussianSurface
    index: GridIndex
    table: CubeTransitionTable
    h_cap: float
    absorb_tol: float

    @property
    def n_conductors(self) -> int:
        """Total conductors N including the enclosure."""
        return self.structure.n_conductors

    @property
    def enclosure_index(self) -> int:
        """Destination index for walks absorbed at the domain boundary."""
        return self.structure.enclosure_index

    @property
    def flux_scale(self) -> float:
        """``A_G * eps0`` prefactor of the first-hop weight, in fF*um."""
        return self.surface.total_area * EPS0_FF_PER_UM


class SharedAssets:
    """The spatial index of one structure, built once per solver.

    Owned by the solver (one per :class:`~repro.frw.solver.FRWSolver`),
    whose one config fixes one ``h_cap``, so every master's context holds
    the same index object.  The cube transition table has its own cache,
    the process-wide :func:`~repro.greens.get_cube_table` memo.  The
    counters feed the scheduler telemetry
    (``meta["schedule"]["asset_cache"]``) and the benchmark suite's
    ``context.index_builds``.
    """

    def __init__(self, structure: Structure):
        self.structure = structure
        self._indexes: dict[float, GridIndex] = {}
        self.index_builds = 0
        self.index_hits = 0

    def index(self, h_cap: float) -> GridIndex:
        """The structure's spatial index for ``h_cap``.  Sharing one
        index — its CSR lists *and* its cell bounds arrays — means the
        far-field precompute happens once per extraction, never per
        master."""
        key = float(h_cap)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = build_index(self.structure, h_cap=key)
            self.index_builds += 1
        else:
            self.index_hits += 1
        return index

    def query_stats(self) -> dict | None:
        """Aggregated :class:`~repro.geometry.QueryStats` over the cached
        indexes, or ``None`` when none has been built."""
        from ..geometry import QueryStats

        merged = QueryStats()
        for key in sorted(self._indexes):
            merged.merge(self._indexes[key].stats)
        return merged.as_dict() if self._indexes else None

    def stats(self) -> dict:
        """Index counters (for result meta and the benchmark suite)."""
        return {"index_builds": self.index_builds, "index_hits": self.index_hits}


def build_context(
    structure: Structure,
    master: int,
    config: FRWConfig,
    assets: SharedAssets | None = None,
) -> ExtractionContext:
    """Assemble the extraction context for one master conductor.

    ``assets`` (optional) shares one spatial index across calls; the
    transition table always comes from :func:`get_cube_table`.  The
    resulting contexts are identical to standalone builds.
    """
    if not (0 <= master < len(structure.conductors)):
        raise GaussianSurfaceError(
            f"master index {master} out of range "
            f"(structure has {len(structure.conductors)} conductors)"
        )
    surface = build_gaussian_surface(
        structure,
        master,
        offset_fraction=config.offset_fraction,
        absorption_fraction=config.absorption_fraction,
    )
    enc = structure.enclosure
    h_cap = config.h_cap_fraction * min(enc.sizes)
    if assets is not None:
        index = assets.index(h_cap)
    else:
        index = build_index(structure, h_cap=h_cap)
    absorb_tol = config.absorption_fraction * surface.delta
    # Fail early only on the degenerate configuration: a *horizontal*
    # Gaussian patch coplanar (within the absorption tolerance) with a
    # dielectric interface — every launch from it would need an
    # interface-crossing first cube.  Vertical patches merely *crossing* an
    # interface are fine: the engine floors the first-hop cube there
    # (``first_hop_interface_floor``), trading a bounded bias for bounded
    # variance; production solvers use multi-dielectric Green's tables [12].
    stack = structure.dielectric
    if not stack.is_homogeneous:
        coords = np.array([p.coord for p in surface.patches])
        axes = np.array([p.axis for p in surface.patches])
        z_planes = coords[axes == 2]
        if z_planes.size:
            d_iface = stack.interface_distance(z_planes)
            if float(d_iface.min()) < absorb_tol:
                raise GaussianSurfaceError(
                    f"a horizontal Gaussian patch of conductor "
                    f"{structure.conductors[master].name!r} is coplanar with "
                    "a dielectric interface; adjust offset_fraction or the "
                    "layer stack"
                )
    return ExtractionContext(
        structure=structure,
        master=master,
        config=config,
        surface=surface,
        index=index,
        table=get_cube_table(config.table_resolution),
        h_cap=h_cap,
        absorb_tol=absorb_tol,
    )
