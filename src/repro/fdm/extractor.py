"""FDM capacitance extraction — the reference ("commercial tool") solver.

Solves the electrostatic Dirichlet problem on a uniform grid with a 7-point
finite-difference stencil and harmonic-mean face permittivities, then
evaluates conductor charges by summing discrete fluxes out of each
conductor's node set.  One linear solve per excited conductor yields one
column of the Maxwell capacitance matrix; the enclosure column follows from
the zero row-sum identity of the bounded problem.

This solver plays the role of the paper's high-precision commercial
reference in the Table III accuracy experiment (Err_cap).  Discretisation
error is first-order in the grid spacing at non-aligned conductor surfaces,
so reference runs should use geometry-aligned resolutions where possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Structure
from ..units import EPS0_FF_PER_UM
from .grid import FDMGrid, build_grid
from .solve import solve_sparse

_OFFSETS = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)


@dataclass
class FDMSolution:
    """Reference capacitance matrix and solver metadata."""

    capacitance: np.ndarray  # (N, N) in fF
    grid_shape: tuple[int, int, int]
    n_unknowns: int

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of the capacitance matrix."""
        return self.capacitance[i]


class FDMExtractor:
    """Finite-difference field solver for a :class:`Structure`."""

    def __init__(
        self,
        structure: Structure,
        resolution: int | tuple[int, int, int] = 48,
        method: str = "auto",
        tol: float = 1e-9,
    ):
        self.structure = structure
        self.grid: FDMGrid = build_grid(structure, resolution)
        self.method = method
        self.tol = tol
        self._assemble()

    # ------------------------------------------------------------------
    def _face_coefficients(self) -> tuple[np.ndarray, ...]:
        """Face conductance ``eps_f * A_f / d_f`` per axis (z uses the
        harmonic mean of the adjacent node permittivities)."""
        hx, hy, hz = self.grid.spacing
        eps_z = self.grid.eps_node
        # Harmonic mean between consecutive z-planes.
        eps_face_z = 2.0 * eps_z[:-1] * eps_z[1:] / (eps_z[:-1] + eps_z[1:])
        coeff_x = eps_z * (hy * hz / hx)  # depends on the plane's own eps
        coeff_y = eps_z * (hx * hz / hy)
        coeff_z = eps_face_z * (hx * hy / hz)
        return coeff_x, coeff_y, coeff_z

    def _assemble(self) -> None:
        nx, ny, nz = self.grid.shape
        owner = self.grid.owner
        free = owner < 0
        self._free_index = -np.ones(self.grid.shape, dtype=np.int64)
        self._free_index[free] = np.arange(int(free.sum()))
        self.n_unknowns = int(free.sum())
        coeff_x, coeff_y, coeff_z = self._face_coefficients()

        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        diag = np.zeros(self.n_unknowns, dtype=np.float64)
        # rhs contribution bookkeeping: for each Dirichlet neighbour we store
        # (free_node_index, dirichlet_owner, coeff) to build b per excitation.
        bc_rows: list[np.ndarray] = []
        bc_owner: list[np.ndarray] = []
        bc_coeff: list[np.ndarray] = []

        ix, iy, iz = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        for dx, dy, dz in _OFFSETS:
            src = (
                slice(max(0, -dx), nx - max(0, dx)),
                slice(max(0, -dy), ny - max(0, dy)),
                slice(max(0, -dz), nz - max(0, dz)),
            )
            dst = (
                slice(max(0, dx), nx - max(0, -dx)),
                slice(max(0, dy), ny - max(0, -dy)),
                slice(max(0, dz), nz - max(0, -dz)),
            )
            src_free = free[src]
            both = src_free  # mask over the src window
            # Face coefficient per source node (depends on z-plane).
            z_src = iz[src]
            if dx != 0:
                face = coeff_x[z_src]
            elif dy != 0:
                face = coeff_y[z_src]
            else:
                z_lo = np.minimum(z_src, z_src + dz)
                face = coeff_z[z_lo]
            src_idx = self._free_index[src]
            dst_idx = self._free_index[dst]
            dst_owner = self.grid.owner[dst]
            # Accumulate the diagonal for all free source nodes.
            np.add.at(diag, src_idx[both], face[both])
            # Free-free couplings.
            ff = both & (dst_owner < 0)
            rows.append(src_idx[ff])
            cols.append(dst_idx[ff])
            vals.append(-face[ff])
            # Free-Dirichlet couplings go to the RHS.
            fd = both & (dst_owner >= 0)
            bc_rows.append(src_idx[fd])
            bc_owner.append(dst_owner[fd])
            bc_coeff.append(face[fd])

        rows_all = np.concatenate(rows + [np.arange(self.n_unknowns)])
        cols_all = np.concatenate(cols + [np.arange(self.n_unknowns)])
        vals_all = np.concatenate(vals + [diag])
        import scipy.sparse as sp  # on first use: ``import repro`` loads no SciPy

        self._matrix = sp.csr_matrix(
            (vals_all, (rows_all, cols_all)),
            shape=(self.n_unknowns, self.n_unknowns),
        )
        self._bc_rows = np.concatenate(bc_rows) if bc_rows else np.empty(0, np.int64)
        self._bc_owner = np.concatenate(bc_owner) if bc_owner else np.empty(0, np.int64)
        self._bc_coeff = np.concatenate(bc_coeff) if bc_coeff else np.empty(0)

    # ------------------------------------------------------------------
    def solve_excitation(self, excited: int) -> np.ndarray:
        """Potential field (full grid) with conductor ``excited`` at 1 V."""
        b = np.zeros(self.n_unknowns, dtype=np.float64)
        sel = self._bc_owner == excited
        np.add.at(b, self._bc_rows[sel], self._bc_coeff[sel])
        x = solve_sparse(self._matrix, b, method=self.method, tol=self.tol)
        phi = np.zeros(self.grid.shape, dtype=np.float64)
        phi[self.grid.owner < 0] = x
        phi[self.grid.owner == excited] = 1.0
        return phi

    def charges(self, phi: np.ndarray) -> np.ndarray:
        """Discrete Gauss-law charge per conductor, in fF x V."""
        nx, ny, nz = self.grid.shape
        owner = self.grid.owner
        coeff_x, coeff_y, coeff_z = self._face_coefficients()
        n_cond = self.structure.n_conductors
        q = np.zeros(n_cond, dtype=np.float64)
        iz = np.arange(nz)[None, None, :] * np.ones(self.grid.shape, dtype=np.int64)
        for dx, dy, dz in _OFFSETS:
            src = (
                slice(max(0, -dx), nx - max(0, dx)),
                slice(max(0, -dy), ny - max(0, dy)),
                slice(max(0, -dz), nz - max(0, dz)),
            )
            dst = (
                slice(max(0, dx), nx - max(0, -dx)),
                slice(max(0, dy), ny - max(0, -dy)),
                slice(max(0, dz), nz - max(0, -dz)),
            )
            src_owner = owner[src]
            dst_owner = owner[dst]
            boundary = (src_owner >= 0) & (dst_owner != src_owner)
            z_src = iz[src]
            if dx != 0:
                face = coeff_x[z_src]
            elif dy != 0:
                face = coeff_y[z_src]
            else:
                z_lo = np.minimum(z_src, z_src + dz)
                face = coeff_z[z_lo]
            flux = face[boundary] * (phi[src][boundary] - phi[dst][boundary])
            np.add.at(q, src_owner[boundary], flux)
        return q * EPS0_FF_PER_UM

    def extract(self) -> FDMSolution:
        """Full capacitance matrix (all N conductors, in fF).

        Solves one excitation per non-enclosure conductor; the enclosure
        column closes each row by the zero row-sum identity.
        """
        n = self.structure.n_conductors
        env = self.structure.enclosure_index
        cap = np.zeros((n, n), dtype=np.float64)
        for j in range(n):
            if j == env:
                continue
            phi = self.solve_excitation(j)
            cap[:, j] = self.charges(phi)
        cap[:, env] = -cap.sum(axis=1)
        return FDMSolution(
            capacitance=cap,
            grid_shape=self.grid.shape,
            n_unknowns=self.n_unknowns,
        )
