"""Tabulated cube transition kernel ("GFT") with inverse-CDF sampling.

The walk engine needs, per hop, a sample from the cube's surface Poisson
kernel and — for the first hop — the ratio ``K'_n / q`` of the
centre-gradient kernel to the sampling density.  Production FRW solvers
precompute exactly this as a discretised Green's function table; we build it
once per resolution from the eigenseries of :mod:`.cube_series` and cache it.

Discretisation contract: each face is an ``nf x nf`` grid of cells; the
transition distribution is *piecewise constant* per cell (probability
proportional to the kernel at the cell centre), and gradient values are also
taken at cell centres.  The resulting discrete kernel pair is renormalised
so that (a) probabilities sum to 1 and (b) the gradient kernel reproduces a
unit-slope linear potential exactly, which removes the leading
discretisation bias of the flux weight.  Remaining bias is ``O(1/nf^2)`` and
is validated against the FDM reference solver in the tests.

Face indexing: ``face = 2*axis + (1 if high side else 0)``; face-local
coordinates are the two transverse axes in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..geometry.surface import TRANSVERSE, face_points
from .cube_series import (
    DEFAULT_MODES,
    gradient_kernel_parallel,
    gradient_kernel_side,
    poisson_kernel_face,
)

#: Default cells per face edge.
DEFAULT_RESOLUTION = 32


@dataclass(frozen=True)
class CubeTransitionTable:
    """Discretised cube transition kernel.

    Attributes
    ----------
    nf:
        Cells per face edge (6 * nf^2 cells total).
    cdf:
        Cumulative probabilities over the flattened cells.
    prob:
        Per-cell probabilities (sum to 1).
    grad_ratio:
        ``(3, 6*nf^2)`` array: for gradient axis a, the ratio
        ``D_a(cell) / (prob(cell) * nf^2)`` on the *unit* cube.  Multiplying
        by the world edge length L gives ``K'_w / q_w`` (see engine).
    face_axis, face_side:
        Per-cell face decomposition (axis 0..2, side 0=lo/1=hi).
    cell_i, cell_j:
        Per-cell transverse grid indices.
    """

    nf: int
    cdf: np.ndarray
    prob: np.ndarray
    grad_ratio: np.ndarray
    face_axis: np.ndarray
    face_side: np.ndarray
    cell_i: np.ndarray
    cell_j: np.ndarray

    @property
    def n_cells(self) -> int:
        """Total cell count (6 faces)."""
        return int(self.prob.shape[0])

    def sample_cells(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0,1) to flattened cell indices.

        Returns ``clip(searchsorted(cdf, u, "right"), 0, N-1)`` exactly,
        computed with a guide table of ``M = 4N`` buckets plus a fixed
        number of vectorised bisection steps.

        Why the bracket is exact: let ``e_j = fl(j/M)`` and
        ``g[j] = searchsorted(cdf, e_j, "right")``, and let ``r(u)`` be the
        wanted count of cdf entries ``<= u``, which is non-decreasing in
        ``u``.  With ``q = floor(u*M)`` (exact), the integers ``q`` and
        ``q+1`` are doubles and round-to-nearest is monotone, so
        ``q <= fl(u*M) <= q+1`` and ``k = int(fl(u*M))`` is ``q`` or
        ``q+1``.  Hence ``(k-1)/M <= u < (k+1)/M`` exactly; rounding both
        sides (``u`` is itself a double) gives ``e_{k-1} <= u <= e_{k+1}``
        and so ``g[k-1] <= r(u) <= g[k+1]``.  The bisection starts at
        ``g[k-1]`` with a power-of-two width covering the widest such
        bracket, over a cdf padded with ``+inf`` so that probes past the
        end never count.
        """
        u = np.asarray(u, dtype=np.float64)
        buckets, last_le, cdf_pad, width = self._guide
        # p: index of the last cdf entry known to be <= u (-1 for none).
        # Every index is in range; mode="clip" only skips numpy's buffered
        # bounds check.
        k = np.multiply(u, buckets).astype(np.int64)
        p = last_le.take(k, mode="clip")
        probe = np.empty_like(p)
        value = np.empty(u.shape)
        hit = np.empty(u.shape, dtype=bool)
        step = width >> 1
        while step:
            np.add(p, step, out=probe)
            cdf_pad.take(probe, out=value, mode="clip")
            np.less_equal(value, u, out=hit)
            np.copyto(p, probe, where=hit)
            step >>= 1
        p += 1
        return np.minimum(p, self.n_cells - 1, out=p)

    @cached_property
    def _guide(self) -> tuple:
        """``(M, g[k-1] - 1 for k = 0..M, +inf-padded cdf, bisection
        width)`` for :meth:`sample_cells`, built once per table object."""
        cdf = self.cdf
        buckets = 4 * cdf.shape[0]
        edges = np.arange(-1, buckets + 2) / buckets
        g = np.searchsorted(cdf, edges, side="right")
        width = 1 << int((g[2:] - g[:-2]).max()).bit_length()
        cdf_pad = np.concatenate([cdf, np.full(width, np.inf)])
        return buckets, g[:-2] - 1, cdf_pad, width

    def __getstate__(self) -> dict:
        # The guide is derived state: never pickled (nor published).
        state = dict(self.__dict__)
        state.pop("_guide", None)
        return state

    def packed(self) -> tuple[dict, dict]:
        """(scalars, arrays) split for shared-memory publication."""
        scalars = {"nf": int(self.nf)}
        arrays = {
            "cdf": self.cdf,
            "prob": self.prob,
            "grad_ratio": self.grad_ratio,
            "face_axis": self.face_axis,
            "face_side": self.face_side,
            "cell_i": self.cell_i,
            "cell_j": self.cell_j,
        }
        return scalars, arrays

    @classmethod
    def from_packed(cls, scalars: dict, arrays: dict) -> "CubeTransitionTable":
        """Rebuild a table from :meth:`packed` state (worker-side attach).
        The arrays may be read-only shared views — sampling never writes."""
        return cls(
            nf=int(scalars["nf"]),
            cdf=arrays["cdf"],
            prob=arrays["prob"],
            grad_ratio=arrays["grad_ratio"],
            face_axis=arrays["face_axis"],
            face_side=arrays["face_side"],
            cell_i=arrays["cell_i"],
            cell_j=arrays["cell_j"],
        )

    def unit_positions(
        self, cells: np.ndarray, jitter_a: np.ndarray, jitter_b: np.ndarray
    ) -> np.ndarray:
        """Positions on the unit cube ``[0,1]^3`` for sampled cells.

        ``jitter_a``/``jitter_b`` place the point uniformly inside the cell
        (the distribution is piecewise constant per cell).
        """
        cells = np.asarray(cells, dtype=np.int64)
        a = (self.cell_i[cells] + np.asarray(jitter_a)) / self.nf
        b = (self.cell_j[cells] + np.asarray(jitter_b)) / self.nf
        return face_points(self.face_axis[cells], self.face_side[cells], a, b)


_T0 = np.array([TRANSVERSE[a][0] for a in range(3)], dtype=np.int64)


def _build(nf: int, modes: int) -> CubeTransitionTable:
    centers = (np.arange(nf) + 0.5) / nf
    k_face = poisson_kernel_face(centers, centers, modes=modes)
    d_par = gradient_kernel_parallel(centers, centers, modes=modes)
    d_side = gradient_kernel_side(centers, centers, modes=modes)

    n_cells = 6 * nf * nf
    prob = np.empty(n_cells, dtype=np.float64)
    face_axis = np.empty(n_cells, dtype=np.int64)
    face_side = np.empty(n_cells, dtype=np.int64)
    cell_i = np.empty(n_cells, dtype=np.int64)
    cell_j = np.empty(n_cells, dtype=np.int64)
    grad = np.zeros((3, n_cells), dtype=np.float64)

    ii, jj = np.meshgrid(np.arange(nf), np.arange(nf), indexing="ij")
    for face in range(6):
        axis, side = divmod(face, 2)
        sl = slice(face * nf * nf, (face + 1) * nf * nf)
        prob[sl] = k_face.ravel()
        face_axis[sl] = axis
        face_side[sl] = side
        cell_i[sl] = ii.ravel()
        cell_j[sl] = jj.ravel()
        ta, tb = TRANSVERSE[axis]
        for g_axis in range(3):
            if g_axis == axis:
                sign = 1.0 if side == 1 else -1.0
                grad[g_axis, sl] = sign * d_par.ravel()
            else:
                # d_side is indexed [transverse, axial]; face cells are
                # indexed [i (=ta), j (=tb)], so transpose when the gradient
                # axis runs along the first face coordinate.
                if g_axis == ta:
                    grad[g_axis, sl] = np.ascontiguousarray(d_side.T).ravel()
                else:
                    grad[g_axis, sl] = d_side.ravel()

    cell_area = 1.0 / (nf * nf)
    total = prob.sum() * cell_area
    prob *= cell_area / total  # probabilities summing to 1

    # Renormalise each gradient axis so the discrete kernel is exact on a
    # unit-slope linear field along that axis.
    centers_full = (np.stack([cell_i, cell_j], axis=0) + 0.5) / nf
    for g_axis in range(3):
        coord = np.empty(n_cells, dtype=np.float64)
        aligned = face_axis == g_axis
        coord[aligned] = face_side[aligned].astype(np.float64)
        side_mask = ~aligned
        ta_arr = _T0[face_axis]
        axial_is_first = ta_arr == g_axis
        coord[side_mask & axial_is_first] = centers_full[0, side_mask & axial_is_first]
        coord[side_mask & ~axial_is_first] = centers_full[1, side_mask & ~axial_is_first]
        response = float((grad[g_axis] * (coord - 0.5)).sum() * cell_area)
        grad[g_axis] /= response

    # Ratio of gradient kernel to the sampling density q = prob / cell_area.
    grad_ratio = grad * (cell_area / prob[None, :])

    return CubeTransitionTable(
        nf=nf,
        cdf=np.cumsum(prob),
        prob=prob,
        grad_ratio=grad_ratio,
        face_axis=face_axis,
        face_side=face_side,
        cell_i=cell_i,
        cell_j=cell_j,
    )


@lru_cache(maxsize=8)
def get_cube_table(
    nf: int = DEFAULT_RESOLUTION, modes: int = DEFAULT_MODES
) -> CubeTransitionTable:
    """Build (or fetch from cache) the transition table at resolution nf."""
    if nf < 2:
        raise ValueError(f"table resolution must be >= 2, got {nf}")
    return _build(nf, modes)
