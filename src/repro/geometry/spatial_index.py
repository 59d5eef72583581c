"""Spatial acceleration for nearest-conductor distance queries.

Every FRW step asks, for a batch of points: *how far is the nearest
conductor box (Chebyshev metric), and which conductor is it?*  The answer
sizes the transition cube and decides absorption.  Two implementations:

* :class:`BruteForceIndex` — vectorised all-pairs distances; exact.  The
  reference the grid is tested against, and the walk-on-spheres engine's
  Euclidean index.  Its compiled descriptor is a one-cell grid with no
  cap, so the walk engine can run on it too.
* :class:`GridIndex` — a uniform grid whose per-cell candidate lists are
  precomputed into flat CSR arrays at build time, so a query is one call
  of a compiled kernel (:func:`repro.native.grid_query`) that scans each
  point's short candidate list.  Since the
  walk engine caps the transition cube at ``h_cap`` anyway, a cell only
  needs candidates within ``h_cap`` of it; queries whose true distance
  exceeds ``h_cap`` report exactly ``h_cap`` with no conductor, which is
  sufficient (and exact) for the engine.

On top of the CSR lists the grid carries a **far-field fast path**
(classic FRW "space management", cf. the RWCap family): at build time
every cell gets a conservative lower bound ``cell_dmin`` and upper bound
``cell_dmax`` on the distance from *any* point in the cell to the nearest
conductor.  A cell with ``cell_dmin >= h_cap`` is *far-field*: all its
points would report exactly ``(h_cap, -1)``, so the query answers them
from a per-cell flag and never touches candidate lists.
``cell_dmax`` additionally prunes candidates at build time: a candidate
whose lower bound to the cell exceeds the cell's best upper bound can
never win (or even tie) for any point in the cell, so it is dropped from
the CSR list.

The grid chooses its own resolution: it builds with cells of
``h_cap / 2`` and, where the pruned lists still average more than
:data:`REFINE_DENSITY` candidates per near-field cell (conductors crowd
within a cap of each other), rebuilds once at ``h_cap / 4``.

The fast path and the resolution preserve the solver's bit-for-bit
DOP-independence guarantee: skipping a query whose answer is provably
``h_cap`` returns the identical value, and pruning only removes candidates
that can never influence the capped minimum (for points inside the
enclosure, which is where walks live; the far-field *mask* is conservative
for arbitrary points).  Any resolution answers every query exactly.

Both index classes return ``(distance, conductor_index)`` with
``conductor_index = -1`` when no conductor is within range.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .. import native
from ..errors import GeometryError
from .box import nearest_box
from .structure import Structure

#: Mean pruned candidates per near-field cell above which a grid built at
#: the default two cells per ``h_cap`` is rebuilt at four.  Table I cases
#: 1-4 and the service's bus nets measure 1.4-2.2 at two cells per cap;
#: the dense SRAM arrays (cases 5 and 6) measure 3.1-3.4.
REFINE_DENSITY = 2.5

#: Most cells a grid may have (~17 bytes each).  A cap that is tiny next
#: to the enclosure would otherwise ask for billions; past this the cells
#: grow, which costs query time only, never a bit of the answers.
MAX_CELLS = 1 << 23

#: Most (point, box) pairs a :class:`BruteForceIndex` block evaluates.
BRUTE_FORCE_CHUNK = 4_000_000


@dataclass
class QueryStats:
    """Telemetry counters of a :class:`GridIndex` (cheap, always on).

    ``candidates_pruned`` is fixed at build time (CSR entries removed by
    the ``cell_dmax`` bound); the remaining counters accumulate per query
    and can be :meth:`reset` between measurement windows.  The owning
    index applies each query's counts as one locked bulk update, so the
    cross-counter invariants (``points == far_field_hits + near_points``)
    hold exactly even when threads share the index.
    """

    queries: int = 0
    points: int = 0
    far_field_hits: int = 0
    near_points: int = 0
    candidates_visited: int = 0
    candidates_pruned: int = 0

    def reset(self) -> None:
        """Zero the per-query counters (build-time counters persist)."""
        self.queries = 0
        self.points = 0
        self.far_field_hits = 0
        self.near_points = 0
        self.candidates_visited = 0

    @property
    def far_field_rate(self) -> float:
        """Fraction of queried points answered by the far-field mask."""
        if self.points == 0:
            return 0.0
        return self.far_field_hits / self.points

    def as_dict(self) -> dict:
        """All counters plus the derived hit rate."""
        return {
            "queries": self.queries,
            "points": self.points,
            "far_field_hits": self.far_field_hits,
            "near_points": self.near_points,
            "candidates_visited": self.candidates_visited,
            "candidates_pruned": self.candidates_pruned,
            "far_field_rate": round(self.far_field_rate, 4),
        }

    def merge(self, other: "QueryStats") -> None:
        """Fold another index's counters into this one (cross-index
        aggregation for the solver's schedule telemetry)."""
        self.queries += other.queries
        self.points += other.points
        self.far_field_hits += other.far_field_hits
        self.near_points += other.near_points
        self.candidates_visited += other.candidates_visited
        self.candidates_pruned += other.candidates_pruned


class BruteForceIndex:
    """Exact nearest-conductor queries via chunked all-pairs distances.

    The all-pairs distance table is evaluated in blocks so that no more
    than :data:`BRUTE_FORCE_CHUNK` (point, box) pairs — three times as many
    float64 temporaries — are materialised at once: :func:`nearest_box`
    already chunks over *boxes* when there are many, and the index
    additionally chunks over *points*, so neither a huge structure nor a
    huge query batch can blow memory.
    """

    def __init__(self, structure: Structure):
        self._lo, self._hi, self._owner = structure.box_arrays
        self._grid = None

    def _query(
        self, points: np.ndarray, metric: str
    ) -> tuple[np.ndarray, np.ndarray]:
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        m = self._lo.shape[0]
        block = max(1, BRUTE_FORCE_CHUNK // max(m, 1))
        if n <= block:
            dist, box_idx = nearest_box(
                points, self._lo, self._hi, metric=metric, chunk=BRUTE_FORCE_CHUNK
            )
            cond = np.where(box_idx >= 0, self._owner[box_idx], -1)
            return dist, cond
        dist = np.empty(n, dtype=np.float64)
        cond = np.empty(n, dtype=np.int64)
        for start in range(0, n, block):
            stop = min(n, start + block)
            d, box_idx = nearest_box(
                points[start:stop],
                self._lo,
                self._hi,
                metric=metric,
                chunk=BRUTE_FORCE_CHUNK,
            )
            dist[start:stop] = d
            cond[start:stop] = np.where(box_idx >= 0, self._owner[box_idx], -1)
        return dist, cond

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest Chebyshev distance and conductor index per point."""
        return self._query(points, "linf")

    def query_l2(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Euclidean variant (used by the walk-on-spheres engine)."""
        return self._query(points, "l2")

    def descriptor(self) -> native.Grid:
        """The compiled query's state: a one-cell grid with no cap, whose
        cell is near-field and lists every box in ascending order, so the
        compiled scan answers exactly what :meth:`query` does.  Built on
        first use."""
        if self._grid is None:
            m = self._lo.shape[0]
            self._grid = native.grid(
                np.inf,
                np.zeros(3),
                np.zeros(3),
                np.ones(3, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                near=np.ones(1, dtype=bool),
                indptr=np.array([0, m]),
                indices=np.arange(m),
                lo=self._lo,
                hi=self._hi,
                owner=self._owner,
            )
        return self._grid

    def count_query(
        self, points: int, near: int, visited: int, queries: int = 1
    ) -> None:
        """The brute-force index keeps no query counters."""


class GridIndex:
    """Uniform-grid candidate index with a distance cap and a far-field
    fast path.

    Parameters
    ----------
    structure:
        The geometry to index.
    h_cap:
        Maximum distance of interest.  Queries farther than ``h_cap`` from
        every conductor return ``(h_cap, -1)``.
    resolution:
        Cells per ``h_cap`` along each axis (>= 1).  ``None`` (the
        default) derives it from the structure: 2, or 4 when the lists
        built at 2 average more than :data:`REFINE_DENSITY` candidates per
        near-field cell.  Any resolution gives bit-identical answers;
        finer cells cost ~17 bytes each of bounds memory plus the larger
        CSR ``indptr``.
    """

    def __init__(
        self,
        structure: Structure,
        h_cap: float,
        resolution: int | None = None,
    ):
        if h_cap <= 0:
            raise GeometryError(f"h_cap must be positive, got {h_cap}")
        if resolution is not None and resolution < 1:
            raise GeometryError(f"resolution must be >= 1, got {resolution}")
        self.h_cap = float(h_cap)
        self.stats = QueryStats()
        # Bulk counter updates take this lock, so stats invariants hold
        # exactly when worker threads share the index.
        self._stats_lock = threading.Lock()
        self._lo, self._hi, self._owner = structure.box_arrays
        # The compiled query's state, made on the first query.
        self._grid = None
        # Per-axis contiguous columns of the box bounds for the build's
        # 1-D lattice arithmetic.
        self._lo_ax = tuple(
            np.ascontiguousarray(self._lo[:, a]) for a in range(3)
        )
        self._hi_ax = tuple(
            np.ascontiguousarray(self._hi[:, a]) for a in range(3)
        )
        enc = structure.enclosure
        self._origin = np.asarray(enc.lo, dtype=np.float64)
        self._extent = np.asarray(enc.hi, dtype=np.float64) - self._origin
        if resolution is None:
            counts, cells, boxes = self._build(2)
            near = np.count_nonzero(counts)
            if near and cells.shape[0] > REFINE_DENSITY * near:
                counts, cells, boxes = self._build(4)
        else:
            counts, cells, boxes = self._build(int(resolution))
        # Candidates in ascending box order within each cell, so ties
        # resolve exactly as the brute-force argmin does.  The composite
        # keys are unique (a box meets a cell at most once), so the fast
        # unstable sort orders them deterministically.
        m = self._lo.shape[0]
        keys = cells * m
        keys += boxes
        keys.sort()
        self._indices = keys % m
        self._indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._near = self._cell_dmin < self.h_cap

    def _build(
        self, resolution: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lay a grid of ``resolution`` cells per ``h_cap`` and list every
        cell's candidates; returns ``(counts, cells, boxes)``, the per-cell
        candidate counts and the (cell, box) pairs in box-major order.

        A conductor box is a candidate of every cell within ``h_cap``
        (Chebyshev) of it; the cell ranges are computed with one outward
        guard cell so rounding can only *add* candidates, which is harmless
        — a candidate farther than ``h_cap`` can never win a capped query.
        Everything runs on 1-D columns: per axis, each box's cell range is
        a short run of a small ``(box, cell coordinate)`` lattice, and a
        (box, cell) incidence is one lattice entry per axis.  Incidences
        are expanded row-wise — one row per (box, z, y), each row a run of
        consecutive x cells — with no per-box Python loop.

        The same incidences yield the far-field bounds.  Per pair, the
        Chebyshev distance from a point ``p`` in cell
        ``[cl, ch]`` to box ``[blo, bhi]`` ranges over exactly
        ``[max_ax max(blo-ch, cl-bhi, 0), max_ax max(blo-cl, ch-bhi, 0)]``
        (per-axis 1-D distances are independent, so min/max over the cell
        factorise through the outer max).  The per-axis terms are computed
        once per lattice entry and combined per pair by elementwise
        maxima, which are exact; per cell, ``cell_dmin = min d_lo`` and
        ``cell_dmax = min d_hi``.  The lower bound also holds for points
        *outside* the grid that clip into the cell, so the far-field mask
        is conservative everywhere.  Pairs with ``d_lo >= h_cap`` (can
        never beat the cap) or ``d_lo > cell_dmax`` (some other box is
        closer to every point of the cell) are pruned — they can never set
        the capped minimum nor the winner, so queries stay bit-identical.

        The cell regions are padded by a few ULPs of the enclosure
        coordinates before the bounds are taken: cell *assignment* rounds
        ``(p - origin) * inv_cell`` in floating point, so a point can land
        in a neighbouring cell when it sits within an ULP of a boundary.
        The padding makes every bound valid for any point the query maps
        into the cell, keeping the fast path exact even for adversarially
        boundary-aligned coordinates (it is purely conservative: a few
        boundary cells lose their far-field flag, never the reverse).
        """
        self.resolution = resolution
        per_axis = np.minimum(self._extent / (self.h_cap / resolution), MAX_CELLS)
        while np.prod(np.maximum(per_axis, 1.0)) > MAX_CELLS:
            per_axis = per_axis / 2
        self._n_cells = np.maximum(1, np.floor(per_axis).astype(np.int64))
        self._cell = self._extent / self._n_cells
        self._inv_cell = 1.0 / self._cell
        self._cell_max = self._n_cells - 1
        nx, ny, _nz = (int(v) for v in self._n_cells)
        n_cells = int(np.prod(self._n_cells))
        m = self._lo.shape[0]
        self._cell_dmin = np.full(n_cells, np.inf, dtype=np.float64)
        self._cell_dmax = np.full(n_cells, np.inf, dtype=np.float64)
        pad = 4.0 * np.spacing(
            np.maximum(
                np.abs(self._origin),
                np.abs(self._origin + self._n_cells * self._cell),
            )
        )
        # Per axis: each box's first cell, its cell count, its run's start
        # in the axis lattice, and the lattice's interval distances.
        first, ext, run, lat_lo, lat_hi = [], [], [], [], []
        for a in range(3):
            origin, cell = self._origin[a], self._cell[a]
            i0 = np.floor(
                (self._lo_ax[a] - self.h_cap - origin) / cell
            ).astype(np.int64)
            i0 -= 1
            i1 = np.floor(
                (self._hi_ax[a] + self.h_cap - origin) / cell
            ).astype(np.int64)
            i1 += 1
            for ix in (i0, i1):
                np.maximum(ix, 0, out=ix)
                np.minimum(ix, int(self._cell_max[a]), out=ix)
            n = i1 - i0 + 1  # all >= 1
            start = np.cumsum(n) - n
            first.append(i0)
            ext.append(n)
            run.append(start)
            box = np.repeat(np.arange(m, dtype=np.int64), n)
            ijk = np.arange(box.shape[0], dtype=np.int64)
            ijk += np.repeat(i0 - start, n)
            cl = origin + ijk * cell - pad[a]
            ch = cl + cell + 2.0 * pad[a]
            blo = self._lo_ax[a][box]
            bhi = self._hi_ax[a][box]
            lat_lo.append(np.maximum(np.maximum(blo - ch, cl - bhi), 0.0))
            lat_hi.append(np.maximum(np.maximum(blo - cl, ch - bhi), 0.0))
        # Rows: one per (box, z, y), y fastest, each a run of ext_x cells.
        per_box = ext[1] * ext[2]
        row_box = np.repeat(np.arange(m, dtype=np.int64), per_box)
        r = np.arange(row_box.shape[0], dtype=np.int64)
        r -= np.repeat(np.cumsum(per_box) - per_box, per_box)
        ey = ext[1][row_box]
        tj = r % ey
        tk = r // ey
        row_len = ext[0][row_box]
        row_start = np.cumsum(row_len) - row_len
        row_cell = (first[2][row_box] + tk) * ny
        row_cell += first[1][row_box] + tj
        row_cell *= nx
        row_cell += first[0][row_box]
        # Incidences: entry t of the flat table is x offset t - row_start
        # within its row.
        t = np.arange(int(row_start[-1] + row_len[-1]), dtype=np.int64)
        cells = t + np.repeat(row_cell - row_start, row_len)
        boxes = np.repeat(row_box, row_len)
        gy = run[1][row_box] + tj
        gz = run[2][row_box] + tk
        gx = t + np.repeat(run[0][row_box] - row_start, row_len)
        # y and z terms are constant along a row.
        d_lo = np.repeat(np.maximum(lat_lo[1][gy], lat_lo[2][gz]), row_len)
        np.maximum(d_lo, lat_lo[0][gx], out=d_lo)
        d_hi = np.repeat(np.maximum(lat_hi[1][gy], lat_hi[2][gz]), row_len)
        np.maximum(d_hi, lat_hi[0][gx], out=d_hi)
        # Minima are exact, so the unordered scatter gives the same bits as
        # any reduction order.
        np.minimum.at(self._cell_dmin, cells, d_lo)
        np.minimum.at(self._cell_dmax, cells, d_hi)
        keep = d_lo < self.h_cap
        keep &= d_lo <= self._cell_dmax[cells]
        self.stats.candidates_pruned = int(
            cells.shape[0] - np.count_nonzero(keep)
        )
        cells = cells[keep]
        boxes = boxes[keep]
        return np.bincount(cells, minlength=n_cells), cells, boxes

    @property
    def n_far_cells(self) -> int:
        """Cells whose lower bound proves the capped answer outright."""
        return int(self._near.shape[0] - np.count_nonzero(self._near))

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Capped nearest Chebyshev distance and conductor index per point.

        One call of the compiled grid kernel (:func:`repro.native.grid_query`)
        looks up every point's cell, answers far-field cells with
        ``(h_cap, -1)`` and scans the candidate lists of near ones, keeping
        the first lowest box.  ``points`` must be ``(n, 3)``: the kernel
        reads three doubles per row.
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise GeometryError(
                f"query needs (n, 3) points, got shape {points.shape}"
            )
        dist, cond, near, visited = native.grid_query(self.descriptor(), points)
        self.count_query(points.shape[0], near, visited)
        return dist, cond

    def descriptor(self) -> native.Grid:
        """The compiled query's state (:func:`repro.native.grid`), built
        on first use; the walk engine's query reads it too."""
        if self._grid is None:
            self._grid = native.grid(
                self.h_cap,
                self._origin,
                self._inv_cell,
                self._n_cells,
                self._cell_max,
                near=self._near,
                indptr=self._indptr,
                indices=self._indices,
                lo=self._lo,
                hi=self._hi,
                owner=self._owner,
            )
        return self._grid

    def count_query(
        self, points: int, near: int, visited: int, queries: int = 1
    ) -> None:
        """Add ``queries`` queries of ``points`` points in all, ``near`` of
        them near-field with ``visited`` candidates scanned, to
        :attr:`stats` as one locked update."""
        with self._stats_lock:
            st = self.stats
            st.queries += queries
            st.points += points
            st.far_field_hits += points - near
            st.near_points += near
            st.candidates_visited += visited


def build_index(structure: Structure, h_cap: float) -> GridIndex:
    """The spatial index the walk engine queries: a :class:`GridIndex`.

    The far-field fast path makes the grid the winner at every structure
    size (most FRW steps happen in open space and skip the candidate
    gather entirely), so there is no brute-force selection.
    """
    return GridIndex(structure, h_cap=h_cap)
