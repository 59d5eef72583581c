"""Spatial acceleration for nearest-conductor distance queries.

Every FRW step asks, for a batch of points: *how far is the nearest
conductor box (Chebyshev metric), and which conductor is it?*  The answer
sizes the transition cube and decides absorption.  Two implementations:

* :class:`BruteForceIndex` — vectorised all-pairs distances; exact, best for
  small structures when the far-field fast path is disabled.
* :class:`GridIndex` — a uniform grid whose per-cell candidate lists are
  precomputed into flat CSR arrays at build time, so a query is a fully
  vectorised gather + segment-min with no per-cell Python loop.  Since the
  walk engine caps the transition cube at ``h_cap`` anyway, a cell only
  needs candidates within ``h_cap`` of it; queries whose true distance
  exceeds ``h_cap`` report exactly ``h_cap`` with no conductor, which is
  sufficient (and exact) for the engine.

On top of the CSR lists the grid carries a **two-tier fast path**
(classic FRW "space management", cf. the RWCap family):

* **Tier 1 — per-cell distance bounds.**  At build time every cell gets a
  conservative lower bound ``cell_dmin`` and upper bound ``cell_dmax`` on
  the distance from *any* point in the cell to the nearest conductor.  A
  cell with ``cell_dmin >= h_cap`` is *far-field*: all its points would
  report exactly ``(h_cap, -1)``, so the query answers them with a single
  vectorised mask and never touches candidate lists.  ``cell_dmax``
  additionally prunes candidates at build time: a candidate whose lower
  bound to the cell exceeds the cell's best upper bound can never win (or
  even tie) for any point in the cell, so it is dropped from the CSR list.
* **Tier 2 — cell-sorted gather.**  Surviving near-field points are
  processed in cell-id order: points sharing a cell form runs, the
  candidate rows and box coordinates are gathered once per *unique* cell
  into a compact table, and per-point distances index into that warm
  table.  Results are scattered back by original position, so the output
  is bit-identical to the unsorted gather (all per-point arithmetic is
  elementwise and each point's candidate order is unchanged).

Both tiers preserve the solver's bit-for-bit DOP-independence guarantee:
skipping a query whose answer is provably ``h_cap`` returns the identical
value, and pruning only removes candidates that can never influence the
capped minimum (for points inside the enclosure, which is where walks
live; the far-field *mask* is conservative for arbitrary points).

Both index classes return ``(distance, conductor_index)`` with
``conductor_index = -1`` when no conductor is within range.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .box import nearest_box
from .structure import Structure


@dataclass
class QueryStats:
    """Telemetry counters of a :class:`GridIndex` (cheap, always on).

    ``candidates_pruned`` is fixed at build time (CSR entries removed by
    the ``cell_dmax`` bound); the remaining counters accumulate per query
    and can be :meth:`reset` between measurement windows.  The owning
    index applies each query's counts as one locked bulk update, so the
    cross-counter invariants (``points == far_field_hits + near_points``)
    hold exactly even when pool threads share the index.
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
        """Fraction of queried points answered by the tier-1 mask."""
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
    than ``chunk_budget`` (point, box) pairs — i.e. ``3 * chunk_budget``
    float64 temporaries — are materialised at once: :func:`nearest_box`
    already chunks over *boxes* when there are many, and the index
    additionally chunks over *points*, so neither a huge structure nor a
    huge query batch can blow memory.

    Parameters
    ----------
    structure:
        The geometry to index.
    chunk_budget:
        Maximum (point, box) pairs evaluated per block.
    """

    def __init__(self, structure: Structure, chunk_budget: int = 4_000_000):
        if chunk_budget < 1:
            raise GeometryError(
                f"chunk_budget must be positive, got {chunk_budget}"
            )
        self._lo, self._hi, self._owner = structure.box_arrays
        self.chunk_budget = int(chunk_budget)

    def _query(
        self, points: np.ndarray, metric: str
    ) -> tuple[np.ndarray, np.ndarray]:
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        m = self._lo.shape[0]
        block = max(1, self.chunk_budget // max(m, 1))
        if n <= block:
            dist, box_idx = nearest_box(
                points, self._lo, self._hi, metric=metric, chunk=self.chunk_budget
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
                chunk=self.chunk_budget,
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

    def packed(self) -> tuple[dict, dict]:
        """(scalars, arrays) split for shared-memory publication."""
        scalars = {"kind": "brute", "chunk_budget": self.chunk_budget}
        arrays = {"lo": self._lo, "hi": self._hi, "owner": self._owner}
        return scalars, arrays

    @classmethod
    def from_packed(cls, scalars: dict, arrays: dict) -> "BruteForceIndex":
        """Rebuild an index from :meth:`packed` state (worker-side attach).
        The arrays may be read-only shared views — queries never write."""
        self = cls.__new__(cls)
        self._lo = arrays["lo"]
        self._hi = arrays["hi"]
        self._owner = arrays["owner"]
        self.chunk_budget = int(scalars["chunk_budget"])
        return self


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
    cell_size:
        Grid cell edge; defaults to ``h_cap / bounds_resolution``.
    far_field:
        Enable the tier-1 per-cell bounds: far-field cells answer without
        touching candidate lists, and provably-losing candidates are
        pruned from the CSR lists at build time.
    sort_queries:
        Enable the tier-2 cell-sorted near-field gather (deduplicated
        per-unique-cell candidate tables, results scattered back in
        original point order).
    bounds_resolution:
        Cells per ``h_cap`` along each axis (>= 1).  Finer cells give
        tighter bounds — more far-field cells, shorter candidate lists —
        at ~17 bytes per cell of bounds memory plus the larger CSR
        ``indptr``.
    """

    def __init__(
        self,
        structure: Structure,
        h_cap: float,
        cell_size: float | None = None,
        far_field: bool = True,
        sort_queries: bool = True,
        bounds_resolution: int = 2,
    ):
        if h_cap <= 0:
            raise GeometryError(f"h_cap must be positive, got {h_cap}")
        if bounds_resolution < 1:
            raise GeometryError(
                f"bounds_resolution must be >= 1, got {bounds_resolution}"
            )
        self.h_cap = float(h_cap)
        self.far_field = bool(far_field)
        self.sort_queries = bool(sort_queries)
        self.bounds_resolution = int(bounds_resolution)
        self.stats = QueryStats()
        # Bulk counter updates take this lock, so stats invariants hold
        # exactly when pool threads share the index (fork workers each
        # inherit their own copy; the lock is never pickled).
        self._stats_lock = threading.Lock()
        self._lo, self._hi, self._owner = structure.box_arrays
        # Structure-of-arrays views of the box bounds: per-axis contiguous
        # columns make the hot gather a handful of fast 1-D fancy indexes
        # instead of (n, 3) row gathers and axis-1 reductions, which are
        # dramatically slower in numpy for 3-wide rows.
        self._lo_ax = tuple(
            np.ascontiguousarray(self._lo[:, a]) for a in range(3)
        )
        self._hi_ax = tuple(
            np.ascontiguousarray(self._hi[:, a]) for a in range(3)
        )
        enc = structure.enclosure
        self._origin = np.asarray(enc.lo, dtype=np.float64)
        extent = np.asarray(enc.hi, dtype=np.float64) - self._origin
        edge = (
            float(cell_size)
            if cell_size is not None
            else self.h_cap / self.bounds_resolution
        )
        self._n_cells = np.maximum(
            1, np.floor(extent / edge).astype(np.int64)
        )
        self._cell = extent / self._n_cells
        self._inv_cell = 1.0 / self._cell
        self._cell_max = self._n_cells - 1
        self._build_csr()

    def _axis_cells(self, points: np.ndarray, axis: int) -> np.ndarray:
        """Clipped cell coordinate of every point along one axis.

        int64 truncation equals floor for non-negative relatives; negative
        relatives land in ``(-n, 1)`` either way and the clip pins them to
        cell 0, so the result matches the floor+clip formulation exactly.
        """
        rel = np.subtract(points[:, axis], self._origin[axis])
        rel *= self._inv_cell[axis]
        ijk = rel.astype(np.int64)
        np.maximum(ijk, 0, out=ijk)
        return np.minimum(ijk, int(self._cell_max[axis]), out=ijk)

    def _cell_ids(self, points: np.ndarray) -> np.ndarray:
        # Per-axis arithmetic: 1-D column ops instead of (n, 3) broadcasts.
        ids = self._axis_cells(points, 2)
        ids *= int(self._n_cells[1])
        ids += self._axis_cells(points, 1)
        ids *= int(self._n_cells[0])
        ids += self._axis_cells(points, 0)
        return ids

    def _build_csr(self) -> None:
        """Precompute per-cell candidate lists as flat CSR arrays.

        A conductor box is a candidate of every cell within ``h_cap``
        (Chebyshev) of it; the cell ranges are computed with one outward
        guard cell so rounding can only *add* candidates, which is harmless
        — a candidate farther than ``h_cap`` can never win a capped query.
        Within each cell, candidates are stored in ascending box order so
        ties resolve exactly as the brute-force argmin does.

        The (box, cell) incidence table is built by a batched cell-range
        expansion — per-box extents are decomposed into flat lattice offsets
        with vectorised div/mod arithmetic — so build time is O(total
        incidences) with no per-box Python loop.

        With ``far_field`` enabled the same incidence table yields the
        tier-1 bounds: per (cell, box) pair the box-to-cell Chebyshev
        distance interval ``[d_lo, d_hi]`` (exact per-axis interval
        arithmetic), reduced per cell to ``cell_dmin = min d_lo`` and
        ``cell_dmax = min d_hi``.  Pairs with ``d_lo >= h_cap`` (can never
        beat the cap) or ``d_lo > cell_dmax`` (some other box is closer to
        every point of the cell) are pruned from the CSR lists — they can
        never set the capped minimum nor the winner, so queries stay
        bit-identical.
        """
        nx, ny, nz = (int(v) for v in self._n_cells)
        n_cells = nx * ny * nz
        m = self._lo.shape[0]
        self._cell_dmin = np.full(n_cells, np.inf, dtype=np.float64)
        self._cell_dmax = np.full(n_cells, np.inf, dtype=np.float64)
        if m:
            limits = np.array([nx, ny, nz], dtype=np.int64)
            lo = (self._lo - self.h_cap - self._origin[None, :]) / self._cell[None, :]
            hi = (self._hi + self.h_cap - self._origin[None, :]) / self._cell[None, :]
            i0 = np.clip(
                np.floor(lo).astype(np.int64) - 1, 0, limits[None, :] - 1
            )
            i1 = np.clip(
                np.floor(hi).astype(np.int64) + 1, 0, limits[None, :] - 1
            )
            ext = i1 - i0 + 1  # (m, 3) per-axis cell counts, all >= 1
            per_box = ext[:, 0] * ext[:, 1] * ext[:, 2]
            total = int(per_box.sum())
            all_boxes = np.repeat(np.arange(m, dtype=np.int64), per_box)
            # Offset within each box's lattice, x fastest (matching the
            # historical (kk, jj, ii) ravel order), decomposed by div/mod.
            starts = np.cumsum(per_box) - per_box
            t = np.arange(total, dtype=np.int64) - np.repeat(starts, per_box)
            ex = ext[all_boxes, 0]
            ti = t % ex
            r = t // ex
            ey = ext[all_boxes, 1]
            tj = r % ey
            tk = r // ey
            all_cells = (
                (i0[all_boxes, 2] + tk) * ny + (i0[all_boxes, 1] + tj)
            ) * nx + (i0[all_boxes, 0] + ti)
            # Stable cell sort; all_boxes is non-decreasing, so candidates
            # stay in ascending box order within each cell.
            order = np.argsort(all_cells, kind="stable")
            all_boxes = all_boxes[order]
            all_cells = all_cells[order]
            counts = np.bincount(all_cells, minlength=n_cells)
            if self.far_field:
                all_boxes, counts = self._build_bounds_and_prune(
                    all_boxes, all_cells, counts
                )
            self._indices = all_boxes
        else:
            self._indices = np.empty(0, dtype=np.int64)
            counts = np.zeros(n_cells, dtype=np.int64)
        self._indptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._far = self._cell_dmin >= self.h_cap
        self._near = ~self._far

    def _build_bounds_and_prune(
        self,
        all_boxes: np.ndarray,
        all_cells: np.ndarray,
        counts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tier-1 bounds from the cell-sorted incidence table, then prune.

        Per pair, the Chebyshev distance from a point ``p`` in cell
        ``[cl, ch]`` to box ``[blo, bhi]`` ranges over exactly
        ``[max_ax max(blo-ch, cl-bhi, 0), max_ax max(blo-cl, ch-bhi, 0)]``
        (per-axis 1-D distances are independent, so min/max over the cell
        factorise through the outer max).  The lower bound also holds for
        points *outside* the grid that clip into the cell, so the
        far-field mask is conservative everywhere.

        The cell regions are padded by a few ULPs of the enclosure
        coordinates before the bounds are taken: cell *assignment* rounds
        ``(p - origin) * inv_cell`` in floating point, so a point can land
        in a neighbouring cell when it sits within an ULP of a boundary.
        The padding makes every bound valid for any point the query maps
        into the cell, keeping the fast path exact even for adversarially
        boundary-aligned coordinates (it is purely conservative: a few
        boundary cells lose their far-field flag, never the reverse).
        """
        n_cells = counts.shape[0]
        ijk = np.empty((all_cells.shape[0], 3), dtype=np.int64)
        nx, ny = int(self._n_cells[0]), int(self._n_cells[1])
        ijk[:, 0] = all_cells % nx
        rest = all_cells // nx
        ijk[:, 1] = rest % ny
        ijk[:, 2] = rest // ny
        pad = 4.0 * np.spacing(
            np.maximum(
                np.abs(self._origin),
                np.abs(self._origin + self._n_cells * self._cell),
            )
        )
        cl = self._origin[None, :] + ijk * self._cell[None, :] - pad[None, :]
        ch = cl + self._cell[None, :] + 2.0 * pad[None, :]
        blo = self._lo[all_boxes]
        bhi = self._hi[all_boxes]
        d_lo = np.maximum(np.maximum(blo - ch, cl - bhi), 0.0).max(axis=1)
        d_hi = np.maximum(np.maximum(blo - cl, ch - bhi), 0.0).max(axis=1)
        seg_starts = np.cumsum(counts) - counts
        nzc = counts > 0
        self._cell_dmin[nzc] = np.fmin.reduceat(d_lo, seg_starts[nzc])
        self._cell_dmax[nzc] = np.fmin.reduceat(d_hi, seg_starts[nzc])
        keep = (d_lo < self.h_cap) & (d_lo <= self._cell_dmax[all_cells])
        self.stats.candidates_pruned = int(
            all_boxes.shape[0] - np.count_nonzero(keep)
        )
        if self.stats.candidates_pruned:
            all_boxes = all_boxes[keep]
            counts = np.bincount(all_cells[keep], minlength=n_cells)
        return all_boxes, counts

    def packed(self) -> tuple[dict, dict]:
        """(scalars, arrays) split for shared-memory publication.

        The big build products — geometry SoA, CSR lists, tier-1 bounds —
        go in ``arrays`` (shared); the grid geometry vectors are tiny and
        travel in ``scalars`` (pickled), preserving their exact bits.
        """
        scalars = {
            "kind": "grid",
            "h_cap": self.h_cap,
            "far_field": self.far_field,
            "sort_queries": self.sort_queries,
            "bounds_resolution": self.bounds_resolution,
            "candidates_pruned": int(self.stats.candidates_pruned),
            "origin": self._origin,
            "n_cells": self._n_cells,
            "cell": self._cell,
            "inv_cell": self._inv_cell,
            "cell_max": self._cell_max,
        }
        arrays = {
            "lo": self._lo,
            "hi": self._hi,
            "owner": self._owner,
            "indptr": self._indptr,
            "indices": self._indices,
            "cell_dmin": self._cell_dmin,
            "cell_dmax": self._cell_dmax,
        }
        return scalars, arrays

    @classmethod
    def from_packed(cls, scalars: dict, arrays: dict) -> "GridIndex":
        """Rebuild an index from :meth:`packed` state (worker-side attach).

        The packed arrays may be read-only shared views.  Derived state —
        the far/near cell masks and the SoA axis columns — is recomputed
        locally by the same expressions the building constructor uses, so
        queries are bit-identical to the published index.  Stats counters
        start fresh (each attaching process accumulates its own telemetry)
        except the build-time ``candidates_pruned``, which is carried over.
        """
        self = cls.__new__(cls)
        self.h_cap = float(scalars["h_cap"])
        self.far_field = bool(scalars["far_field"])
        self.sort_queries = bool(scalars["sort_queries"])
        self.bounds_resolution = int(scalars["bounds_resolution"])
        self.stats = QueryStats(
            candidates_pruned=int(scalars["candidates_pruned"])
        )
        self._stats_lock = threading.Lock()
        self._lo = arrays["lo"]
        self._hi = arrays["hi"]
        self._owner = arrays["owner"]
        self._lo_ax = tuple(
            np.ascontiguousarray(self._lo[:, a]) for a in range(3)
        )
        self._hi_ax = tuple(
            np.ascontiguousarray(self._hi[:, a]) for a in range(3)
        )
        self._origin = np.asarray(scalars["origin"], dtype=np.float64)
        self._n_cells = np.asarray(scalars["n_cells"], dtype=np.int64)
        self._cell = np.asarray(scalars["cell"], dtype=np.float64)
        self._inv_cell = np.asarray(scalars["inv_cell"], dtype=np.float64)
        self._cell_max = np.asarray(scalars["cell_max"], dtype=np.int64)
        self._indptr = arrays["indptr"]
        self._indices = arrays["indices"]
        self._cell_dmin = arrays["cell_dmin"]
        self._cell_dmax = arrays["cell_dmax"]
        self._far = self._cell_dmin >= self.h_cap
        self._near = ~self._far
        return self

    @property
    def n_far_cells(self) -> int:
        """Cells whose lower bound proves the capped answer outright."""
        return int(np.count_nonzero(self._far))

    @property
    def bounds_nbytes(self) -> int:
        """Memory of the tier-1 bounds arrays (dmin + dmax + far mask)."""
        return (
            self._cell_dmin.nbytes + self._cell_dmax.nbytes + self._far.nbytes
        )

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Capped nearest Chebyshev distance and conductor index per point."""
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        dist = np.empty(n, dtype=np.float64)
        cond = np.empty(n, dtype=np.int64)
        self.query_into(points, dist, cond)
        return dist, cond

    def query_into(
        self,
        points: np.ndarray,
        dist: np.ndarray,
        cond: np.ndarray,
        timers=None,
        t0: float = 0.0,
    ) -> float:
        """Query into preallocated ``dist``/``cond`` views (length ``n``).

        The engine's zero-allocation entry point.  When ``timers`` (a
        :class:`~repro.frw.engine.StageTimers`) is given, the tier-1 mask
        split is charged to the ``index_fast`` stage and the near-field
        gather to ``index``; returns the rolling timestamp.
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        dist[:] = self.h_cap
        cond[:] = -1
        if n == 0 or self._lo.shape[0] == 0:
            with self._stats_lock:
                self.stats.queries += 1
                self.stats.points += n
                self.stats.far_field_hits += n
            if timers is not None:
                t0 = timers.lap("index_fast", t0)
            return t0
        cell_ids = self._cell_ids(points)
        if self.far_field:
            near = np.nonzero(self._near[cell_ids])[0]
        else:
            near = np.arange(n, dtype=np.int64)
        if timers is not None:
            t0 = timers.lap("index_fast", t0)
        visited = 0
        if near.shape[0]:
            if self.sort_queries and near.shape[0] > 1:
                # Tier 2: process near points in cell order; `near` carries
                # the original positions, so writes through it restore
                # point order exactly (no separate inverse permutation).
                # Any deterministic grouping permutation gives identical
                # bits — each point's answer lands in its own slot and its
                # candidate order is its cell's CSR order regardless of
                # where the point sits in the batch — so the default
                # introsort is used (stability is unnecessary).
                near = near[np.argsort(cell_ids[near])]
                visited = self._gather_sorted(points, cell_ids, near, dist, cond)
            else:
                visited = self._gather(points, cell_ids, near, dist, cond)
        with self._stats_lock:
            st = self.stats
            st.queries += 1
            st.points += n
            st.far_field_hits += n - near.shape[0]
            st.near_points += near.shape[0]
            st.candidates_visited += visited
        if timers is not None:
            t0 = timers.lap("index", t0)
        return t0

    def _gather(
        self,
        points: np.ndarray,
        cell_ids: np.ndarray,
        sel: np.ndarray,
        dist: np.ndarray,
        cond: np.ndarray,
    ) -> int:
        """Flat (point, candidate) gather + segment-min for the selected
        points (the historical full-batch path, now subset-capable).
        Returns the number of candidate rows visited."""
        k = sel.shape[0]
        cells = cell_ids[sel]
        start = self._indptr[cells]
        cnt = self._indptr[cells + 1] - start
        offs = np.cumsum(cnt) - cnt
        total = int(offs[-1] + cnt[-1])
        if total == 0:
            return 0
        # Flat (point, candidate) pairs: point i contributes cnt[i] rows, in
        # CSR (ascending box) order within each point.
        pt = np.repeat(np.arange(k, dtype=np.int64), cnt)
        flat = np.arange(total, dtype=np.int64) + np.repeat(start - offs, cnt)
        cand = self._indices[flat]
        d = self._pair_dist(points, sel[pt], cand)
        win = self._reduce(d, cnt, offs, pt, sel, dist, cond)
        if win.shape[0]:
            cond[sel[pt[win]]] = self._owner[cand[win]]
        return total

    def _pair_dist(
        self, points: np.ndarray, rows: np.ndarray, cand: np.ndarray
    ) -> np.ndarray:
        """Chebyshev point-to-box distance per flat (point, candidate) pair,
        accumulated axis by axis over the SoA box columns (1-D gathers and
        elementwise maxima; no (n, 3) temporaries or axis-1 reductions)."""
        d = None
        for a in range(3):
            pa = points[:, a][rows]
            g = self._lo_ax[a][cand]
            np.subtract(g, pa, out=g)
            np.subtract(pa, self._hi_ax[a][cand], out=pa)
            np.maximum(g, pa, out=g)
            if d is None:
                d = g
            else:
                np.maximum(d, g, out=d)
        np.maximum(d, 0.0, out=d)
        return d

    def _gather_sorted(
        self,
        points: np.ndarray,
        cell_ids: np.ndarray,
        sel: np.ndarray,
        dist: np.ndarray,
        cond: np.ndarray,
    ) -> int:
        """Cell-sorted gather: candidate rows and box coordinates are read
        once per *unique* cell (CSR order, cache-friendly), and per-point
        pair rows index into that compact table.  Identical arithmetic to
        :meth:`_gather` — per point, the same candidates in the same order
        — so results are bit-identical.  Returns the number of candidate
        rows visited."""
        k = sel.shape[0]
        cells = cell_ids[sel]  # non-decreasing (sel is cell-sorted)
        new_run = np.empty(k, dtype=bool)
        new_run[0] = True
        np.not_equal(cells[1:], cells[:-1], out=new_run[1:])
        ucells = cells[new_run]
        u_start = self._indptr[ucells]
        u_cnt = self._indptr[ucells + 1] - u_start
        u_off = np.cumsum(u_cnt) - u_cnt
        total_u = int(u_off[-1] + u_cnt[-1])
        run_id = np.cumsum(new_run) - 1  # point -> unique-cell position
        cnt = u_cnt[run_id]
        offs = np.cumsum(cnt) - cnt
        total = int(offs[-1] + cnt[-1])
        if total == 0:
            return 0
        # Compact per-unique-cell candidate table: one CSR gather per cell
        # run instead of one per point.
        flat_u = np.arange(total_u, dtype=np.int64) + np.repeat(
            u_start - u_off, u_cnt
        )
        cand_u = self._indices[flat_u]
        # Per-point pair rows -> compact-table rows.
        pt = np.repeat(np.arange(k, dtype=np.int64), cnt)
        crow = np.arange(total, dtype=np.int64) + np.repeat(
            u_off[run_id] - offs, cnt
        )
        rows = sel[pt]
        d = None
        for a in range(3):
            pa = points[:, a][rows]
            lo_u = self._lo_ax[a][cand_u]
            g = lo_u[crow]
            np.subtract(g, pa, out=g)
            hi_u = self._hi_ax[a][cand_u]
            np.subtract(pa, hi_u[crow], out=pa)
            np.maximum(g, pa, out=g)
            if d is None:
                d = g
            else:
                np.maximum(d, g, out=d)
        np.maximum(d, 0.0, out=d)
        win = self._reduce(d, cnt, offs, pt, sel, dist, cond)
        if win.shape[0]:
            # Only the winning rows expand through the compact table.
            cond[sel[pt[win]]] = self._owner[cand_u[crow[win]]]
        return total

    def _reduce(
        self,
        d: np.ndarray,
        cnt: np.ndarray,
        offs: np.ndarray,
        pt: np.ndarray,
        sel: np.ndarray,
        dist: np.ndarray,
        cond: np.ndarray,
    ) -> np.ndarray:
        """Segment-min over the flat pair table, with capped distances
        scattered to ``dist`` at positions ``sel``.  ``offs`` are the
        per-point segment starts (``cumsum(cnt) - cnt``), already computed
        by the gathers.  Returns the winning flat pair row per absorbed
        point — the first candidate (lowest box index) achieving the
        segment minimum, matching the brute-force argmin tie-break — for
        the caller to map to conductor owners."""
        k = cnt.shape[0]
        # Per-point segment minimum over the flat candidate table.  The
        # segments tile ``d`` contiguously in point order, so a single
        # ``fmin.reduceat`` at the non-empty segment starts replaces the
        # unbuffered ``np.minimum.at`` scatter loop (``d`` is NaN-free, so
        # fmin == minimum).
        dsub = np.full(k, self.h_cap, dtype=np.float64)
        nz = cnt > 0
        seg_min = np.fmin.reduceat(d, offs[nz])
        dsub[nz] = np.minimum(seg_min, self.h_cap)
        dist[sel] = dsub
        hit = (d == dsub[pt]) & (d < self.h_cap)
        idx = np.nonzero(hit)[0]
        if not idx.shape[0]:
            return idx
        first = np.ones(idx.shape[0], dtype=bool)
        first[1:] = pt[idx[1:]] != pt[idx[:-1]]
        return idx[first]


def build_index(
    structure: Structure,
    h_cap: float,
    brute_force_limit: int = 256,
    far_field: bool = True,
    sort_queries: bool = True,
    bounds_resolution: int = 2,
) -> BruteForceIndex | GridIndex:
    """Pick a sensible index for the structure size.

    With the far-field fast path enabled (the default), the grid wins at
    every size — most FRW steps happen in open space and skip the
    candidate gather entirely — so a :class:`GridIndex` is always built.
    With ``far_field=False``, brute force wins below a few hundred boxes
    (no grouping overhead); ``h_cap`` is still honoured by the engine's
    own clamp when brute force is selected.
    """
    if not far_field and structure.n_boxes <= brute_force_limit:
        return BruteForceIndex(structure)
    return GridIndex(
        structure,
        h_cap=h_cap,
        far_field=far_field,
        sort_queries=sort_queries,
        bounds_resolution=bounds_resolution,
    )
