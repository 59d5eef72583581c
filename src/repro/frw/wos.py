"""Walk-on-spheres (WOS) validation engine.

Sphere transitions have *closed-form* kernels — uniform harmonic measure and
the exact centre-gradient identity — so a WOS extractor has no kernel
discretisation at all (only the standard epsilon-shell absorption bias).
That makes it the ideal independent check of the production cube engine,
whose transition tables are discretised.  The test suite pins the two
engines against each other on the same structures.

Limitations (by design, it is a validation tool):

* homogeneous dielectrics only,
* spheres use the conservative Chebyshev radius when only a capped grid
  index is available (a sphere of radius ``d_inf <= d_2`` never crosses a
  conductor), or the exact Euclidean radius with the brute-force index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import FRWConfig
from ..errors import ConfigError
from ..geometry import BruteForceIndex, Structure, build_gaussian_surface
from ..greens.sphere import uniform_direction
from ..units import EPS0_FF_PER_UM
from .estimator import CapacitanceRow, RowAccumulator


@dataclass
class WOSContext:
    """Precomputed state for a WOS extraction of one master conductor."""

    structure: Structure
    master: int
    config: FRWConfig
    surface: object
    index: BruteForceIndex
    absorb_tol: float
    r_cap: float


def build_wos_context(
    structure: Structure, master: int, config: FRWConfig
) -> WOSContext:
    """Assemble the WOS context (homogeneous structures only)."""
    if not structure.dielectric.is_homogeneous:
        raise ConfigError(
            "the WOS validation engine supports homogeneous dielectrics only"
        )
    surface = build_gaussian_surface(
        structure,
        master,
        offset_fraction=config.offset_fraction,
        absorption_fraction=config.absorption_fraction,
    )
    return WOSContext(
        structure=structure,
        master=master,
        config=config,
        surface=surface,
        index=BruteForceIndex(structure),
        absorb_tol=config.absorption_fraction * surface.delta,
        r_cap=config.h_cap_fraction * min(structure.enclosure.sizes),
    )


def run_wos_walks(ctx: WOSContext, streams, uids: np.ndarray):
    """Run WOS walks to absorption; mirrors the cube engine's contract."""
    uids = np.asarray(uids, dtype=np.uint64)
    n = uids.shape[0]
    cfg = ctx.config
    eps_r = float(ctx.structure.dielectric.eps_at(np.zeros(1))[0])
    flux_scale = ctx.surface.total_area * EPS0_FF_PER_UM * eps_r
    enclosure_index = ctx.structure.enclosure_index

    omega = np.zeros(n, dtype=np.float64)
    dest = np.full(n, -1, dtype=np.int64)
    steps = np.zeros(n, dtype=np.int64)

    u = streams.draws(uids, 0, 3)
    pos, normal_axis, normal_sign = ctx.surface.sample(u)
    first = np.ones(n, dtype=bool)
    active = np.arange(n, dtype=np.int64)
    truncated = 0

    step = 1
    while active.shape[0]:
        if step > cfg.max_steps:
            dest[active] = enclosure_index
            steps[active] = step
            truncated += int(active.shape[0])
            break
        dist_c, cond = ctx.index.query_l2(pos)
        dist_e = ctx.structure.enclosure_distance(pos)
        absorb_wall = dist_e < ctx.absorb_tol
        absorb_cond = (dist_c < ctx.absorb_tol) & (cond >= 0) & ~absorb_wall
        done = absorb_wall | absorb_cond
        if np.any(done):
            idx = active[done]
            dest[idx] = np.where(absorb_wall[done], enclosure_index, cond[done])
            steps[idx] = step
            keep = ~done
            active = active[keep]
            pos = pos[keep]
            first = first[keep]
            normal_axis = normal_axis[keep]
            normal_sign = normal_sign[keep]
            dist_c = dist_c[keep]
            dist_e = dist_e[keep]
            if not active.shape[0]:
                break
        u = streams.draws(uids[active], step, 3)
        radius = np.minimum(np.minimum(dist_c, dist_e), ctx.r_cap)
        direction = uniform_direction(u[:, 0], u[:, 1])
        fc = first
        if np.any(fc):
            rows = np.nonzero(fc)[0]
            dn = direction[rows, normal_axis[rows]] * normal_sign[rows]
            omega[active[rows]] = -flux_scale * 3.0 * dn / radius[rows]
        pos = pos + radius[:, None] * direction
        first = np.zeros(active.shape[0], dtype=bool)
        step += 1

    from .engine import WalkResults

    return WalkResults(
        uids=uids, omega=omega, dest=dest, steps=steps, truncated=truncated
    )


def wos_extract_row(
    structure: Structure,
    master: int,
    config: FRWConfig,
    n_walks: int,
) -> CapacitanceRow:
    """Fixed-budget WOS extraction of one capacitance-matrix row."""
    from .parallel import streams_from_spec

    ctx = build_wos_context(structure, master, config)
    # Independent stream family so WOS never reuses cube-engine samples.
    # Unmirrored: the antithetic reflection is built for the cube table's
    # first hop; on a sphere hop it correlates the pair positively.
    streams = streams_from_spec((config.rng, config.seed, master + (1 << 20), False))
    acc = RowAccumulator(structure.n_conductors, master)
    chunk = max(1, config.batch_size)
    done = 0
    while done < n_walks:
        count = min(chunk, n_walks - done)
        uids = np.arange(done, done + count, dtype=np.uint64)
        res = run_wos_walks(ctx, streams, uids)
        acc.add_batch(res.omega, res.dest, res.steps)
        done += count
    return acc.row()
