"""Tests for cube/sphere transition kernels."""

import numpy as np
import pytest

from repro.greens import (
    CubeTransitionTable,
    get_cube_table,
    gradient_kernel_parallel,
    gradient_kernel_side,
    gradient_linear_response,
    gradient_weight,
    interface_hemisphere_direction,
    kernel_total_mass,
    poisson_kernel_face,
    uniform_direction,
)
from repro.greens.cube_table import _T0


def test_series_mass_is_one():
    assert abs(kernel_total_mass() - 1.0) < 1e-12


def test_series_linear_response_is_one():
    assert abs(gradient_linear_response() - 1.0) < 1e-12


def test_kernel_positive_and_symmetric():
    x = (np.arange(20) + 0.5) / 20
    k = poisson_kernel_face(x, x)
    assert k.min() > 0
    assert np.allclose(k, k.T)  # x <-> y symmetry
    assert np.allclose(k, k[::-1, :])  # reflection symmetry


def test_gradient_side_antisymmetric():
    x = (np.arange(16) + 0.5) / 16
    g = gradient_kernel_side(x, x)
    assert np.abs(g + g[:, ::-1]).max() < 1e-12


def test_gradient_parallel_positive_at_center():
    g = gradient_kernel_parallel(np.array([0.5]), np.array([0.5]))
    assert g[0, 0] > 0


def test_series_truncation_converged():
    x = (np.arange(10) + 0.5) / 10
    a = poisson_kernel_face(x, x, modes=40)
    b = poisson_kernel_face(x, x, modes=60)
    assert np.abs(a - b).max() < 1e-13


@pytest.mark.parametrize("nf", [8, 16, 32])
def test_table_probabilities(nf):
    t = get_cube_table(nf)
    assert t.n_cells == 6 * nf * nf
    assert abs(t.prob.sum() - 1.0) < 1e-12
    assert t.prob.min() > 0
    assert np.all(np.diff(t.cdf) >= 0)


def test_table_discrete_identities():
    """The discrete gradient kernel is exact on constant and linear fields."""
    t = get_cube_table(16)
    for axis in range(3):
        coord = _cell_coordinate(t, axis)
        e_const = float((t.prob * t.grad_ratio[axis]).sum())
        e_linear = float((t.prob * t.grad_ratio[axis] * (coord - 0.5)).sum())
        assert abs(e_const) < 1e-12
        assert abs(e_linear - 1.0) < 1e-12


def _cell_coordinate(t: CubeTransitionTable, axis: int) -> np.ndarray:
    coord = np.empty(t.n_cells)
    aligned = t.face_axis == axis
    coord[aligned] = t.face_side[aligned]
    side = ~aligned
    first = _T0[t.face_axis] == axis
    ci = (t.cell_i + 0.5) / t.nf
    cj = (t.cell_j + 0.5) / t.nf
    coord[side & first] = ci[side & first]
    coord[side & ~first] = cj[side & ~first]
    return coord


def test_table_sampling_matches_probabilities():
    t = get_cube_table(8)
    rng = np.random.default_rng(0)
    cells = t.sample_cells(rng.random(200_000))
    counts = np.bincount(cells, minlength=t.n_cells) / 200_000
    assert np.abs(counts - t.prob).max() < 1.2e-3
    # Face marginals must be exactly 1/6 each in expectation.
    face_counts = np.array(
        [counts[t.face_axis * 2 + t.face_side == f].sum() for f in range(6)]
    )
    assert np.allclose(face_counts, 1 / 6, atol=5e-3)


def test_unit_positions_on_cube_surface():
    t = get_cube_table(8)
    rng = np.random.default_rng(1)
    cells = t.sample_cells(rng.random(500))
    pos = t.unit_positions(cells, rng.random(500), rng.random(500))
    on_face = (np.isclose(pos, 0.0) | np.isclose(pos, 1.0)).any(axis=1)
    assert on_face.all()
    assert pos.min() >= 0.0 and pos.max() <= 1.0


def test_table_cache():
    assert get_cube_table(16) is get_cube_table(16)
    with pytest.raises(ValueError):
        get_cube_table(1)


def test_uniform_direction_statistics():
    rng = np.random.default_rng(2)
    d = uniform_direction(rng.random(50_000), rng.random(50_000))
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
    assert np.abs(d.mean(axis=0)).max() < 0.02
    assert abs((d[:, 2] ** 2).mean() - 1.0 / 3.0) < 5e-3


def test_gradient_weight_identity():
    """E[(3/R)(d.n) * (p.n)] = 1 for a linear field along n."""
    rng = np.random.default_rng(3)
    n = 100_000
    d = uniform_direction(rng.random(n), rng.random(n))
    normals = np.tile(np.array([[0.0, 0.0, 1.0]]), (n, 1))
    radius = np.full(n, 2.0)
    w = gradient_weight(d, normals, radius)
    phi = radius * d[:, 2]  # linear potential z
    assert abs((w * phi).mean() - 1.0) < 0.02


def test_hemisphere_eps_weighting():
    rng = np.random.default_rng(4)
    n = 200_000
    eps_below = np.full(n, 1.0)
    eps_above = np.full(n, 3.0)
    d = interface_hemisphere_direction(
        rng.random(n), rng.random(n), rng.random(n), eps_below, eps_above
    )
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
    up_fraction = (d[:, 2] > 0).mean()
    assert abs(up_fraction - 0.75) < 5e-3


def test_hemisphere_harmonic_test_functions():
    """The two-medium step must average phi=const to const and the
    flux-continuous phi = z/eps to 0 (the interface-centred solution)."""
    rng = np.random.default_rng(5)
    n = 400_000
    e1, e2 = 2.0, 5.0
    d = interface_hemisphere_direction(
        rng.random(n),
        rng.random(n),
        rng.random(n),
        np.full(n, e1),
        np.full(n, e2),
    )
    z = d[:, 2]
    phi = np.where(z > 0, z / e2, z / e1)
    assert abs(phi.mean()) < 2e-3
    assert abs(np.ones(n).mean() - 1.0) == 0.0
