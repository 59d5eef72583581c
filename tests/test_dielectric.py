"""Tests for stratified dielectric stacks."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import DielectricStack


def test_homogeneous():
    s = DielectricStack.homogeneous(3.9)
    assert s.is_homogeneous
    assert s.n_layers == 1
    assert np.all(s.eps_at(np.array([-10.0, 0.0, 42.0])) == 3.9)
    assert np.all(np.isinf(s.interface_distance(np.array([0.0, 5.0]))))


def test_layer_lookup():
    s = DielectricStack(interfaces=(0.0, 2.0), eps=(1.0, 3.9, 2.7))
    z = np.array([-1.0, 0.5, 1.99, 2.0, 5.0])
    assert s.eps_at(z).tolist() == [1.0, 3.9, 3.9, 2.7, 2.7]
    assert s.layer_index(z).tolist() == [0, 1, 1, 2, 2]


def test_point_on_interface_goes_up():
    s = DielectricStack(interfaces=(1.0,), eps=(2.0, 4.0))
    assert s.eps_at(np.array([1.0]))[0] == 4.0


def test_interface_distance():
    s = DielectricStack(interfaces=(0.0, 3.0), eps=(1.0, 2.0, 3.0))
    z = np.array([-2.0, 1.0, 2.0, 3.5])
    assert s.interface_distance(z).tolist() == [2.0, 1.0, 1.0, 0.5]


def test_validation_errors():
    with pytest.raises(GeometryError):
        DielectricStack(interfaces=(1.0,), eps=(1.0,))  # wrong eps count
    with pytest.raises(GeometryError):
        DielectricStack(interfaces=(2.0, 1.0), eps=(1.0, 2.0, 3.0))  # not sorted
    with pytest.raises(GeometryError):
        DielectricStack(interfaces=(), eps=(-1.0,))  # negative eps


@pytest.mark.parametrize(
    "interfaces,eps",
    [
        ((float("nan"),), (1.0, 2.0)),
        ((float("inf"),), (1.0, 2.0)),
        ((), (float("nan"),)),
        ((1.0,), (1.0, float("inf"))),
    ],
    ids=["nan-interface", "inf-interface", "nan-eps", "inf-eps"],
)
def test_non_finite_values_rejected(interfaces, eps):
    """A NaN interface solved to a row of zeros (every walk truncated), a
    NaN or infinite permittivity to a NaN row, and an infinite interface
    to a plausible-looking one."""
    with pytest.raises(GeometryError, match="must be finite"):
        DielectricStack(interfaces=interfaces, eps=eps)
