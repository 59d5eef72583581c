"""Transition-domain Green's functions: cube eigenseries, tabulated cube
kernels with inverse-CDF sampling, and exact sphere (WOS) kernels."""

from .cube_series import (
    DEFAULT_MODES,
    gradient_kernel_parallel,
    gradient_kernel_side,
    gradient_linear_response,
    kernel_total_mass,
    poisson_kernel_face,
)
from .cube_table import (
    DEFAULT_RESOLUTION,
    CubeTransitionTable,
    get_cube_table,
)
from .sphere import (
    gradient_weight,
    interface_hemisphere_direction,
    uniform_direction,
)

__all__ = [
    "DEFAULT_MODES",
    "DEFAULT_RESOLUTION",
    "CubeTransitionTable",
    "get_cube_table",
    "gradient_kernel_parallel",
    "gradient_kernel_side",
    "gradient_linear_response",
    "gradient_weight",
    "interface_hemisphere_direction",
    "kernel_total_mass",
    "poisson_kernel_face",
    "uniform_direction",
]
