"""FRW-RR: a parallel floating random walk solver for reproducible and
reliable capacitance extraction.

Reproduction of Huang, Liu & Yu (DATE 2025).  The package provides:

* :class:`~repro.frw.FRWSolver` with the paper's variants (Alg. 1 baseline,
  FRW-NK, FRW-NC, FRW-R, FRW-RR),
* DOP-independent reproducibility via counter-based per-walk streams,
  batch checkpoints, and Kahan-compensated merging (Alg. 2),
* the constrained-MLE reliability regularization (Alg. 3),
* the substrates: rectilinear geometry, cube/sphere transition Green's
  functions, an FDM reference field solver, and workload generators for the
  paper's six test cases.

Quickstart::

    from repro import Box, Conductor, Structure, FRWConfig, FRWSolver

    wires = [Conductor.single(f"w{i}", Box.from_bounds(i, i + 1, 0, 10, 0, 1))
             for i in range(0, 6, 2)]
    with FRWSolver(Structure(wires), FRWConfig.frw_rr(seed=1)) as solver:
        result = solver.extract()  # worker threads joined on exit
    print(result.matrix.pretty())
"""

from .analysis import CapacitanceMatrix
from .config import FRWConfig
from .errors import (
    ConfigError,
    ConvergenceError,
    GaussianSurfaceError,
    GeometryError,
    NumericalError,
    RNGError,
    RegularizationError,
    ReproError,
    StructureValidationError,
)
from .fdm import FDMExtractor
from .frw import (
    ExtractionResult,
    FRWSolver,
    extract,
    run_single_walk,
    trace_walks,
)
from .geometry import Box, Conductor, DielectricStack, Structure
from .numerics import reproducibility_indices
from .reliability import (
    check_properties,
    naive_adjustment,
    regularize,
    symmetrize,
)

__version__ = "1.0.0"

__all__ = [
    "Box",
    "CapacitanceMatrix",
    "Conductor",
    "ConfigError",
    "ConvergenceError",
    "DielectricStack",
    "ExtractionResult",
    "FDMExtractor",
    "FRWConfig",
    "FRWSolver",
    "GaussianSurfaceError",
    "GeometryError",
    "NumericalError",
    "RNGError",
    "RegularizationError",
    "ReproError",
    "Structure",
    "StructureValidationError",
    "check_properties",
    "extract",
    "naive_adjustment",
    "regularize",
    "reproducibility_indices",
    "run_single_walk",
    "symmetrize",
    "trace_walks",
    "__version__",
]
