"""Exception hierarchy for the FRW-RR library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GeometryError(ReproError):
    """Invalid or inconsistent geometric input (degenerate boxes, overlaps,
    conductors outside the enclosure, ...)."""


class StructureValidationError(GeometryError):
    """A :class:`repro.geometry.Structure` failed validation."""


class GaussianSurfaceError(GeometryError):
    """A Gaussian (offset) surface could not be constructed, e.g. because a
    conductor has no clearance to its neighbours."""


class RNGError(ReproError):
    """Misuse of the counter-based RNG layer (bad key/counter shapes,
    exhausted draw budget, ...)."""


class ConvergenceError(ReproError):
    """An iterative procedure (FRW stopping rule, CG solver) failed to reach
    its tolerance within the permitted work budget."""


class NumericalError(ReproError):
    """A numerical kernel received an invalid matrix (non-SPD Cholesky input,
    singular system, ...)."""


class RegularizationError(ReproError):
    """The reliability regularization (Alg. 3) could not be applied to the
    given capacitance observation."""


class ConfigError(ReproError):
    """Invalid solver or experiment configuration."""


class DeterminismError(ReproError):
    """A determinism invariant was violated at runtime — e.g. global RNG
    state was touched while the sanitizer
    (:func:`repro.lint.sanitizer.forbid_global_rng`) is active."""


class KernelBuildError(ReproError):
    """The compiled engine kernels (``repro/native/kernels.c``) could not
    be built or loaded: no C compiler, a failed compile, or a kernel cache
    directory another user can write."""
