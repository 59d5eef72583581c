"""Runtime RNG sanitizer: make global-RNG use *raise* during extraction.

det-lint's DET001/DET002 catch global-RNG use statically, but only in code
it can see — a third-party callback, an ``exec``'d snippet, or a code path
the heuristics miss would still silently break the bit-identity contract.
:func:`forbid_global_rng` closes that gap at runtime: while active, every
entry point of the hidden global generators (``np.random.*`` module-level
functions, the ``random`` module's implicit ``Random`` instance, and
*entropy-seeded* constructors like argless ``np.random.default_rng()``)
raises :class:`~repro.errors.DeterminismError` instead of drawing.

Explicitly seeded construction stays allowed — ``np.random.default_rng(7)``
and ``np.random.RandomState(seed)`` are deterministic and are what
``repro.rng`` builds on.  Private ``Generator``/``RandomState`` *instances*
are untouched: only the process-global state is fenced off.

The golden bit-identity suites run every extraction inside this
context, so a regression that reaches for global RNG state fails loudly
rather than surfacing as a one-bit drift three PRs later.  The solver
never arms it itself: a caller that wants the fence wraps its extraction
in it.

The patch is process-wide and reference-counted, so nested/concurrent
sanitized extractions are safe; fork-pool workers inherit the patched
state, which is exactly the intent (workers must not touch global RNG
either).
"""

from __future__ import annotations

import contextlib
import random as _stdlib_random
import threading
from typing import Iterator

import numpy as np

from ..errors import DeterminismError

#: Module-level np.random functions backed by the hidden global generator.
#: Everything listed here raises while the sanitizer is active.
_NUMPY_GLOBAL_FNS = (
    "seed", "random", "random_sample", "ranf", "sample", "rand", "randn",
    "randint", "random_integers", "standard_normal", "normal", "uniform",
    "choice", "shuffle", "permutation", "bytes", "beta", "binomial",
    "chisquare", "dirichlet", "exponential", "f", "gamma", "geometric",
    "gumbel", "hypergeometric", "laplace", "logistic", "lognormal",
    "logseries", "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "pareto", "poisson", "power",
    "rayleigh", "standard_cauchy", "standard_exponential", "standard_gamma",
    "standard_t", "triangular", "vonmises", "wald", "weibull", "zipf",
    "set_state",
)

#: stdlib random functions bound to the module's implicit global Random.
_STDLIB_GLOBAL_FNS = (
    "seed", "random", "uniform", "randint", "randrange", "getrandbits",
    "choice", "choices", "shuffle", "sample", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "vonmisesvariate", "gammavariate",
    "betavariate", "paretovariate", "weibullvariate", "triangular",
    "setstate", "binomialvariate",
)

_lock = threading.Lock()
_depth = 0
_saved: dict[tuple[object, str], object] = {}


def _raiser(qualname: str):
    def blocked(*args, **kwargs):
        raise DeterminismError(
            f"'{qualname}' was called while the RNG sanitizer is active "
            "(forbid_global_rng): global RNG state is "
            "forbidden during reproducible extraction — draw from the "
            "per-walk streams or an explicitly seeded generator from "
            "repro.rng instead"
        )

    blocked.__name__ = f"forbidden_{qualname.replace('.', '_')}"
    blocked.__qualname__ = blocked.__name__
    return blocked


def _guarded_seeded(qualname: str, original):
    """Allow ``fn(seed)``; raise on entropy seeding (no/None seed)."""

    def guarded(*args, **kwargs):
        seed_given = (
            args and args[0] is not None
        ) or kwargs.get("seed") is not None
        if not seed_given:
            raise DeterminismError(
                f"argless '{qualname}()' seeds from OS entropy, which is "
                "forbidden while the RNG sanitizer is active — pass an "
                "explicit seed"
            )
        return original(*args, **kwargs)

    guarded.__name__ = f"guarded_{qualname.replace('.', '_')}"
    guarded.__qualname__ = guarded.__name__
    return guarded


def _guarded_random_state(original):
    """Subclass (not a function wrapper) so dynamic ``isinstance`` checks
    against ``np.random.RandomState`` — numpy's own ``default_rng`` does
    one — keep working while the patch is installed."""

    class GuardedRandomState(original):
        def __init__(self, seed=None):
            if seed is None:
                raise DeterminismError(
                    "argless 'numpy.random.RandomState()' seeds from OS "
                    "entropy, which is forbidden while the RNG sanitizer "
                    "is active — pass an explicit seed"
                )
            super().__init__(seed)

    GuardedRandomState.__name__ = "GuardedRandomState"
    GuardedRandomState.__qualname__ = "GuardedRandomState"
    return GuardedRandomState


def _patch(owner: object, attr: str, replacement: object) -> None:
    _saved[(owner, attr)] = getattr(owner, attr)
    setattr(owner, attr, replacement)


def _install() -> None:
    for fn in _NUMPY_GLOBAL_FNS:
        if hasattr(np.random, fn):
            _patch(np.random, fn, _raiser(f"numpy.random.{fn}"))
    for fn in _STDLIB_GLOBAL_FNS:
        if hasattr(_stdlib_random, fn):
            _patch(_stdlib_random, fn, _raiser(f"random.{fn}"))
    _patch(
        np.random,
        "default_rng",
        _guarded_seeded("numpy.random.default_rng", np.random.default_rng),
    )
    _patch(
        np.random,
        "RandomState",
        _guarded_random_state(np.random.RandomState),
    )


def _uninstall() -> None:
    for (owner, attr), original in _saved.items():
        setattr(owner, attr, original)
    _saved.clear()


@contextlib.contextmanager
def forbid_global_rng() -> Iterator[None]:
    """Context manager: global RNG entry points raise while active.

    Re-entrant and thread-safe via a reference count — the patch is
    installed on the first enter and removed on the last exit.
    """
    global _depth
    with _lock:
        if _depth == 0:
            _install()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                _uninstall()


def sanitizer_active() -> bool:
    """Whether the global-RNG fence is currently installed."""
    return _depth > 0

