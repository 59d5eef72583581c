"""det-lint — determinism & cache-soundness static analysis for this repo.

The entire value of the reproducible scheme (Alg. 2) is that results are
bit-identical at any degree of parallelism.  That guarantee is an *invariant
of the whole codebase*, not of one module: a single ``np.random.*`` global
call, one unordered ``set`` iteration feeding a float accumulator, or one
uncompensated ``+=`` reduction in a hot loop silently destroys it while
looking like statistical noise.  ``repro.lint`` encodes those invariants as
machine-checked rules:

========  ==============================================================
check     invariant (per-file checks, :mod:`repro.lint.rules`)
========  ==============================================================
DET001    no global-RNG use outside ``repro.rng`` / ``repro.experiments``
DET002    no wall-clock- or entropy-derived seeds (``time.time``,
          ``os.urandom``, argless ``default_rng()``)
DET003    no iteration over ``set``/``dict`` views feeding an accumulator
DET004    no bare/broad ``except`` in ``repro.frw`` / ``repro.numerics``
DET005    no raw ``+=`` / ``sum()`` float accumulation in loops where the
          Kahan primitives of ``repro.numerics.summation`` are required
DET006    no mutation of closed-over/shared state inside callables
          submitted to executors
DET007    every ``FRWConfig`` field is validated in ``config.py`` and
          documented in ``docs/PERFORMANCE.md`` or ``README.md``
DET008    no raw ``SharedMemory`` use outside ``repro.frw.shm``
========  ==============================================================

The **whole-program checks** (passes, :mod:`repro.lint.passes`) run on
a project-wide module/import/call graph (:mod:`repro.lint.graph`) and
check the contracts the memoizing service rests on:

========  ==============================================================
check     contract (whole-program checks)
========  ==============================================================
DET009    every ``FRWConfig`` field read on the result path is in the
          canonical cache key (``RESULT_FIELDS``) or the declared
          bit-invisible allowlist (``ENGINE_FIELDS``); hashed-but-unread
          fields are staleness
DET010    ``SharedMemory`` lifecycle typestate: no leaks, double-unlinks,
          or use-after-close along any path
DET011    Philox kernel calls stay inside ``repro.rng``: the compiled
          counter helper is the one counter layout
DET012    no writes to a context/manifest after executor registration
========  ==============================================================

Both kinds are :class:`repro.lint.core.Check` objects in one registry
(``CHECKS_BY_ID``), run by one runner
(:func:`repro.lint.project.lint_project`) that parses each file once.
Violations are suppressed with a ``det: allow(DET001) reason`` comment —
matched by rule id + enclosing function scope, so line drift cannot
detach a suppression; a suppression without a reason is itself an error
(DET000).  Every unsuppressed finding gates.  Run with
``python -m repro.lint [paths]`` or ``frw-rr lint`` (see
:mod:`repro.lint.cli`); the full design is in ``docs/STATIC_ANALYSIS.md``.
The paired *runtime* guard is
:func:`repro.lint.sanitizer.forbid_global_rng`, a context manager the
golden suites wrap their extractions in.  This package module re-exports
nothing, so importing the sanitizer never loads the analyzer.
"""
