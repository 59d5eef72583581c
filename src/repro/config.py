"""Solver configuration dataclasses.

One :class:`FRWConfig` drives all solver variants.  ``variant`` alone
names the scheme: Sec. V of the paper defines each one as a fixed recipe
of walk streams and summation, kept in the one table :data:`VARIANTS`,
and the named constructors mirror the paper's experiment matrix:

* ``alg1``   — the baseline parallel scheme of [1] (Alg. 1): per-thread
  private streams, per-thread convergence at ``eps * sqrt(T)``, naive
  summation.  Reproducible only at fixed DOP.
* ``frw_nk`` — the reproducible scheme (Alg. 2) *without* Kahan summation.
* ``frw_nc`` — Alg. 2 with Mersenne-Twister per-walk reseeding instead of
  the counter-based RNG.
* ``frw_r``  — Alg. 2 with all Sec. III-C optimisations (the paper's FRW-R).
* ``frw_rr`` — FRW-R plus the reliability regularization (Alg. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from typing import NamedTuple

from .errors import ConfigError


class Scheme(NamedTuple):
    """One variant's fixed recipe."""

    #: ``"philox"`` (per-walk counter streams) or ``"mt"`` (per-walk
    #: reseeded Mersenne Twister, the FRW-NC ablation).
    rng: str
    #: ``"kahan"`` or ``"naive"`` per-thread accumulators.
    summation: str
    #: Whether the variant can take antithetic pairs: partners re-read the
    #: primary's Philox counter words, which Alg. 1's per-thread streams
    #: and the stateful MT streams cannot express.
    pairs: bool


#: Every variant's scheme (Sec. V).  ``FRWConfig.rng`` and
#: ``FRWConfig.summation`` read this table, so a config cannot name one
#: variant and run another's arithmetic.
VARIANTS = {
    "alg1": Scheme("philox", "naive", False),
    "frw-nk": Scheme("philox", "naive", True),
    "frw-nc": Scheme("mt", "kahan", False),
    "frw-r": Scheme("philox", "kahan", True),
    "frw-rr": Scheme("philox", "kahan", True),
}
EXECUTOR_KINDS = ("serial", "process")

#: Config fields that determine the extracted bits.  Two extractions of the
#: same structure whose configs agree on every field here produce
#: byte-identical rows — this is the paper's reproducibility guarantee made
#: into a cache key: the memoizing extraction service
#: (:mod:`repro.service`) hashes exactly these fields (plus the canonical
#: geometry) and replays cached rows for any request that collides.
#: ``n_threads`` is here because the virtual-thread merge replay decides
#: the accumulation order (the last floating-point bits are a documented
#: function of the DOP ``T``); ``machine_seed`` seeds the simulated machine
#: whose schedule Alg. 2 replays deterministically.
RESULT_FIELDS = (
    "seed",
    "n_threads",
    "batch_size",
    "tolerance",
    "max_walks",
    "min_walks",
    "variant",
    "table_resolution",
    "offset_fraction",
    "h_cap_fraction",
    "absorption_fraction",
    "interface_snap_fraction",
    "first_hop_interface_floor",
    "max_steps",
    "check_every",
    "machine_seed",
    "antithetic",
)

#: Config fields certified bit-invisible by the golden suites: they change
#: wall time, scheduling, or diagnostics only, never a result bit.  The
#: service's canonical hash ignores them, so e.g. a serial request hits a
#: row cached by a process-backend solve.  Every ``FRWConfig``
#: field must appear in exactly one of the two tuples (enforced by
#: ``tests/test_canonical.py``); a new field must be classified before the
#: suite passes, which keeps the cache key honest by construction.
#:
#: This tuple is also the *justified allowlist* of the det-lint DET009
#: cache-key-completeness pass (docs/STATIC_ANALYSIS.md): a field read on
#: the solver/engine/estimator result path that appears in neither tuple
#: fails CI.  Justification — backend placement (``executor``,
#: ``n_workers``): UID-ordered reassembly makes worker layout and batch
#: cuts invisible.  The batch schedule — cross-master
#: interleaving, the even in-flight quota and its ``1 +
#: PIPELINE_LOOKAHEAD`` cap, and each worker's one vector refilling from
#: its batch queue, several masters' walks sharing it, in completion
#: order — plus the far-field index tier are fixed behaviour, not fields:
#: walk draws are a pure function of (master stream, uid, step), so none
#: of them can reach a bit, and each won its suite A/B
#: (docs/PERFORMANCE.md).
ENGINE_FIELDS = (
    "executor",
    "n_workers",
)


@dataclass(frozen=True)
class FRWConfig:
    """Configuration of an FRW extraction.

    Parameters mirror Alg. 1/2 inputs plus engine knobs.

    Attributes
    ----------
    seed:
        Global seed ``s``.
    n_threads:
        Degree of parallelism ``T``: Alg. 1's thread count and the
        virtual threads of Alg. 2's merge replay.  The real executors'
        workers come from ``n_workers``.
    batch_size:
        Batch size ``B`` (paper uses 10000): the width of every worker's
        engine vector and the unit of the driver's walk budget.  Alg. 2
        batches, and the checkpoints between them, are ``b0`` walks:
        ``B`` unless ``min_walks < B / 2`` (see ``min_walks``).
    tolerance:
        Relative standard error target on the self-capacitance (paper: 1e-3
        for cases 1-2, 1e-2 otherwise).
    max_walks:
        Hard cap on walks per master conductor.
    min_walks:
        Walks required before the stopping rule may fire.  Also sets the
        checkpoint spacing: every batch holds ``b0`` walks, the smallest
        halving ``B / 2**k`` of ``batch_size`` still above ``min_walks``
        (and even under antithetic pairs), so ``min_walks >=
        batch_size / 2`` keeps the paper's batches of ``B``.
    variant:
        One of :data:`VARIANTS`; it fixes the scheme, which the read-only
        :attr:`rng` and :attr:`summation` report: ``alg1`` and
        ``frw-nk`` sum naively, ``frw-nc`` draws reseeded Mersenne
        Twister streams, and every other variant draws Philox and sums
        with Kahan.
    table_resolution:
        Cells per cube-face edge of the transition table.
    offset_fraction:
        Gaussian surface offset as a fraction of conductor clearance.
    h_cap_fraction:
        Transition-cube half-size cap as a fraction of the enclosure's
        smallest edge, in [0.001, 1].
    absorption_fraction:
        Absorption tolerance as a fraction of the master's Gaussian offset.
    interface_snap_fraction:
        Walks closer to a dielectric interface than this fraction of their
        free space snap onto it and take the two-medium sphere step.
    first_hop_interface_floor:
        Lower bound on the first transition cube, as a fraction of the
        conductor-limited size, applied when a launch point sits very close
        to a dielectric interface (its cube then crosses the interface
        slightly).  Bounds the flux-weight variance at the cost of a small,
        documented bias; production solvers use multi-dielectric transition
        tables here instead.
    max_steps:
        Step cap per walk (safety; survivors absorb to the enclosure and are
        counted as truncated).
    check_every:
        Alg. 1 only: walks between per-thread convergence checks.
    machine_seed:
        Seed of the simulated machine's timing noise (distinct values model
        distinct machines/OS schedules; never affects walk samples).  The
        noise amplitude is :data:`repro.frw.scheduler.MACHINE_JITTER`.
    executor:
        ``"serial"`` (the default) runs one in-process worker whatever
        ``n_workers`` says, and ``"process"`` runs ``n_workers`` worker
        threads (the name predates the threads; the benchmark harness
        still spells the worker count this way).  The worker count alone
        picks the executor
        (:meth:`repro.frw.parallel.PersistentExecutor.for_config` is this
        field's one reader): one worker is an in-process engine vector
        shared by every master; more start that many worker threads, one
        vector each, which share the caller's contexts by reference.  The
        vector step is C and runs without the GIL, and the kernels'
        thread team splits each wide step over this process's CPUs (its
        share of them per worker while worker threads run).
        ``"thread"`` is not a kind.  Every executor reassembles batches
        in UID order, so rows are bit-identical on all of them — the
        DOP-independence contract of Alg. 2.
    n_workers:
        Worker count under ``executor="process"``; ``0`` means auto (the
        CPUs this process may actually run on — ``os.sched_getaffinity``
        where available, so containerized/affinity-restricted hosts size
        the workers correctly — falling back to the host CPU count).  A
        count that resolves to one runs in-process, with no worker thread.
    antithetic:
        Antithetic sampling (variance reduction): walk UIDs pair up as
        ``(2k, 2k+1)``; the even UID is the *primary* and the odd one a
        partner whose first-hop draws are the reflection of the
        primary's Philox words (:class:`repro.rng.MirroredDraws`).  The
        partner launches from the primary's Gaussian-surface point and
        takes the antipodal first hop, so the two flux weights are
        negatively correlated and fewer walks reach a given tolerance.
        Estimation switches to pair means (unbiased mean *and* variance
        under the intra-pair correlation), and the stopping rule
        consumes the pair-mean standard error.  Because partners are a
        pure function of ``(seed, primary uid, step, slot)``,
        bit-identity across backends and worker counts holds exactly as
        without the flag.  Larger groups and deeper
        mirroring measured worse than the pair (PERFORMANCE.md layer 7),
        so the pair is fixed.  Requires a variant that can take pairs
        (:attr:`Scheme.pairs`: not ``alg1`` or ``frw-nc``), an even
        ``batch_size`` and ``min_walks >= 4``; each violation is a
        ``ConfigError`` naming ``antithetic=False`` as the fix.  On by
        default: its pair-mean error bars reach their nominal coverage
        (``tests/test_coverage.py``) and it cuts walks to tolerance
        1.1-2.8x on the benchmark suite.
        The named constructors default it off where the variant cannot
        take pairs (:meth:`alg1`, :meth:`frw_nc`), and the paper
        experiments turn it off to keep the paper's sampling (pair-mean
        accumulation skips the virtual-thread merge replay that Table II's
        RI study measures).  ``min_walks`` / ``max_walks`` keep counting
        raw walks (pairs × 2).
    """

    seed: int = 0
    n_threads: int = 1
    batch_size: int = 10_000
    tolerance: float = 1e-2
    max_walks: int = 20_000_000
    min_walks: int = 1_000
    variant: str = "frw-r"
    table_resolution: int = 32
    offset_fraction: float = 0.5
    h_cap_fraction: float = 0.25
    absorption_fraction: float = 2e-3
    interface_snap_fraction: float = 0.05
    first_hop_interface_floor: float = 0.02
    max_steps: int = 10_000
    check_every: int = 1_000
    machine_seed: int = 0
    executor: str = "serial"
    n_workers: int = 0
    antithetic: bool = True

    def __post_init__(self) -> None:
        for f in fields(self):
            # A float, bool or string where an integer belongs would run
            # under another cache key (or, for the flag, a truthy "no").
            value = getattr(self, f.name)
            if f.type == "int":
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise ConfigError(
                        f"{f.name} must be an integer, got {value!r}"
                    )
                # Seeds fold into unsigned 64-bit words; counts are int64.
                bits = 64 if f.name in ("seed", "machine_seed") else 63
                if value >= 2**bits:
                    raise ConfigError(
                        f"{f.name} must be below 2**{bits}, got {value!r}"
                    )
                # A NumPy integer hashes apart from the equal int.
                object.__setattr__(self, f.name, int(value))
            if f.type == "float" and (
                isinstance(value, bool) or not isinstance(value, Real)
            ):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if f.type == "bool" and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a bool, got {value!r}")
            if f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {tuple(VARIANTS)}, got {self.variant!r}"
            )
        if self.seed < 0:
            # Seeds are folded through splitmix64 as unsigned 64-bit values;
            # negative Python ints would alias positive seeds ambiguously.
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.machine_seed < 0:
            raise ConfigError(f"machine_seed must be >= 0, got {self.machine_seed}")
        if self.n_threads < 1:
            raise ConfigError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 < self.tolerance < 1):
            raise ConfigError(f"tolerance must be in (0, 1), got {self.tolerance}")
        if self.min_walks < 2:
            raise ConfigError(f"min_walks must be >= 2, got {self.min_walks}")
        if self.max_walks < self.min_walks:
            raise ConfigError("max_walks must be >= min_walks")
        if not (0.0 < self.interface_snap_fraction <= 0.25):
            # Snapping displaces the walk onto the interface; the induced
            # bias is first-order in the displacement, so the threshold must
            # stay a small fraction of the local free space.
            raise ConfigError(
                "interface_snap_fraction must be in (0, 0.25], got "
                f"{self.interface_snap_fraction}"
            )
        if not (0.0 < self.absorption_fraction < 0.5):
            raise ConfigError(
                f"absorption_fraction must be in (0, 0.5), got "
                f"{self.absorption_fraction}"
            )
        if not (0.0 <= self.first_hop_interface_floor <= 0.1):
            raise ConfigError(
                "first_hop_interface_floor must be in [0, 0.1], got "
                f"{self.first_hop_interface_floor}"
            )
        if not (2 <= self.table_resolution <= 1024):
            raise ConfigError(
                f"table_resolution must be in [2, 1024], got "
                f"{self.table_resolution}"
            )
        if not (0.0 < self.offset_fraction < 1.0):
            # The Gaussian surface must sit strictly between the conductor
            # and its nearest neighbour; >= 1 would touch or cross it.
            raise ConfigError(
                f"offset_fraction must be in (0, 1), got {self.offset_fraction}"
            )
        if not (1e-3 <= self.h_cap_fraction <= 1.0):
            # Below a thousandth, no walk gets far within max_steps, and
            # first-hop weights of 1/h_cap overflow their squares.
            raise ConfigError(
                f"h_cap_fraction must be in [0.001, 1], got {self.h_cap_fraction}"
            )
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.check_every < 1:
            raise ConfigError(f"check_every must be >= 1, got {self.check_every}")
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigError(
                f"executor must be one of {EXECUTOR_KINDS}, got {self.executor!r}"
            )
        if self.n_workers < 0:
            raise ConfigError(f"n_workers must be >= 0, got {self.n_workers}")
        if self.antithetic:
            fix = "; pass antithetic=False to sample without pairs"
            if not VARIANTS[self.variant].pairs:
                raise ConfigError(
                    f"antithetic requires per-walk Philox streams to "
                    f"mirror; variant {self.variant!r} has none{fix}"
                )
            if self.batch_size % 2 != 0:
                # Pairs are aligned UID blocks; a batch boundary inside
                # a pair would split it across checkpoints.
                raise ConfigError(
                    f"batch_size ({self.batch_size}) must be even{fix}"
                )
            if self.min_walks < 4:
                raise ConfigError(
                    "min_walks must cover at least two antithetic "
                    f"pairs (4), got {self.min_walks}{fix}"
                )

    # ------------------------------------------------------------------
    # Named variant constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_variant(cls, variant: str, **kwargs) -> "FRWConfig":
        """The config of ``variant``, with antithetic pairs on by default
        exactly where the variant can take them."""
        pairs = variant in VARIANTS and VARIANTS[variant].pairs
        return cls(variant=variant, **{"antithetic": pairs, **kwargs})

    @classmethod
    def alg1(cls, **kwargs) -> "FRWConfig":
        """Baseline Alg. 1 of [1]: naive summation, isolated convergence."""
        return cls.for_variant("alg1", **kwargs)

    @classmethod
    def frw_nk(cls, **kwargs) -> "FRWConfig":
        """FRW-R without Kahan summation."""
        return cls.for_variant("frw-nk", **kwargs)

    @classmethod
    def frw_nc(cls, **kwargs) -> "FRWConfig":
        """FRW-R with Mersenne Twister per-walk reseeding."""
        return cls.for_variant("frw-nc", **kwargs)

    @classmethod
    def frw_r(cls, **kwargs) -> "FRWConfig":
        """The reproducible solver with all optimisations."""
        return cls.for_variant("frw-r", **kwargs)

    @classmethod
    def frw_rr(cls, **kwargs) -> "FRWConfig":
        """FRW-R plus the reliability regularization (Alg. 3)."""
        return cls.for_variant("frw-rr", **kwargs)

    def with_(self, **kwargs) -> "FRWConfig":
        """Return a copy with fields replaced."""
        return replace(self, **kwargs)

    def result_key(self) -> tuple:
        """The result-determining projection of this config.

        An ordered ``(name, value)`` tuple over :data:`RESULT_FIELDS`.
        Two configs with equal result keys produce byte-identical rows on
        the same structure (engine knobs are bit-invisible); the service
        cache and :func:`repro.service.canonical_hash` key on exactly
        this.
        """
        return tuple((name, getattr(self, name)) for name in RESULT_FIELDS)

    @property
    def rng(self) -> str:
        """The variant's walk streams, :attr:`Scheme.rng`."""
        return VARIANTS[self.variant].rng

    @property
    def summation(self) -> str:
        """The variant's accumulators, :attr:`Scheme.summation`."""
        return VARIANTS[self.variant].summation

    @property
    def uses_regularization(self) -> bool:
        """Whether the reliability post-process runs after extraction."""
        return self.variant == "frw-rr"
