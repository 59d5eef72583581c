"""Tests for solver configuration validation."""

import pytest

from repro import FRWConfig
from repro.config import VARIANTS
from repro.errors import ConfigError


def test_defaults_valid():
    cfg = FRWConfig()
    assert cfg.variant == "frw-r"
    assert cfg.rng == "philox"
    assert not cfg.uses_regularization


def test_named_constructors():
    assert FRWConfig.alg1().variant == "alg1"
    assert FRWConfig.alg1().summation == "naive"
    assert FRWConfig.frw_nk().summation == "naive"
    assert FRWConfig.frw_nc().rng == "mt"
    assert FRWConfig.frw_r().summation == "kahan"
    assert FRWConfig.frw_rr().uses_regularization


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_variant_alone_names_the_scheme(variant):
    """A bare ``variant`` runs the same RNG and summation as its named
    constructor: no config can name one variant and run another's
    arithmetic."""
    named = getattr(FRWConfig, variant.replace("-", "_"))()
    bare = FRWConfig(variant=variant, antithetic=False)
    assert (bare.rng, bare.summation) == (named.rng, named.summation)
    assert named == FRWConfig.for_variant(variant)
    assert named.antithetic == VARIANTS[variant].pairs


def test_rng_and_summation_are_not_knobs():
    with pytest.raises(TypeError):
        FRWConfig().with_(rng="mt")
    with pytest.raises(TypeError):
        FRWConfig(summation="naive")
    with pytest.raises(AttributeError):
        FRWConfig().rng = "mt"


def test_antithetic_is_on_except_in_the_stream_free_presets():
    """Antithetic pairs are the default; the presets without per-walk UID
    streams (Alg. 1, MT reseeding) default them off, and an explicit
    value still wins."""
    for factory in (FRWConfig, FRWConfig.frw_r, FRWConfig.frw_rr, FRWConfig.frw_nk):
        assert factory().antithetic
    assert not FRWConfig.alg1().antithetic
    assert not FRWConfig.frw_nc().antithetic
    with pytest.raises(ConfigError, match="pass antithetic=False"):
        FRWConfig.frw_nc(antithetic=True)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="frw-nc"),
        dict(variant="alg1"),
        dict(batch_size=1001),
        dict(min_walks=3),
    ],
    ids=["mt", "alg1", "odd_batch", "min_walks"],
)
def test_antithetic_errors_name_the_fix(kwargs):
    with pytest.raises(ConfigError, match="pass antithetic=False"):
        FRWConfig(**kwargs)
    assert not FRWConfig(**kwargs, antithetic=False).antithetic


def test_with_replaces_fields():
    cfg = FRWConfig(seed=1).with_(seed=2, n_threads=8)
    assert cfg.seed == 2
    assert cfg.n_threads == 8
    assert FRWConfig(seed=1).seed == 1  # frozen original untouched


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(variant="bogus"),
        dict(interface_snap_fraction=0.3),
        dict(first_hop_interface_floor=0.2),
        dict(n_threads=0),
        dict(batch_size=0),
        dict(tolerance=0.0),
        dict(tolerance=1.5),
        dict(min_walks=1),
        dict(min_walks=100, max_walks=50),
        dict(executor="gpu"),
        dict(n_workers=-1),
        dict(absorption_fraction=0.0),
        dict(absorption_fraction=0.5),
        dict(seed=-1),
        dict(machine_seed=-3),
        dict(table_resolution=1),
        dict(table_resolution=2048),
        dict(offset_fraction=0.0),
        dict(offset_fraction=1.0),
        dict(h_cap_fraction=0.0),
        dict(h_cap_fraction=9e-4),
        dict(h_cap_fraction=1.5),
        dict(seed=2**64),
        dict(machine_seed=2**64),
        dict(max_walks=2**63),
        dict(max_steps=0),
        dict(check_every=0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        FRWConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(seed=1.5),
        dict(seed=True),
        dict(seed="1"),
        dict(batch_size=2000.5),
        dict(max_walks=1e6),
        dict(min_walks=2000.0),
        dict(n_threads=True),
        dict(n_workers=2.0),
        dict(machine_seed=0.5),
        dict(table_resolution=32.0),
        dict(max_steps=None),
        dict(check_every=1e3),
        dict(antithetic="no"),
        dict(antithetic=1),
        dict(antithetic=None),
        dict(tolerance="0.1"),
        dict(tolerance=True),
        dict(h_cap_fraction=[0.25]),
        dict(offset_fraction=None),
        dict(executor=0),
    ],
    ids=repr,
)
def test_untyped_values_are_rejected(kwargs):
    """An integer field takes an integer, not a float, a bool or a string,
    and ``antithetic`` takes a bool: a fractional seed would run an
    integer seed's walks under another cache key, and ``"no"`` would turn
    pairs on.  A float field takes a number and a string field a string
    (a list raised TypeError).  The error names the field and the value."""
    (name, value), = kwargs.items()
    with pytest.raises(ConfigError, match=rf"^{name} must be .*{value!r}"):
        FRWConfig.frw_r(**kwargs)


def test_unhashable_variant_is_a_config_error():
    """A list for ``variant`` raised TypeError from the table lookup."""
    with pytest.raises(ConfigError, match=r"^variant must be a string"):
        FRWConfig(variant=["frw-r"])


def test_numpy_integers_are_integers():
    """A NumPy integer is taken as the equal int, so it runs and hashes as
    that int does."""
    import numpy as np

    from repro.service import config_digest

    cfg = FRWConfig(seed=np.int64(3), batch_size=np.uint32(128), min_walks=128)
    plain = FRWConfig(seed=3, batch_size=128, min_walks=128)
    assert type(cfg.seed) is int and type(cfg.batch_size) is int
    assert cfg == plain
    assert config_digest(cfg) == config_digest(plain)


def test_thread_executor_is_rejected():
    """The thread backend is gone; asking for it names the two left."""
    assert FRWConfig().executor == "process"
    with pytest.raises(ConfigError, match=r"\('serial', 'process'\)"):
        FRWConfig(executor="thread")


def test_every_field_boundary_values_accepted():
    """The validation ranges admit the values the test/experiment matrix
    actually uses (guards against over-tight DET007-driven validators)."""
    FRWConfig(seed=0, machine_seed=0)
    FRWConfig(table_resolution=2, offset_fraction=0.9, h_cap_fraction=1.0)
    FRWConfig(h_cap_fraction=1e-3, seed=2**64 - 1, max_walks=2**63 - 1)
    FRWConfig(max_steps=1, check_every=1)


def test_config_fields_partition_into_hash_and_allowlist():
    """Drift guard: every FRWConfig dataclass field is either consumed by
    the canonical cache key (``result_key()`` / ``RESULT_FIELDS``) or
    declared bit-invisible in the ``ENGINE_FIELDS`` allowlist — adding a
    field without classifying it fails here even without running the
    det-lint DET009 pass."""
    import dataclasses

    from repro.config import ENGINE_FIELDS, RESULT_FIELDS

    declared = {f.name for f in dataclasses.fields(FRWConfig)}
    assert set(RESULT_FIELDS) | set(ENGINE_FIELDS) == declared
    assert not set(RESULT_FIELDS) & set(ENGINE_FIELDS)
    # The hash input really is RESULT_FIELDS, position for position: the
    # key tuple must track the declaration order and nothing else.
    cfg = FRWConfig()
    key = cfg.result_key()
    assert len(key) == len(RESULT_FIELDS)
    assert list(key) == [
        (name, getattr(cfg, name)) for name in RESULT_FIELDS
    ]
