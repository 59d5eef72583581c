"""Fuzzed requests through :meth:`ExtractionService.submit`.

Every request, however malformed, must end as a typed client error
(:class:`ConfigError` or :class:`GeometryError`, which the HTTP front door
answers with 400) or as rows whose every value is finite.  Any other
exception would be a 500, and a non-finite row would be cached for good.
Each request is a valid two-wire request with up to two fields
replaced, anywhere from one box coordinate to the whole structure, by a
small number, a non-finite float, a boolean, a string, a null or a
container.  So a good share of the requests still solve, on 64 walks.
"""

import copy
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ENGINE_FIELDS, RESULT_FIELDS
from repro.errors import ConfigError, GeometryError
from repro.service import ExtractionService, ServiceSettings

#: Two wires under a dielectric interface, on a fixed budget of 64 walks.
VALID = {
    "structure": {
        "conductors": [
            {"name": "a", "boxes": [[0, 0, 0, 1, 4, 1]]},
            {"name": "b", "boxes": [[2, 0, 0, 3, 4, 1]]},
        ],
        "dielectric": {"interfaces": [2.0], "eps": [3.9, 2.5]},
        "enclosure": [-3, -3, -3, 6, 7, 5],
    },
    "config": {
        "seed": 1,
        "max_walks": 64,
        "min_walks": 32,
        "batch_size": 32,
        "tolerance": 0.5,
    },
}

#: Where a fuzzed value may land: a path of keys and indices into VALID,
#: whose last step is replaced (or added).
PATHS = (
    [("structure", "conductors", c, "boxes", 0, k) for c in (0, 1) for k in range(6)]
    + [("structure", "enclosure", k) for k in range(6)]
    + [("config", name) for name in RESULT_FIELDS + ENGINE_FIELDS + ("bogus",)]
    + [
        ("structure",),
        ("structure", "conductors"),
        ("structure", "conductors", 0),
        ("structure", "conductors", 1, "name"),
        ("structure", "conductors", 1, "boxes"),
        ("structure", "conductors", 1, "boxes", 0),
        ("structure", "dielectric"),
        ("structure", "dielectric", "interfaces"),
        ("structure", "dielectric", "interfaces", 0),
        ("structure", "dielectric", "eps"),
        ("structure", "dielectric", "eps", 0),
        ("structure", "dielectric", "eps", 1),
        ("structure", "enclosure"),
        ("config",),
        ("masters",),
        ("priority",),
    ]
)

#: Scalars that are not numbers, or numbers a double cannot stand for.
ODD = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, None, "1", "", 10**400, 1e300]
)
FINITE = st.one_of(st.integers(-4, 12), st.floats(-4.0, 12.0))
NUMBERS = st.one_of(FINITE, ODD)
VALUES = st.one_of(
    FINITE,
    ODD,
    st.text(max_size=3),
    st.sampled_from(["interactive", "bulk", "frw-rr", "frw-nc"]),
    st.lists(NUMBERS, max_size=7),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def _mutated(mutations) -> dict:
    """VALID with each ``(path, value)`` applied where the path still
    leads through containers."""
    request = copy.deepcopy(VALID)
    for path, value in mutations:
        node = request
        for key in path[:-1]:
            try:
                node = node[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            key = path[-1]
            if isinstance(node, dict) or (
                isinstance(node, list) and isinstance(key, int) and key < len(node)
            ):
                node[key] = value
    return request


#: Half the requests take any values, half only finite numbers: those
#: move boxes, the enclosure and the stack about, and often still solve.
REQUEST = st.one_of(
    st.lists(st.tuples(st.sampled_from(PATHS), VALUES), max_size=2),
    st.lists(st.tuples(st.sampled_from(PATHS), FINITE), min_size=1, max_size=2),
).map(_mutated)


@pytest.fixture(scope="module")
def service():
    with ExtractionService(ServiceSettings(slots=1)) as service:
        yield service


@given(request=REQUEST)
@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_fuzzed_request_is_a_client_error_or_finite_rows(service, request):
    try:
        response = service.submit(request).result(timeout=120)
    except (ConfigError, GeometryError):
        return
    for row in response["rows"]:
        assert all(math.isfinite(v) for v in row["values"]), row
        assert all(math.isfinite(v) for v in row["sigma2"]), row
