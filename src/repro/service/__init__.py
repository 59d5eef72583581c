"""repro.service — the long-lived memoized extraction server (layer 9).

Determinism makes extraction results *permanently cacheable*: rows are a
pure function of the canonical geometry, the result-affecting config
fields, and the seed, so a repeated net is a dictionary lookup instead of
a Monte-Carlo run.  This package provides:

* :mod:`~repro.service.canonical` — canonical forms and content hashes
  under which equivalent requests (translated, conductor/box-permuted,
  renamed) collide;
* :mod:`~repro.service.cache` — the bounded LRU memo of result rows;
* :mod:`~repro.service.server` — :class:`ExtractionService` (priority
  scheduling over per-slot executor fleets) and the stdlib asyncio HTTP
  front door behind ``python -m repro.cli serve``;
* :mod:`~repro.service.client` — an ``http.client`` convenience client;
* :mod:`~repro.service.traffic` — seeded synthetic load with controlled
  duplicate rates, for benchmarks and the CI service-smoke job.
"""

from .cache import LRUCache
from .canonical import (
    CanonicalForm,
    canonical_hash,
    canonicalize,
    config_digest,
    geometry_digest,
)
from .client import ServiceClient, ServiceError, config_payload
from .server import (
    ExtractionService,
    PRIORITY_CLASSES,
    ServiceServer,
    ServiceSettings,
    run_server,
)
from .traffic import TrafficGenerator, permute_structure, translate_structure

__all__ = [
    "CanonicalForm",
    "ExtractionService",
    "LRUCache",
    "PRIORITY_CLASSES",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "ServiceSettings",
    "TrafficGenerator",
    "canonical_hash",
    "canonicalize",
    "config_digest",
    "config_payload",
    "geometry_digest",
    "permute_structure",
    "run_server",
    "translate_structure",
]
