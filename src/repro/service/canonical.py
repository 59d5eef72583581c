"""Canonical geometry forms and content hashes for the extraction service.

The solver is deterministic: rows are a pure function of the structure,
the result-affecting config fields (:data:`repro.config.RESULT_FIELDS`),
and the seed.  The missing piece for cross-request memoization is that the
*same physical net* usually arrives in different encodings — translated to
wherever it sits on the chip, with conductors and boxes enumerated in
whatever order the netlist walker produced.  This module defines the
canonical form under which those encodings collide:

* **Translation**: every coordinate is shifted so the enclosure's low
  corner lands at the origin.  The shift is a plain float subtraction, so
  two translated copies of a net hash identically whenever ``x - lo`` is
  exact — always true for the lattice-aligned coordinates real layouts use
  (layout databases snap to a manufacturing grid); for pathological
  coordinates where the subtraction rounds differently the hash simply
  misses and the request is solved cold, so correctness never depends on
  the normalization being exact.
* **Conductor order**: conductors are sorted by their (translated,
  box-sorted) geometry.  Names are excluded — they do not affect physics.
  Valid structures cannot contain two geometrically identical conductors
  (they would overlap), so the order is total.
* **Box order**: within each conductor, boxes sort lexicographically by
  ``(lo, hi)``.

The service always *solves the canonical structure* and relabels rows back
to the request's conductor order (an exact integer permutation of array
columns).  That turns the normalization into a bit-level guarantee: any
two requests with the same canonical form receive byte-identical rows, no
matter which arrived first or how either was encoded — which is exactly
what makes results permanently cacheable (docs/DETERMINISM.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..config import FRWConfig
from ..geometry import Box, Conductor, DielectricStack, Structure


def _shifted_conductor_key(cond: Conductor, lo: tuple) -> tuple:
    """Sort key of one conductor: its translated, box-sorted bounds."""
    return tuple(
        sorted(
            (
                tuple(b.lo[a] - lo[a] for a in range(3)),
                tuple(b.hi[a] - lo[a] for a in range(3)),
            )
            for b in cond.boxes
        )
    )


@dataclass(frozen=True)
class CanonicalForm:
    """A structure in canonical pose plus the maps back to the request.

    ``structure`` is the canonicalized :class:`Structure`;
    ``to_canonical[i]`` is the canonical index of original conductor ``i``
    and ``from_canonical`` its inverse.  ``offset`` is the translation that
    was subtracted (the original enclosure's low corner).
    """

    structure: Structure
    to_canonical: tuple[int, ...]
    from_canonical: tuple[int, ...]
    offset: tuple[float, float, float]

    @property
    def n_conductors(self) -> int:
        """Conductor count excluding the enclosure."""
        return len(self.to_canonical)

    def map_row_values(self, values: np.ndarray) -> np.ndarray:
        """Relabel a canonical row's conductor columns to request order.

        ``values`` has one column per conductor plus the enclosure last;
        the permutation is exact (pure reindexing, no arithmetic).
        """
        values = np.asarray(values)
        n = self.n_conductors
        out = np.empty_like(values)
        out[..., :n] = values[..., list(self.to_canonical)]
        out[..., n:] = values[..., n:]
        return out


def canonicalize(structure: Structure) -> CanonicalForm:
    """Reduce a structure to its canonical pose (see module docstring)."""
    lo = structure.enclosure.lo
    order = sorted(
        range(len(structure.conductors)),
        key=lambda i: _shifted_conductor_key(structure.conductors[i], lo),
    )
    from_canonical = tuple(order)
    to_canonical = tuple(int(v) for v in np.argsort(np.array(order)))
    conductors = []
    for rank, orig in enumerate(order):
        cond = structure.conductors[orig]
        boxes = tuple(
            Box(
                tuple(b.lo[a] - lo[a] for a in range(3)),
                tuple(b.hi[a] - lo[a] for a in range(3)),
            )
            for b in sorted(cond.boxes, key=lambda b: (b.lo, b.hi))
        )
        conductors.append(Conductor(f"c{rank}", boxes))
    enclosure = Box(
        (0.0, 0.0, 0.0),
        tuple(structure.enclosure.hi[a] - lo[a] for a in range(3)),
    )
    dielectric = DielectricStack(
        interfaces=tuple(z - lo[2] for z in structure.dielectric.interfaces),
        eps=structure.dielectric.eps,
    )
    canonical = Structure(
        conductors, dielectric=dielectric, enclosure=enclosure
    )
    return CanonicalForm(
        structure=canonical,
        to_canonical=to_canonical,
        from_canonical=from_canonical,
        offset=tuple(float(v) for v in lo),
    )


def _hash_floats(h, values) -> None:
    """Feed floats into a hash bit-exactly (IEEE754 bytes, not repr)."""
    h.update(np.asarray(values, dtype=np.float64).tobytes())


def geometry_digest(form: CanonicalForm) -> str:
    """Hex digest of the canonical geometry alone (no config): the
    geometry half of :func:`canonical_hash`."""
    h = hashlib.sha256()
    h.update(b"frw-geometry-v1")
    structure = form.structure
    h.update(len(structure.conductors).to_bytes(4, "little"))
    for cond in structure.conductors:
        h.update(len(cond.boxes).to_bytes(4, "little"))
        for box in cond.boxes:
            _hash_floats(h, box.lo)
            _hash_floats(h, box.hi)
    _hash_floats(h, structure.enclosure.lo)
    _hash_floats(h, structure.enclosure.hi)
    h.update(len(structure.dielectric.interfaces).to_bytes(4, "little"))
    _hash_floats(h, structure.dielectric.interfaces)
    _hash_floats(h, structure.dielectric.eps)
    return h.hexdigest()


def config_digest(config: FRWConfig) -> str:
    """Hex digest of the result-affecting config projection.

    Engine knobs (executor, worker count, pipelining, prefetch depth, ...)
    are certified bit-invisible by the golden suites and excluded, so a
    request solved on one backend is a cache hit for every other.
    """
    h = hashlib.sha256()
    h.update(b"frw-config-v1")
    for name, value in config.result_key():
        h.update(name.encode())
        if isinstance(value, bool):
            h.update(b"b" + bytes([value]))
        elif isinstance(value, int):
            h.update(b"i" + value.to_bytes(16, "little", signed=True))
        elif isinstance(value, float):
            h.update(b"f")
            _hash_floats(h, [value])
        else:
            h.update(b"s" + str(value).encode())
    return h.hexdigest()


def canonical_hash(structure: Structure | CanonicalForm, config: FRWConfig) -> str:
    """Content hash under which identical extraction requests collide.

    Covers the canonical geometry (translation-, conductor-order-, and
    box-order-invariant) and every result-affecting config field
    including the seed.  Requests with equal hashes receive byte-identical
    rows; any change to a dimension, permittivity, enclosure, or a
    :data:`repro.config.RESULT_FIELDS` entry changes the hash
    (sensitivity is property-tested in ``tests/test_canonical.py``).
    """
    form = (
        structure
        if isinstance(structure, CanonicalForm)
        else canonicalize(structure)
    )
    h = hashlib.sha256()
    h.update(b"frw-request-v1")
    h.update(geometry_digest(form).encode())
    h.update(config_digest(config).encode())
    return h.hexdigest()
