"""Shared-memory context plane: publish/attach for extraction contexts.

The process backend needs every worker to see the big read-only context
assets — the cube transition table and the spatial index's geometry SoA,
CSR arrays and tier-1 bounds.  This module is the only way they reach
the workers: an explicit, spawn-safe protocol in which the *asset*, not
the context, is the unit of publication, so the pool never restarts when
a context registers and every start method works:

* :func:`publish_context` copies each master-independent asset (the
  spatial index, the cube table) into its own
  ``multiprocessing.shared_memory`` block (64-byte-aligned layout) the
  first time any context references that object; every later context
  sharing the object names the same block.  It returns a small picklable
  :class:`ContextManifest`: two :class:`AssetRef` (block name, per-array
  dtype/shape/offset specs, pickled scalars, BLAKE2b content hash), the
  per-master state pickled inline (scalars, config, dielectric stack,
  enclosure, and the Gaussian-surface arrays — a few hundred bytes), the
  stream spec, and one BLAKE2b hash over all of it, the assets' own
  hashes included.
* :func:`attach_context` (worker side) verifies the context hash, maps
  and verifies each asset block the first time this process sees it,
  rebuilds the asset over zero-copy read-only views, and caches it by
  block name — so a worker running all N masters of a structure maps one
  index and one table, shared by its N contexts exactly as the
  publisher's contexts share them, and steady-state dispatch ships only
  the manifest.

Reconstruction goes through the ``packed()`` / ``from_packed()`` pairs of
:class:`~repro.geometry.GaussianSurface`, :class:`~repro.geometry.GridIndex`
and :class:`~repro.greens.CubeTransitionTable`; derived state is recomputed by
the same expressions the building constructors use, so an attached context
is *bit-identical* to the published one — the content hashes make that
checkable, not assumed.

Lifecycle safety: the publishing process owns every block it creates.  A
block counts the unreleased manifests that name it and is closed **and
unlinked** when :func:`release_manifest` drops the last of them (or by
:func:`release_all` / the atexit guard).  Attaching pool children share
the parent's resource tracker, so their attach-side registration is an
idempotent no-op against the publisher's entry.  Fork-pool children exit
via ``os._exit`` and never run the guard; spawn children start with an
empty registry — either way only the publisher unlinks, exactly once.

This module is the *only* place raw ``SharedMemory`` objects may be
constructed (enforced by det-lint rule DET008): the read-only discipline
and unlink-exactly-once ownership are what keep the context plane safe to
share across schedules.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
from dataclasses import dataclass, field
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from ..errors import DeterminismError
from ..geometry import GaussianSurface, GridIndex
from ..greens import CubeTransitionTable
from .context import ExtractionContext, StructureView

#: Alignment of every array inside a block (cache-line sized, and enough
#: for any numpy dtype).
_ALIGN = 64


@dataclass(frozen=True)
class ArraySpec:
    """Location of one packed array inside an asset block."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class AssetRef:
    """One published asset block: a spatial index or a cube table.

    ``scalars`` is the asset's pickled scalar skeleton; ``content_hash``
    pins it plus every packed array, so a torn or mutated block fails
    loudly on first attach instead of producing silently different walks.
    """

    block: str
    nbytes: int
    arrays: tuple[ArraySpec, ...]
    scalars: bytes
    content_hash: str


@dataclass(frozen=True)
class ContextManifest:
    """Everything a worker needs to attach one published context.

    ``meta`` is the pickled per-master state (scalars, config, dielectric
    stack, enclosure, Gaussian-surface arrays), ``spec`` the
    ``(rng_kind, seed, stream, antithetic)`` stream spec, ``index`` /
    ``table`` the shared asset blocks, and ``content_hash`` one BLAKE2b
    over all of them.  ``name`` is unique in the publishing process: blocks count
    their users by it, so releasing a manifest twice is a no-op.
    """

    name: str
    index: AssetRef
    table: AssetRef
    meta: bytes
    spec: tuple
    content_hash: str


@dataclass
class _Block:
    """Publisher-side record of one asset block.  ``asset`` pins the
    published object, so its ``id()`` in ``_BLOCK_OF`` cannot be reused;
    ``users`` names the unreleased manifests that reference the block."""

    seg: SharedMemory
    owner: int
    asset: object
    ref: AssetRef
    users: set = field(default_factory=set)


# ----------------------------------------------------------------------
# Process-local registries.
#
# Publisher side: _PUBLISHED maps block name -> _Block for blocks created
# by *this* process and _BLOCK_OF maps id(asset) -> block name; only
# blocks whose owner pid matches os.getpid() are unlinked (fork children
# inherit the dicts but pool workers exit via os._exit and never reach the
# atexit guard; the pid check covers any other fork).  Attach side:
# _ATTACHED maps block name -> (content hash, segment, rebuilt asset) and
# _CONTEXTS maps (manifest name, verified context hash) -> rebuilt context.
# ----------------------------------------------------------------------
_PUBLISHED: dict[str, _Block] = {}
_BLOCK_OF: dict[int, str] = {}
_ATTACHED: dict[str, tuple[str, SharedMemory, object]] = {}
_CONTEXTS: dict[tuple[str, str], ExtractionContext] = {}
_SEQ = 0


def _next_name(prefix: str) -> str:
    """Deterministic per-process name (pid + counter, no entropy)."""
    global _SEQ
    _SEQ += 1
    return f"{prefix}-{os.getpid()}-{_SEQ}"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _digest(parts, items=()) -> str:
    """BLAKE2b over byte strings and an ordered ``(key, ndarray)`` list.

    The same ordering is used on publish and attach, so equal hashes mean
    the attached views are byte-for-byte the published arrays.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part)
    for key, arr in items:
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(tuple(arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _context_hash(meta: bytes, spec: tuple, index: AssetRef, table: AssetRef):
    return _digest(
        [
            meta,
            repr(spec).encode(),
            index.content_hash.encode(),
            table.content_hash.encode(),
        ]
    )


def _publish_asset(asset, user: str) -> AssetRef:
    """The asset's block, published on first reference; ``user`` joins
    the manifests keeping it alive."""
    block = _BLOCK_OF.get(id(asset))
    if block is None:
        scalars, arrays = asset.packed()
        items = [(k, np.ascontiguousarray(v)) for k, v in arrays.items()]
        specs = []
        offset = 0
        for key, arr in items:
            offset = _aligned(offset)
            specs.append(ArraySpec(key, str(arr.dtype), tuple(arr.shape), offset))
            offset += arr.nbytes
        block = _next_name("frwctx")
        seg = SharedMemory(name=block, create=True, size=max(1, offset))
        for aspec, (_key, arr) in zip(specs, items):
            np.ndarray(
                aspec.shape, dtype=arr.dtype, buffer=seg.buf, offset=aspec.offset
            )[...] = arr
        packed = pickle.dumps(scalars, protocol=pickle.HIGHEST_PROTOCOL)
        ref = AssetRef(
            block, seg.size, tuple(specs), packed, _digest([packed], items)
        )
        _PUBLISHED[block] = _Block(seg, os.getpid(), asset, ref)
        _BLOCK_OF[id(asset)] = block
    entry = _PUBLISHED[block]
    entry.users.add(user)
    return entry.ref


def publish_context(ctx: ExtractionContext, spec: tuple) -> ContextManifest:
    """Publish a context's assets (each once per process); return its
    manifest.

    The publishing process owns the asset blocks: they stay mapped (and
    listed by :func:`published_blocks`) until the last manifest naming
    them is released, or :func:`release_all` / the atexit guard unlinks
    them.  ``spec`` is the ``(rng_kind, seed, stream, antithetic)`` stream
    spec the workers rebuild their per-walk streams from.
    """
    name = _next_name("manifest")
    index = _publish_asset(ctx.index, name)
    table = _publish_asset(ctx.table, name)
    meta = pickle.dumps(
        {
            "master": int(ctx.master),
            "config": ctx.config,
            "h_cap": float(ctx.h_cap),
            "absorb_tol": float(ctx.absorb_tol),
            "dielectric": ctx.structure.dielectric,
            "enclosure": ctx.structure.enclosure,
            "n_base_conductors": len(ctx.structure.conductors),
            "surface": ctx.surface.packed(),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    spec = tuple(spec)
    return ContextManifest(
        name, index, table, meta, spec, _context_hash(meta, spec, index, table)
    )


def _open_block(name: str) -> SharedMemory:
    # Python 3.11 registers every attach with the resource tracker.  All
    # attachers in this design are pool children, and multiprocessing
    # hands every child (fork, spawn, and forkserver alike) the parent's
    # tracker fd — so the attach-side register is an idempotent re-add of
    # the publisher's own entry (the tracker cache is a set), and the
    # publisher's release performs the single unregister+unlink.  Do NOT
    # unregister here: with a shared tracker that would delete the
    # publisher's entry and make the final unlink misaccounted.
    return SharedMemory(name=name)


def _view(seg: SharedMemory, aspec: ArraySpec) -> np.ndarray:
    arr = np.ndarray(
        aspec.shape,
        dtype=np.dtype(aspec.dtype),
        buffer=seg.buf,
        offset=aspec.offset,
    )
    arr.flags.writeable = False
    return arr


def _attach_asset(ref: AssetRef, rebuild):
    """The asset of one block (cached per process by block name).

    The first attach maps the block, verifies its content hash, and
    rebuilds the asset over read-only views; later calls return the
    cached asset.
    """
    entry = _ATTACHED.get(ref.block)
    if entry is None:
        seg = _open_block(ref.block)
        views = {a.key: _view(seg, a) for a in ref.arrays}
        got = _digest([ref.scalars], views.items())
        if got != ref.content_hash:
            raise DeterminismError(
                f"shared asset block {ref.block!r} does not match its "
                f"manifest (hash {got} != {ref.content_hash}); the block "
                "was mutated or the manifest is stale"
            )
        entry = (got, seg, rebuild(pickle.loads(ref.scalars), views))
        _ATTACHED[ref.block] = entry
    elif entry[0] != ref.content_hash:
        raise DeterminismError(
            f"shared asset block {ref.block!r} is cached with hash "
            f"{entry[0]} but the manifest expects {ref.content_hash}"
        )
    return entry[2]


def attach_context(manifest: ContextManifest) -> ExtractionContext:
    """Attach a published context (cached per process by manifest).

    The first attach verifies the context hash, attaches both assets
    (each block mapped and verified once per process, see
    :func:`_attach_asset`), and rebuilds the per-master state; later calls
    return the cached context in O(1).  A mismatch raises
    :class:`~repro.errors.DeterminismError`.
    """
    key = (manifest.name, manifest.content_hash)
    ctx = _CONTEXTS.get(key)
    if ctx is not None:
        return ctx
    got = _context_hash(manifest.meta, manifest.spec, manifest.index, manifest.table)
    if got != manifest.content_hash:
        raise DeterminismError(
            f"context manifest {manifest.name!r} does not match its hash "
            f"({got} != {manifest.content_hash}); the manifest is corrupt"
        )
    index = _attach_asset(manifest.index, GridIndex.from_packed)
    table = _attach_asset(manifest.table, CubeTransitionTable.from_packed)
    meta = pickle.loads(manifest.meta)
    ctx = ExtractionContext(
        structure=StructureView(
            dielectric=meta["dielectric"],
            enclosure=meta["enclosure"],
            n_base_conductors=meta["n_base_conductors"],
        ),
        master=meta["master"],
        config=meta["config"],
        surface=GaussianSurface.from_packed(*meta["surface"]),
        index=index,
        table=table,
        h_cap=meta["h_cap"],
        absorb_tol=meta["absorb_tol"],
    )
    _CONTEXTS[key] = ctx
    return ctx


def attach_count() -> int:
    """How many distinct asset blocks this process has attached."""
    return len(_ATTACHED)


def published_blocks() -> list[str]:
    """Names of the blocks this process has published and not yet released."""
    return sorted(_PUBLISHED)


def _release_block(name: str) -> None:
    entry = _PUBLISHED.pop(name, None)
    if entry is None:
        return
    del _BLOCK_OF[id(entry.asset)]
    entry.seg.close()
    if entry.owner != os.getpid():
        # A forked copy of the publisher's registry: the block belongs to
        # the parent, which unlinks it; just drop the mapping.
        return
    try:
        entry.seg.unlink()
    except FileNotFoundError:
        pass  # already gone (double release is not an error)


def release_manifest(manifest: ContextManifest) -> None:
    """Drop one manifest's hold on its asset blocks (publisher side,
    idempotent); a block is closed and unlinked with its last user."""
    for ref in (manifest.index, manifest.table):
        entry = _PUBLISHED.get(ref.block)
        if entry is not None and manifest.name in entry.users:
            entry.users.discard(manifest.name)
            if not entry.users:
                _release_block(ref.block)


def release_all() -> None:
    """Close and unlink every block this process still owns."""
    for name in sorted(_PUBLISHED):
        _release_block(name)


# Interpreter-shutdown guard: a solver that is garbage collected without
# close() (or a crashed extraction) must not leave blocks in /dev/shm.
atexit.register(release_all)
