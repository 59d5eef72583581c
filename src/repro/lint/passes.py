"""The whole-program det-lint checks, or passes (DET009, DET011, DET012).

These run on the :class:`~repro.lint.graph.ProjectGraph` rather than one
file at a time: each checks a *contract* that spans modules — the
invariants the paper's reproducibility guarantee and the memoizing
extraction service rest on, promoted from reviewer vigilance to
machine-checked analysis.

========  ==============================================================
pass      contract
========  ==============================================================
DET009    cache-key completeness: every ``FRWConfig`` field read on the
          result path is either in ``RESULT_FIELDS`` (and so in the
          service's canonical hash) or declared bit-invisible in the
          ``ENGINE_FIELDS`` allowlist; hashed-but-never-read fields are
          flagged as staleness
DET011    RNG counter discipline: calls to the Philox kernels stay
          inside ``repro.rng``, so the compiled counter helper the stream
          helpers and the engine's kernels share is the only counter
          layout
DET012    post-registration mutation: a context handed to an executor's
          ``register`` is frozen — later writes through it are
          schedule-visible
========  ==============================================================

Like the per-file checks, the passes are calibrated heuristics: confident
resolution only (a dynamic call the graph cannot resolve loses an edge,
never invents a finding), suppressible with justified ``det: allow``
comments, and tuned for near-zero false positives on this codebase.
Partial runs (linting a subdirectory) degrade gracefully — a pass whose
anchor modules are not in the analyzed set reports nothing rather than
guessing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Check, Finding, SourceFile, check, in_package
from .graph import DefUse, ProjectGraph, dotted_name
from .rules import CONFIG_MODULE, config_declarations


def _analyzed_modules(graph: ProjectGraph) -> list[str]:
    """Project modules the contract passes apply to.

    Tests and benchmarks deliberately poke internals (calling kernels
    directly to characterize them); the discipline contracts bind the
    product source only.
    """
    return sorted(m for m in graph.sources if in_package(m, ("repro",)))


# ----------------------------------------------------------------------
# DET009 — cache-key completeness
# ----------------------------------------------------------------------
_HASH_MODULE = "repro.service.canonical"
#: Result-path roots: everything importable from these determines bits.
_ENTRY_MODULES = (
    "repro.frw.solver",
    "repro.frw.engine",
    "repro.frw.estimator",
)
#: Names under which a config object conventionally travels.
_CONFIG_NAMES = frozenset({"config", "cfg"})


def _config_aliases(du: DefUse) -> set[str]:
    """Local names bound to a config object in one function."""
    names = set(_CONFIG_NAMES)
    for name, annotation in du.params:
        if annotation is not None:
            ann = dotted_name(annotation)
            if ann is None and isinstance(annotation, ast.Constant):
                ann = str(annotation.value)
            if ann and ann.split(".")[-1] == "FRWConfig":
                names.add(name)
    for name, value, _stmt in du.assigns:
        v = dotted_name(value)
        if v and (v in names or v.split(".")[-1] in _CONFIG_NAMES):
            names.add(name)
    return names


def _config_reads(
    graph: ProjectGraph, module: str, fields: frozenset[str]
) -> Iterator[tuple[str, SourceFile, ast.Attribute]]:
    """Every ``<config>.<field>`` read in one module."""
    src = graph.sources[module]
    scopes: list = list(graph.functions_in(module)) + [src]
    for scope in scopes:
        du = graph.def_use(scope)
        aliases = _config_aliases(du)
        for path, node in du.attr_reads:
            if node.attr not in fields:
                continue
            base = path.rsplit(".", 1)[0] if "." in path else ""
            if not base:
                continue
            tail = base.split(".")[-1]
            if tail in _CONFIG_NAMES or base in aliases:
                yield node.attr, src, node


@check(
    "DET009",
    "FRWConfig cache-key completeness vs the canonical hash",
    whole_program=True,
)
def det009_cache_key_completeness(
    p: Check, graph: ProjectGraph
) -> Iterator[Finding]:
    """The memoizing service replays cached rows for any request whose
    canonical hash collides — so every config field that can change a
    result bit *must* enter the hash (``RESULT_FIELDS``), and every field
    deliberately excluded must be declared bit-invisible
    (``ENGINE_FIELDS``, certified by the golden suites).  This pass
    traces every ``FRWConfig`` field read in the modules reachable from
    the solver/engine/estimator entry points and reports (a) reads of
    fields in neither list — a cache-unsoundness hole — and (b)
    ``RESULT_FIELDS`` entries never read on the result path — staleness
    that widens the cache key for nothing.  It also checks that the hash
    module still derives its field list from ``result_key()`` /
    ``RESULT_FIELDS`` rather than a drifted private copy.
    """
    cfg_src = graph.sources.get(CONFIG_MODULE)
    if cfg_src is None:
        return
    fields, _post_init, result, engine = config_declarations(cfg_src)
    if not fields:
        return
    field_set = frozenset(fields)

    # Declared-but-unknown entries: a tuple naming a non-field is drift.
    for name, node in list(result.items()) + list(engine.items()):
        if name not in field_set:
            which = "RESULT_FIELDS" if name in result else "ENGINE_FIELDS"
            yield p.finding(
                cfg_src,
                node,
                f"{which} entry {name!r} is not an FRWConfig dataclass "
                "field — remove the stale entry",
            )

    reach = graph.reachable_modules(_ENTRY_MODULES)
    reach.discard(CONFIG_MODULE)
    reads: dict[str, list[tuple[str, int, int, SourceFile, ast.AST]]] = {}
    for module in sorted(reach):
        for fname, src, node in _config_reads(graph, module, field_set):
            reads.setdefault(fname, []).append(
                (src.path, node.lineno, node.col_offset, src, node)
            )

    classified = set(result) | set(engine)
    for fname in sorted(set(reads) - classified):
        _path, _line, _col, src, node = min(
            reads[fname], key=lambda t: t[:3]
        )
        sites = len(reads[fname])
        yield p.finding(
            src,
            node,
            f"FRWConfig.{fname} is read on the result path ({sites} "
            "site(s)) but appears in neither RESULT_FIELDS (canonical "
            "cache key) nor the ENGINE_FIELDS bit-invisible allowlist — "
            "classify it or identical cache keys may replay different "
            "results",
        )

    # Staleness needs the full result-path closure; a partial run that
    # lacks an entry module would see spurious never-read fields.
    if all(m in graph.sources for m in _ENTRY_MODULES):
        for fname in sorted(set(result) & field_set):
            if fname not in reads:
                yield p.finding(
                    cfg_src,
                    result[fname],
                    f"RESULT_FIELDS entry {fname!r} is hashed into the "
                    "canonical cache key but never read on the result "
                    "path — stale entries fragment the cache for nothing",
                )

    hash_src = graph.sources.get(_HASH_MODULE)
    if hash_src is not None:
        wanted = {"result_key", "RESULT_FIELDS"}
        seen = {
            n.attr
            for n in ast.walk(hash_src.tree)
            if isinstance(n, ast.Attribute)
        } | {
            n.id for n in ast.walk(hash_src.tree) if isinstance(n, ast.Name)
        }
        if not (wanted & seen):
            yield p.finding(
                hash_src,
                hash_src.tree.body[0] if hash_src.tree.body else hash_src.tree,
                "the canonical-hash module no longer consumes "
                "FRWConfig.result_key()/RESULT_FIELDS — its field list "
                "can silently drift from the declared cache key",
            )


# ----------------------------------------------------------------------
# DET011 — RNG counter discipline
# ----------------------------------------------------------------------
#: Only the stream-helper package may call the Philox kernels.
_RNG_PACKAGES = ("repro.rng",)
#: The raw Philox kernels and key-derivation entry points, Python and
#: compiled (the ``repro.native`` wrappers of ``kernels.c``).
_PHILOX_KERNELS = frozenset(
    {
        "philox4x32",
        "philox4x32_scalar",
        "philox4x32_block",
        "philox_span",
        "derive_key",
    }
)
_PHILOX_PACKAGES = ("repro.rng.", "repro.native.")


@check(
    "DET011",
    "Philox counter arithmetic outside sanctioned helpers",
    whole_program=True,
)
def det011_rng_counter_discipline(
    p: Check, graph: ProjectGraph
) -> Iterator[Finding]:
    """Draws are a pure function of ``(seed, uid, step, slot)`` only
    because the Philox counter layout is defined once: the shared
    counter helper of ``repro/native/kernels.c``, which the span kernel
    behind ``repro.rng.WalkStreams.draws`` and the engine's compiled
    launch and hop all use.  A Python caller that invokes ``philox4x32*``,
    ``philox_span`` or ``derive_key`` directly builds its own counters or
    keys and silently forks the stream: results stay plausible and
    bit-identity across DOP quietly dies.  This pass confines calls to
    the raw Philox kernels and ``derive_key`` to ``repro.rng``; the
    compiled kernels' Python wrappers in ``repro.native`` count as raw
    kernels."""
    for module in _analyzed_modules(graph):
        src = graph.sources[module]
        if in_package(module, _RNG_PACKAGES):
            continue
        resolver = graph.resolvers[module]
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            canon = resolver.canonical(node.func) or ""
            tail = canon.rsplit(".", 1)[-1]
            if tail in _PHILOX_KERNELS and canon.startswith(_PHILOX_PACKAGES):
                yield p.finding(
                    src,
                    node,
                    f"raw Philox kernel call '{tail}' outside repro.rng — "
                    "the counter layout is defined once, in the compiled "
                    "counter helper the stream helpers (WalkStreams."
                    "draws) and the engine's kernels share; a "
                    "hand-built counter forks the per-walk stream",
                )


# ----------------------------------------------------------------------
# DET012 — post-registration mutation
# ----------------------------------------------------------------------
#: The call name that freezes its object arguments: executor registration.
_FREEZE_CALL_ATTR = "register"


def _stmt_sequence(node: ast.AST) -> Iterator[ast.stmt]:
    """All statements of a function in source order (branch bodies
    inline), without descending into nested defs."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(child, ast.stmt):
            yield child
            yield from _stmt_sequence(child)
        else:
            yield from _stmt_sequence(child)


@check(
    "DET012",
    "context mutation after executor registration",
    whole_program=True,
)
def det012_post_registration_mutation(
    p: Check, graph: ProjectGraph
) -> Iterator[Finding]:
    """Registering a context with an executor hands it to the worker
    threads by reference: a write through the registered object after
    that point is seen by a worker mid-batch, at a schedule-dependent
    walk.  This pass freezes every simple-name / ``self.attr`` argument
    of a ``register(...)`` call for the remainder of the function and
    reports later attribute or item writes through it."""
    analyzed = set(_analyzed_modules(graph))
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        if info.module not in analyzed:
            continue
        frozen: dict[str, tuple[ast.AST, int]] = {}
        for stmt in _stmt_sequence(info.node):
            # New freezes from calls in this statement.
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr == _FREEZE_CALL_ATTR
                ):
                    continue
                for arg in sub.args:
                    path = dotted_name(arg)
                    if path is None:
                        continue
                    frozen.setdefault(path, (sub, sub.lineno))
            if not frozen:
                continue
            # Writes through frozen objects strictly after the freeze.
            targets: list[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                base_node = target.value
                base = dotted_name(base_node)
                if base is None:
                    continue
                for path, (call, line) in frozen.items():
                    if (
                        base == path or base.startswith(path + ".")
                    ) and stmt.lineno > line:
                        yield p.finding(
                            info.src,
                            stmt,
                            f"{path!r} is mutated after being registered "
                            f"with an executor (line {line}) — workers "
                            "hold a snapshot/shared view; post-"
                            "registration writes diverge or race (make "
                            "the change before register(), or register a "
                            "fresh context)",
                        )
                        break
