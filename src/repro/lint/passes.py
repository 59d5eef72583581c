"""The whole-program det-lint checks, or passes (DET009..DET012).

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
DET010    shared-memory typestate: every ``SharedMemory`` block (and
          published context manifest) follows create/attach -> close ->
          unlink-exactly-once; leaks, double-unlinks, and use-after-close
          are reported along any path
DET011    RNG counter discipline: calls to the Philox kernels stay
          inside ``repro.rng``, so the compiled counter helper the stream
          helpers and the engine's kernels share is the only counter
          layout
DET012    post-registration mutation: a context/manifest handed to an
          executor's ``register`` (or published to the context plane) is
          frozen — later writes through it are schedule-visible
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
from dataclasses import dataclass, field
from typing import Iterator

from .core import Check, Finding, SourceFile, check, in_package
from .graph import DefUse, FunctionInfo, ProjectGraph, dotted_name
from .rules import CONFIG_MODULE, config_declarations


def _analyzed_modules(graph: ProjectGraph) -> list[str]:
    """Project modules the contract passes apply to.

    Tests and benchmarks deliberately poke internals (leaking fixture
    blocks, calling kernels directly to characterize them); the
    lifecycle/discipline contracts bind the product source only.
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
# DET010 — shared-memory typestate
# ----------------------------------------------------------------------
_SHM_CTORS = frozenset(
    {
        "multiprocessing.shared_memory.SharedMemory",
        "multiprocessing.shared_memory.ShareableList",
        "shared_memory.SharedMemory",
        "shared_memory.ShareableList",
        "SharedMemory",
        "ShareableList",
    }
)
_PUBLISH_FUNCS = frozenset(
    {"repro.frw.shm.publish_context", "publish_context"}
)
_RELEASE_FUNCS = frozenset(
    {"repro.frw.shm.release_manifest", "release_manifest"}
)
#: Attribute reads that touch the mapped buffer (invalid after close).
_BUFFER_ATTRS = frozenset({"buf"})

_OPEN, _CLOSED, _UNLINKED, _ESCAPED = "open", "closed", "unlinked", "escaped"


@dataclass
class _Tracked:
    """Abstract state of one shared-memory object inside a function."""

    name: str
    kind: str  # "segment" | "manifest"
    created: ast.AST
    states: set[str] = field(default_factory=lambda: {_OPEN})

    def may(self, state: str) -> bool:
        return state in self.states


class _TypestateWalker:
    """Path-insensitive-with-branch-merge walk of one function body.

    Branches are analyzed independently from a copy of the entry state
    and merged by union, so "may leak on some path" and "may double
    unlink on some path" are both caught; loops run their body once
    (the protocol has no property that needs a fixpoint — a second
    iteration can only re-report the same event sites).
    """

    def __init__(self, p: Check, graph: ProjectGraph, info: FunctionInfo):
        self.p = p
        self.graph = graph
        self.info = info
        self.src = info.src
        self.resolver = graph.resolvers[info.module]
        self.findings: list[Finding] = []
        self.reported: set[tuple[int, str]] = set()
        self.leak_checked: set[int] = set()

    # -- event helpers -------------------------------------------------
    def _report(self, node: ast.AST, key: str, message: str) -> None:
        marker = (getattr(node, "lineno", 0), key)
        if marker in self.reported:
            return
        self.reported.add(marker)
        self.findings.append(self.p.finding(self.src, node, message))

    def _creation(self, value: ast.AST) -> str | None:
        """"segment"/"manifest" if ``value`` creates a tracked object."""
        if not isinstance(value, ast.Call):
            return None
        canon = self.resolver.canonical(value.func) or ""
        if canon in _SHM_CTORS:
            return "segment"
        if canon in _PUBLISH_FUNCS:
            return "manifest"
        return None

    # -- walk ----------------------------------------------------------
    def run(self) -> list[Finding]:
        state: dict[str, _Tracked] = {}
        self._walk(list(self.info.node.body), state)
        self._check_leaks(state)
        return self.findings

    def _check_leaks(self, state: dict[str, _Tracked]) -> None:
        for var in state.values():
            if var.may(_OPEN) and not var.may(_ESCAPED):
                if id(var.created) in self.leak_checked:
                    continue
                self.leak_checked.add(id(var.created))
                noun = (
                    "SharedMemory block"
                    if var.kind == "segment"
                    else "published context block"
                )
                fix = (
                    "close() and unlink() it, return it, or hand it to "
                    "an owning registry"
                    if var.kind == "segment"
                    else "release_manifest() it, return it, or store it "
                    "in an owning registry"
                )
                self._report(
                    var.created,
                    f"leak:{var.name}",
                    f"{noun} bound to {var.name!r} may still be mapped "
                    f"when this function exits on some path — {fix}; "
                    "leaked blocks survive in /dev/shm",
                )

    def _walk(self, stmts: list[ast.stmt], state: dict[str, _Tracked]) -> None:
        for stmt in stmts:
            self._statement(stmt, state)

    def _branch(
        self, bodies: list[list[ast.stmt]], state: dict[str, _Tracked]
    ) -> None:
        merged: dict[str, _Tracked] | None = None
        for body in bodies:
            branch_state = {
                k: _Tracked(v.name, v.kind, v.created, set(v.states))
                for k, v in state.items()
            }
            self._walk(body, branch_state)
            if merged is None:
                merged = branch_state
            else:
                for k, v in branch_state.items():
                    if k in merged:
                        merged[k].states |= v.states
                    else:
                        merged[k] = v
        if merged is not None:
            state.clear()
            state.update(merged)

    def _statement(self, stmt: ast.stmt, state: dict[str, _Tracked]) -> None:
        if isinstance(stmt, ast.If):
            self._scan_events(stmt.test, state)
            self._branch([stmt.body, stmt.orelse], state)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_events(stmt.iter, state)
            self._branch([stmt.body + stmt.orelse, []], state)
            return
        if isinstance(stmt, ast.While):
            self._scan_events(stmt.test, state)
            self._branch([stmt.body + stmt.orelse, []], state)
            return
        if isinstance(stmt, ast.Try):
            # The body may stop anywhere; handlers run from a merged
            # view.  finally always runs.
            self._branch(
                [stmt.body + stmt.orelse]
                + [h.body for h in stmt.handlers],
                state,
            )
            self._walk(stmt.finalbody, state)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_events(item.context_expr, state)
            self._walk(stmt.body, state)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._mark_escapes(stmt.value, state)
                self._scan_events(stmt.value, state)
            self._check_leaks(state)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_events(stmt.value, state)
            kind = self._creation(stmt.value)
            target = stmt.targets[0] if len(stmt.targets) == 1 else None
            if kind and isinstance(target, ast.Name):
                state[target.id] = _Tracked(target.id, kind, stmt.value)
                return
            # Storing a tracked object anywhere transfers ownership.
            self._mark_escapes(stmt.value, state)
            if isinstance(target, ast.Name) and target.id in state:
                # Rebinding the name forgets the old object: if it was
                # still open this is where it leaks.
                old = state[target.id]
                if old.may(_OPEN) and not old.may(_ESCAPED):
                    self._report(
                        stmt,
                        f"rebind:{target.id}",
                        f"{target.id!r} is rebound while its "
                        "shared-memory object may still be mapped — the "
                        "old block can no longer be closed or unlinked",
                    )
                del state[target.id]
            return
        # Everything else: scan expressions for events.
        self._scan_events(stmt, state)

    def _mark_escapes(
        self, expr: ast.AST, state: dict[str, _Tracked]
    ) -> None:
        # Only a *whole-object* reference transfers ownership: passing
        # ``seg`` out escapes it; passing ``seg.buf`` or ``seg.name``
        # hands out a view/identifier and leaves local obligations
        # intact (else every np.ndarray(buffer=seg.buf) would silence
        # leak detection).
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                continue
            if isinstance(node, ast.Name):
                if node.id in state:
                    state[node.id].states.add(_ESCAPED)
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _scan_events(self, node: ast.AST, state: dict[str, _Tracked]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._call_event(sub, state)
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, ast.Load
            ):
                if (
                    sub.attr in _BUFFER_ATTRS
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in state
                ):
                    var = state[sub.value.id]
                    if var.may(_CLOSED) or var.may(_UNLINKED):
                        self._report(
                            sub,
                            f"uac:{sub.value.id}",
                            f"'{sub.value.id}.{sub.attr}' may be read "
                            "after close()/unlink() on some path — the "
                            "mapping is gone; reads are torn or crash",
                        )

    def _call_event(self, call: ast.Call, state: dict[str, _Tracked]) -> None:
        func = call.func
        # v.close() / v.unlink()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in state
        ):
            var = state[func.value.id]
            if func.attr == "close":
                var.states = {
                    _CLOSED if s == _OPEN else s for s in var.states
                }
                return
            if func.attr == "unlink":
                if var.may(_UNLINKED):
                    self._report(
                        call,
                        f"dunlink:{var.name}",
                        f"{var.name!r} may be unlink()ed twice along this "
                        "path — the second unlink raises or, worse, "
                        "removes a name another publisher reused",
                    )
                var.states = {
                    _UNLINKED if s in (_OPEN, _CLOSED) else s
                    for s in var.states
                }
                return
        # release_manifest(m)
        canon = self.resolver.canonical(func) or ""
        if canon in _RELEASE_FUNCS:
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in state:
                    var = state[arg.id]
                    var.states = {
                        _UNLINKED if s in (_OPEN, _CLOSED) else s
                        for s in var.states
                    }
            return
        # Passing a tracked object to any other call transfers ownership
        # (the graph cannot prove the callee does not keep it).
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            self._mark_escapes(arg, state)


@check(
    "DET010",
    "SharedMemory lifecycle typestate (leak / double-unlink / "
    "use-after-close)",
    whole_program=True,
)
def det010_shm_typestate(p: Check, graph: ProjectGraph) -> Iterator[Finding]:
    """Models every locally-constructed ``SharedMemory`` block (and every
    locally-published context manifest) as a protocol automaton —
    create/attach -> close -> unlink exactly once — and walks each
    function's branches reporting any path on which a block leaks (still
    mapped and unowned at exit), is unlinked twice, or whose buffer is
    read after close.  Ownership transfers (returning the object,
    storing it into a registry, passing it to another call) end local
    obligations: cross-function lifetimes are the context plane's job,
    and DET008 already confines raw construction to it."""
    analyzed = set(_analyzed_modules(graph))
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        if info.module not in analyzed:
            continue
        yield from _TypestateWalker(p, graph, info).run()


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
#: Call names that freeze their object arguments: executor registration
#: and context-plane publication.
_FREEZE_CALL_ATTRS = frozenset({"register", "publish_context"})
_FREEZE_CANON = frozenset(
    {"repro.frw.shm.publish_context", "publish_context"}
)


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
    "context/manifest mutation after executor registration",
    whole_program=True,
)
def det012_post_registration_mutation(
    p: Check, graph: ProjectGraph
) -> Iterator[Finding]:
    """Registering a context with an executor (or publishing it to the
    shared-memory plane) snapshots it: process workers attach a
    hash-verified copy.  A write through the registered object after
    that point diverges from what workers see (the manifest hash check
    fires late, mid-extraction).  This pass freezes every simple-name /
    ``self.attr`` argument of a ``register(...)`` / ``publish_context``
    call for the remainder of the function and reports later attribute
    or item writes through it."""
    analyzed = set(_analyzed_modules(graph))
    for qual in sorted(graph.functions):
        info = graph.functions[qual]
        if info.module not in analyzed:
            continue
        resolver = graph.resolvers[info.module]
        frozen: dict[str, tuple[ast.AST, int]] = {}
        for stmt in _stmt_sequence(info.node):
            # New freezes from calls in this statement.
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                is_freeze = (
                    isinstance(func, ast.Attribute)
                    and func.attr in _FREEZE_CALL_ATTRS
                ) or (resolver.canonical(func) or "") in _FREEZE_CANON
                if not is_freeze:
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
