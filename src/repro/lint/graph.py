"""Name resolution and the whole-program analysis graph for det-lint.

:func:`dotted_name` and :class:`ImportResolver` are how every check, per
file or whole-program, turns an expression into an absolute dotted name.
The per-file checks (:mod:`repro.lint.rules`) see one ``SourceFile`` at a
time, which is enough for local invariants ("no ``time.time()`` here") but
not for the *contracts* the memoizing service rests on — "every
result-affecting ``FRWConfig`` field enters the canonical hash" is a
property of the program, not of a file.  This module also builds the
shared substrate those whole-program passes (:mod:`repro.lint.passes`)
run on:

* **Module graph** — every parsed :class:`~repro.lint.core.SourceFile`
  keyed by dotted module name, with project-internal import edges
  (relative imports resolved against the importing module's package) and
  BFS reachability over them.
* **Function index & call graph** — every function/method under its
  qualified name (``repro.frw.engine.WalkPipeline._step``) with
  *confidently resolved* project-internal call edges: imported names,
  module-local functions, ``self.method()`` within a class, and
  constructor calls (``Class()`` → ``Class.__init__``).  Unresolvable
  dynamic calls are simply absent — the passes that consume the graph are
  written so a missing edge can only lose a finding inside the analyzed
  set, never invent one.
* **Def-use chains** — per function: name definitions (parameters and
  assignments with their value expressions), name/attribute reads, and
  attribute/subscript writes, in source order.  Passes use these to track
  aliases (``cfg = ctx.config``), typestate objects, and
  post-registration mutation.

Everything is plain ``ast`` — parsing happens once in
:func:`repro.lint.project.lint_project` and the graph only indexes the
shared trees, so building it costs milliseconds even repo-wide.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .core import SourceFile


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportResolver:
    """Alias map of one module's imports with relative imports resolved.

    The resolver knows the importing module's dotted name, so
    ``from .philox import philox4x32`` inside ``repro.rng.counter_stream``
    canonicalizes to ``repro.rng.philox.philox4x32`` — which is what lets
    the checks confine sanctioned helpers by their *absolute* module
    path.
    """

    def __init__(self, src: SourceFile):
        self.module = src.module
        self._module_file = src.abspath or src.path
        #: alias -> absolute dotted target (module or module.symbol)
        self.aliases: dict[str, str] = {}
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        self.aliases[a.asname] = a.name
                    else:
                        head = a.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from(node)
                if base is None:
                    continue
                for a in node.names:
                    if a.name == "*":
                        continue
                    target = f"{base}.{a.name}" if base else a.name
                    self.aliases[a.asname or a.name] = target

    def _resolve_from(self, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        # Relative import: strip ``level`` trailing components from the
        # importing module's *package* path.  A module ``a.b.c`` lives in
        # package ``a.b``, so level=1 resolves against ``a.b``; packages
        # themselves (``__init__`` files map to their package name) count
        # as their own level-1 base.
        parts = self.module.split(".")
        # SourceFile.module maps __init__.py to the package name itself,
        # where level=1 means "this package"; for plain modules it means
        # "my package", i.e. drop the module component first.
        if not self._is_package():
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            parts = parts[: len(parts) - drop] if drop <= len(parts) else []
        base = ".".join(parts)
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base or None

    def _is_package(self) -> bool:
        # Consistent with module_name_for: a SourceFile whose file is an
        # __init__.py maps to the package name itself.
        return (self._module_file or "").endswith("__init__.py")

    def canonical(self, node: ast.AST) -> str | None:
        """Absolute dotted name of an expression, alias-resolved."""
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self.aliases.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str  #: ``module.Class.method`` / ``module.func``
    module: str
    name: str
    cls: str | None
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    src: SourceFile

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class DefUse:
    """Source-ordered def-use chains of one function (or module body).

    ``assigns`` records ``name = <expr>`` bindings (simple-name targets
    only); ``attr_reads`` every loaded attribute chain with its dotted
    path; ``attr_writes`` every attribute/subscript store with the dotted
    path of its *base object*; ``calls`` every call with its
    alias-resolved dotted callee (or ``None`` for dynamic callees).
    """

    assigns: list[tuple[str, ast.AST, ast.stmt]] = field(default_factory=list)
    attr_reads: list[tuple[str, ast.Attribute]] = field(default_factory=list)
    attr_writes: list[tuple[str, ast.AST]] = field(default_factory=list)
    calls: list[tuple[str | None, ast.Call]] = field(default_factory=list)
    params: list[tuple[str, ast.expr | None]] = field(default_factory=list)


def _iter_own_nodes(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested defs/classes.

    Nested functions get their own :class:`FunctionInfo`; attributing
    their statements to the enclosing function would double-count them.
    """
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack[:0] = list(ast.iter_child_nodes(node))


class ProjectGraph:
    """Module/import/call graph plus def-use chains over parsed sources."""

    def __init__(self, sources: Iterable[SourceFile]):
        #: dotted module name -> SourceFile
        self.sources: dict[str, SourceFile] = {}
        for src in sources:
            self.sources[src.module] = src
        #: module -> project-internal modules it imports
        self.imports: dict[str, set[str]] = {}
        #: module -> resolver (shared by passes; built once per module)
        self.resolvers: dict[str, ImportResolver] = {}
        #: qualname -> FunctionInfo
        self.functions: dict[str, FunctionInfo] = {}
        #: qualname -> resolved project-internal callee qualnames
        self.calls: dict[str, set[str]] = {}
        self._defuse: dict[int, DefUse] = {}
        for module, src in self.sources.items():
            resolver = ImportResolver(src)
            self.resolvers[module] = resolver
            self.imports[module] = self._module_edges(resolver)
            self._index_functions(src)
        for info in list(self.functions.values()):
            self.calls[info.qualname] = self._call_edges(info)

    # ------------------------------------------------------------------
    # Module graph
    # ------------------------------------------------------------------
    def _project_module(self, target: str) -> str | None:
        """Longest prefix of ``target`` that names a parsed module."""
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            cand = ".".join(parts[:end])
            if cand in self.sources:
                return cand
        return None

    def _module_edges(self, resolver: ImportResolver) -> set[str]:
        edges = set()
        for target in resolver.aliases.values():
            mod = self._project_module(target)
            if mod is not None and mod != resolver.module:
                edges.add(mod)
        return edges

    def reachable_modules(self, seeds: Iterable[str]) -> set[str]:
        """Transitive import closure of ``seeds`` (parsed modules only).

        A package module (``repro.frw``) pulls in nothing implicitly —
        only explicit import edges count — but seeds that are not parsed
        are silently skipped, so partial runs degrade to smaller closures
        instead of erroring.
        """
        out: set[str] = set()
        queue = deque(m for m in seeds if m in self.sources)
        while queue:
            mod = queue.popleft()
            if mod in out:
                continue
            out.add(mod)
            queue.extend(self.imports.get(mod, ()) - out)
        return out

    # ------------------------------------------------------------------
    # Function index & call graph
    # ------------------------------------------------------------------
    def _index_functions(self, src: SourceFile) -> None:
        def visit(node: ast.AST, prefix: str, cls: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = f"{prefix}.{child.name}"
                    self.functions[qual] = FunctionInfo(
                        qualname=qual,
                        module=src.module,
                        name=child.name,
                        cls=cls,
                        node=child,
                        src=src,
                    )
                    visit(child, qual, None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", child.name)
                else:
                    visit(child, prefix, cls)

        visit(src.tree, src.module, None)

    def resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> str | None:
        """Qualname of a call's project-internal target, if confident."""
        resolver = self.resolvers[info.module]
        name = dotted_name(call.func)
        if name is None:
            return None
        # self.method() -> method of the enclosing class
        if name.startswith("self.") and info.cls is not None:
            cand = f"{info.module}.{info.cls}.{name[len('self.'):]}"
            if cand in self.functions:
                return cand
        canon = resolver.canonical(call.func)
        if canon is None:
            return None
        if canon in self.functions:
            return canon
        # Constructor call: Class() -> Class.__init__
        init = f"{canon}.__init__"
        if init in self.functions:
            return init
        # Bare module-local name: function, or class constructor
        if "." not in name:
            cand = f"{info.module}.{name}"
            if cand in self.functions:
                return cand
            local_init = f"{cand}.__init__"
            if local_init in self.functions:
                return local_init
        return None

    def _call_edges(self, info: FunctionInfo) -> set[str]:
        edges = set()
        for node in _iter_own_nodes(info.node):
            if isinstance(node, ast.Call):
                target = self.resolve_call(info, node)
                if target is not None:
                    edges.add(target)
        return edges

    def reachable_functions(self, seeds: Iterable[str]) -> set[str]:
        """Transitive call closure of ``seeds`` (indexed functions only)."""
        out: set[str] = set()
        queue = deque(q for q in seeds if q in self.functions)
        while queue:
            qual = queue.popleft()
            if qual in out:
                continue
            out.add(qual)
            queue.extend(self.calls.get(qual, set()) - out)
        return out

    def functions_in(self, module: str) -> list[FunctionInfo]:
        """All functions of one module, in source order."""
        return sorted(
            (f for f in self.functions.values() if f.module == module),
            key=lambda f: f.lineno,
        )

    # ------------------------------------------------------------------
    # Def-use chains
    # ------------------------------------------------------------------
    def def_use(self, scope: FunctionInfo | SourceFile) -> DefUse:
        """Def-use chains of a function (or a module's top level), cached."""
        if isinstance(scope, FunctionInfo):
            node, module, key = scope.node, scope.module, id(scope.node)
        else:
            node, module, key = scope.tree, scope.module, id(scope.tree)
        cached = self._defuse.get(key)
        if cached is not None:
            return cached
        resolver = self.resolvers[module]
        du = DefUse()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                du.params.append((a.arg, a.annotation))
            for a in (args.vararg, args.kwarg):
                if a is not None:
                    du.params.append((a.arg, a.annotation))
        for sub in _iter_own_nodes(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        du.assigns.append((target.id, sub.value, sub))
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                if isinstance(sub.target, ast.Name):
                    du.assigns.append((sub.target.id, sub.value, sub))
            elif isinstance(sub, ast.Call):
                du.calls.append((resolver.canonical(sub.func), sub))
            if isinstance(sub, ast.Attribute):
                path = dotted_name(sub)
                if path is None:
                    continue
                if isinstance(sub.ctx, ast.Load):
                    du.attr_reads.append((path, sub))
                else:
                    du.attr_writes.append((path, sub))
            elif isinstance(sub, ast.Subscript) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                base = dotted_name(sub.value)
                if base is not None:
                    du.attr_writes.append((base, sub))
        self._defuse[key] = du
        return du
