"""The per-file det-lint checks (DET001..DET008).

Every check here is a small AST visitor over one
:class:`~repro.lint.core.SourceFile` (DET007 additionally reads ``README.md``
/ ``docs/PERFORMANCE.md`` next to the config module); names resolve through
the same :class:`~repro.lint.graph.ImportResolver` the whole-program checks
use.  Checks are *calibrated heuristics*: they are tuned to catch the
failure modes that actually destroy DOP-independent reproducibility in this
codebase with near-zero false positives, and every remaining intentional
hit carries a justified ``# det: allow(...)`` suppression.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator

from .core import Check, Finding, SourceFile, check, in_package
from .graph import ImportResolver, dotted_name

_RNG_WHITELIST = ("repro.rng", "repro.experiments")
_HOT_MODULES = ("repro.frw", "repro.numerics")
#: The module that *implements* the compensated primitives is allowed raw
#: float recurrences — that is its whole job.
_SUMMATION_MODULE = "repro.numerics.summation"


# ----------------------------------------------------------------------
# DET001 — global RNG use
# ----------------------------------------------------------------------
#: Constructors of *private* generator objects.  Explicitly seeded, these
#: are deterministic and touch no global state, so outside the ``repro``
#: library (tests, benchmarks) they are legitimate fixture tools; inside
#: the library they still belong behind ``repro.rng`` so every solver RNG
#: entry point is vouched for in one place.
_PRIVATE_GENERATOR_CTORS = (
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.MT19937",
    "random.Random",
)


@check(
    "DET001",
    "global RNG use outside repro.rng / repro.experiments",
)
def det001_global_rng(rule: Check, src: SourceFile) -> Iterator[Finding]:
    """Any ``np.random.*`` / ``random.*`` call outside the whitelisted
    modules.  Walk samples must come from the counter-based per-walk
    streams; even *seeded* ad-hoc generators belong in :mod:`repro.rng`
    (e.g. ``seeded_generator``) so the sanitizer and this rule can vouch
    for every RNG entry point in the solver.  Outside the library (tests,
    benchmarks), constructing a *private* seeded generator is allowed —
    it touches no global state; argless construction is still DET002."""
    if in_package(src.module, _RNG_WHITELIST):
        return
    in_library = src.module.split(".", 1)[0] == "repro"
    imports = ImportResolver(src)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        name = imports.canonical(node.func)
        if name is None:
            continue
        if name in _PRIVATE_GENERATOR_CTORS and not in_library:
            continue
        if name.startswith("numpy.random.") or name == "numpy.random":
            yield rule.finding(
                src,
                node,
                f"global NumPy RNG call '{name}' — use the counter-based "
                "streams or helpers in repro.rng (DOP-independent, seeded)",
            )
        elif name == "random" or name.startswith("random."):
            yield rule.finding(
                src,
                node,
                f"stdlib global-state RNG call '{name}' — use repro.rng "
                "streams/helpers instead",
            )


# ----------------------------------------------------------------------
# DET002 — wall-clock / entropy-derived seeds
# ----------------------------------------------------------------------
_DET002_WALLCLOCK = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
}
_DET002_ENTROPY = {
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "OS entropy",
}
_DET002_ARGLESS = {
    "numpy.random.default_rng": "entropy-seeded generator",
    "numpy.random.RandomState": "entropy-seeded generator",
    "numpy.random.seed": "reseeding global state from entropy",
    "random.seed": "reseeding global state from entropy",
    "random.Random": "entropy-seeded generator",
}


def _is_argless_seed(node: ast.Call) -> bool:
    if node.args and not (
        len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value is None
    ):
        return False
    return not any(
        kw.arg == "seed" and not (
            isinstance(kw.value, ast.Constant) and kw.value.value is None
        )
        for kw in node.keywords
    )


@check("DET002", "wall-clock- or entropy-derived values/seeds")
def det002_entropy_seed(rule: Check, src: SourceFile) -> Iterator[Finding]:
    """``time.time()``, ``os.urandom``, argless ``default_rng()`` and
    friends: anything that injects the host's clock or entropy pool.
    Durations belong to ``time.perf_counter()``; seeds must be explicit."""
    imports = ImportResolver(src)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        name = imports.canonical(node.func)
        if name is None:
            continue
        if name in _DET002_WALLCLOCK:
            hint = (
                " (use time.perf_counter() for durations)"
                if name.startswith("time.")
                else ""
            )
            yield rule.finding(
                src,
                node,
                f"'{name}' derives a value from {_DET002_WALLCLOCK[name]}"
                + hint,
            )
        elif name in _DET002_ENTROPY or name.startswith("secrets."):
            why = _DET002_ENTROPY.get(name, "OS entropy")
            yield rule.finding(
                src, node, f"'{name}' derives a value from {why}"
            )
        elif name in _DET002_ARGLESS and _is_argless_seed(node):
            yield rule.finding(
                src,
                node,
                f"argless '{name}()' is {_DET002_ARGLESS[name]} — pass an "
                "explicit seed",
            )
        elif name == "time.strftime" and len(node.args) < 2:
            yield rule.finding(
                src,
                node,
                "'time.strftime' without a time argument formats the "
                "current wall-clock time",
            )


# ----------------------------------------------------------------------
# DET003 — unordered iteration feeding an accumulator
# ----------------------------------------------------------------------
def _unordered_iter(node: ast.AST) -> str | None:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
            return f"{fn.id}(...)"
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in ("keys", "values", "items")
            and not node.args
        ):
            return f"a dict .{fn.attr}() view"
    return None


_ACCUM_CALLS = (
    "merge",
    "add_at",
    "add_walk",
    "add_walks_ordered",
    "add_batch",
    "fsum",
)


def _accumulation_evidence(body: list[ast.stmt]) -> str | None:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target = dotted_name(node.target) or "<target>"
                return f"'{target} {'+=' if isinstance(node.op, ast.Add) else '-='} ...'"
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _ACCUM_CALLS or "kahan" in (
                    node.func.attr.lower()
                ):
                    return f"a call to '.{node.func.attr}(...)'"
    return None


@check("DET003", "iteration over set/dict views feeding an accumulator")
def det003_unordered_iteration(
    rule: Check, src: SourceFile
) -> Iterator[Finding]:
    """A ``for`` over a set (hash order) or a dict view (insertion order —
    which under concurrency is schedule order) whose body accumulates or
    merges: the float result then depends on iteration order.  Iterate
    ``sorted(...)`` keys/items instead."""
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.For):
            continue
        what = _unordered_iter(node.iter)
        if what is None:
            continue
        why = _accumulation_evidence(node.body)
        if why is None:
            continue
        yield rule.finding(
            src,
            node,
            f"loop over {what} accumulates ({why}); iteration order is not "
            "a deterministic function of the inputs — iterate "
            "sorted(...) instead",
        )


# ----------------------------------------------------------------------
# DET004 — bare/broad except in hot paths
# ----------------------------------------------------------------------
_BROAD = ("Exception", "BaseException")


def _broad_handler(handler: ast.ExceptHandler) -> str | None:
    if handler.type is None:
        return "bare 'except:'"
    names = (
        [handler.type]
        if not isinstance(handler.type, ast.Tuple)
        else list(handler.type.elts)
    )
    for n in names:
        if isinstance(n, ast.Name) and n.id in _BROAD:
            return f"'except {n.id}'"
    return None


@check("DET004", "bare/broad except in repro.frw / repro.numerics")
def det004_broad_except(rule: Check, src: SourceFile) -> Iterator[Finding]:
    """Broad handlers in the hot paths swallow the very errors (RNG misuse,
    shape bugs, worker crashes) that reproducibility depends on surfacing.
    Handlers that re-raise are exempt."""
    if not in_package(src.module, _HOT_MODULES):
        return
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        what = _broad_handler(node)
        if what is None:
            continue
        reraises = any(
            isinstance(n, ast.Raise) and n.exc is None
            for stmt in node.body
            for n in ast.walk(stmt)
        )
        if reraises:
            continue
        yield rule.finding(
            src,
            node,
            f"{what} in a hot path swallows errors silently — narrow to "
            "the concrete exception types and log or re-raise",
        )


# ----------------------------------------------------------------------
# DET005 — raw float accumulation where Kahan is required
# ----------------------------------------------------------------------
def _float_evidence(expr: ast.AST) -> str | None:
    """Why we believe an expression is float-valued (else ``None``)."""
    # An explicit int(...) wrapper is a deliberate integer reduction.
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) and (
        expr.func.id == "int"
    ):
        return None
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return f"float literal {node.value!r}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                return "a float(...) conversion"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return "a true division"
    return None


@check("DET005", "raw +=/sum() float accumulation in hot loops")
def det005_naive_accumulation(
    rule: Check, src: SourceFile
) -> Iterator[Finding]:
    """Float accumulation via bare ``+=`` in a loop, or builtin ``sum()``
    over float terms, inside ``repro.frw`` / ``repro.numerics``: these are
    exactly the reductions whose rounding the paper compensates.  Use
    ``math.fsum`` or ``KahanVector`` from ``repro.numerics.summation``."""
    if not in_package(src.module, _HOT_MODULES) or src.module == _SUMMATION_MODULE:
        return

    loop_stack: list[ast.AST] = []

    def visit(node: ast.AST) -> Iterator[Finding]:
        in_loop = bool(loop_stack)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if in_loop:
                why = _float_evidence(node.value)
                if why is not None:
                    target = dotted_name(node.target) or "<target>"
                    yield rule.finding(
                        src,
                        node,
                        f"'{target} += ...' in a loop accumulates floats "
                        f"({why}) without compensation — use the Kahan "
                        "primitives from repro.numerics.summation",
                    )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
        ):
            why = _float_evidence(node.args[0])
            if why is not None:
                yield rule.finding(
                    src,
                    node,
                    f"builtin sum() over float terms ({why}) is an "
                    "uncompensated left fold — use math.fsum or a KahanVector",
                )
        is_loop = isinstance(node, (ast.For, ast.While))
        if is_loop:
            loop_stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if is_loop:
            loop_stack.pop()

    yield from visit(src.tree)


# ----------------------------------------------------------------------
# DET006 — shared-state mutation inside executor-submitted callables
# ----------------------------------------------------------------------
_SUBMIT_ATTRS = ("submit", "apply_async", "map_async", "starmap", "imap")


def _submitted(node: ast.AST) -> ast.expr | None:
    """The callable a call hands to an executor: the first argument of
    ``.submit()``-style methods, or the ``target=`` of ``Process(...)`` /
    ``ctx.Process(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = getattr(func, "attr", getattr(func, "id", None))
    if name == "Process":
        return next((k.value for k in node.keywords if k.arg == "target"), None)
    if isinstance(func, ast.Attribute) and name in _SUBMIT_ATTRS and node.args:
        return node.args[0]
    return None


def _local_names(fn: ast.FunctionDef) -> set[str]:
    names = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
    names.update(
        a.arg for a in (fn.args.vararg, fn.args.kwarg) if a is not None
    )
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.comprehension)):
            tgt = node.target
            for t in ast.walk(tgt):
                if isinstance(t, ast.Name):
                    names.add(t.id)
    # ``self`` points at an object shared with the dispatching thread even
    # though it arrives as a parameter.
    names.discard("self")
    return names


def _shared_mutations(fn: ast.FunctionDef) -> Iterator[tuple[ast.AST, str]]:
    locals_ = _local_names(fn)
    for node in ast.walk(fn):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id not in locals_:
                yield node, dotted_name(target) or f"{root.id}[...]"


@check("DET006", "shared-state mutation inside executor-submitted callables")
def det006_executor_races(rule: Check, src: SourceFile) -> Iterator[Finding]:
    """Callables handed to ``.submit()`` / ``.apply_async()`` or run as
    a ``Process(target=...)`` that assign to attributes or items of
    closed-over / global objects: with a thread pool that is a data race,
    and either way the mutation order becomes schedule-dependent.  Return
    values and reassemble in the dispatcher instead (UID-ordered), or
    suppress with the reason the object is not actually shared (e.g.
    per-process state in fork workers)."""
    defs: dict[str, ast.FunctionDef] = {
        node.name: node
        for node in ast.walk(src.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reported: set[tuple[int, str]] = set()
    for node in ast.walk(src.tree):
        callee = _submitted(node)
        if callee is None:
            continue
        name = None
        if isinstance(callee, ast.Name):
            name = callee.id
        elif isinstance(callee, ast.Attribute):
            name = callee.attr
        fn = defs.get(name) if name else None
        if fn is None:
            continue
        for site, target in _shared_mutations(fn):
            key = (site.lineno, target)
            if key in reported:
                continue
            reported.add(key)
            yield rule.finding(
                src,
                site,
                f"'{fn.name}' is submitted to an executor (line "
                f"{node.lineno}) but mutates shared state '{target}' — "
                "return values and merge them in the dispatcher in "
                "deterministic order",
            )


# ----------------------------------------------------------------------
# DET007 — FRWConfig fields: validated and documented
# ----------------------------------------------------------------------
CONFIG_MODULE = "repro.config"
_DOC_FILES = ("README.md", "docs/PERFORMANCE.md")


def _tuple_of_strings(node: ast.AST) -> list[tuple[str, ast.AST]] | None:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out = []
    for elt in node.elts:
        if not (
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ):
            return None
        out.append((elt.value, elt))
    return out


def config_declarations(src: SourceFile):
    """FRWConfig's fields and validator + RESULT_FIELDS / ENGINE_FIELDS.

    Returns ``(fields, post_init, result, engine)``: ``fields`` maps field
    name to its ``AnnAssign`` node, ``post_init`` is the ``__post_init__``
    definition (or ``None``), and the last two map entry name to the
    string-constant node inside the tuple.  DET007 and DET009 both read
    the config module through this one parser.
    """
    fields: dict[str, ast.AnnAssign] = {}
    post_init: ast.FunctionDef | None = None
    result: dict[str, ast.AST] = {}
    engine: dict[str, ast.AST] = {}
    for node in src.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "FRWConfig":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    fields[stmt.target.id] = stmt
                elif (
                    isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "__post_init__"
                ):
                    post_init = stmt
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            entries = _tuple_of_strings(node.value)
            if entries is None:
                continue
            if target.id == "RESULT_FIELDS":
                result.update(entries)
            elif target.id == "ENGINE_FIELDS":
                engine.update(entries)
    return fields, post_init, result, engine


def _repo_root(src: SourceFile) -> Path | None:
    p = Path(src.abspath or src.path).resolve()
    for parent in p.parents:
        if (parent / "README.md").exists():
            return parent
    return None


@check("DET007", "FRWConfig fields must be validated and documented")
def det007_config_coverage(rule: Check, src: SourceFile) -> Iterator[Finding]:
    """Cross-file rule, evaluated when ``repro/config.py`` is linted:
    every ``FRWConfig`` dataclass field must be referenced by the
    ``__post_init__`` validator (bool fields are exempt — every bool is a
    valid value) and mentioned by name in ``README.md`` or
    ``docs/PERFORMANCE.md``.  Undocumented knobs rot into footguns;
    unvalidated knobs turn typos into silent misconfiguration."""
    if src.module != CONFIG_MODULE:
        return
    fields, post_init, _result, _engine = config_declarations(src)
    validated = {
        node.attr
        for node in (ast.walk(post_init) if post_init else ())
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }

    root = _repo_root(src)
    doc_text = ""
    if root is not None:
        for rel in _DOC_FILES:
            doc = root / rel
            if doc.exists():
                doc_text += doc.read_text()

    for name, stmt in fields.items():
        is_bool = (
            isinstance(stmt.annotation, ast.Name)
            and stmt.annotation.id == "bool"
        )
        if not is_bool and name not in validated:
            yield rule.finding(
                src,
                stmt,
                f"FRWConfig.{name} is never validated in __post_init__ — "
                "add a range/kind check so typos fail loudly",
            )
        if doc_text and not re.search(
            rf"\b{re.escape(name)}\b", doc_text
        ):
            yield rule.finding(
                src,
                stmt,
                f"FRWConfig.{name} is not mentioned in "
                f"{' or '.join(_DOC_FILES)} — document every knob",
            )


# ----------------------------------------------------------------------
# DET008 — raw SharedMemory use outside the context plane
# ----------------------------------------------------------------------
#: The one module allowed to construct raw shared-memory segments.
_SHM_MODULE = "repro.frw.shm"
_SHM_CTORS = (
    "multiprocessing.shared_memory.SharedMemory",
    "multiprocessing.shared_memory.ShareableList",
    "shared_memory.SharedMemory",
    "shared_memory.ShareableList",
)


@check("DET008", "raw SharedMemory use outside repro.frw.shm")
def det008_raw_shared_memory(rule: Check, src: SourceFile) -> Iterator[Finding]:
    """Raw ``multiprocessing.shared_memory`` segments bypass the context
    plane's ownership protocol: blocks constructed elsewhere have no
    manifest, no content hash, no read-only discipline, and no
    unlink-exactly-once owner — a recipe for leaked ``/dev/shm`` segments
    and silently torn reads.  All shared-memory traffic must go through
    :func:`repro.frw.shm.publish_context` / ``attach_context``."""
    if src.module == _SHM_MODULE:
        return
    imports = ImportResolver(src)
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Call):
            continue
        name = imports.canonical(node.func)
        if name in _SHM_CTORS:
            yield rule.finding(
                src,
                node,
                f"raw {name.rsplit('.', 1)[-1]} constructed outside "
                f"{_SHM_MODULE} — publish/attach through repro.frw.shm so "
                "blocks carry a manifest and are unlinked exactly once",
            )
