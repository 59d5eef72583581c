"""det-lint engine: source model, the check frame, and suppressions.

A *check* (:class:`Check`) is a registered function that yields
:class:`Finding` objects.  A per-file check (DET001–008,
:mod:`repro.lint.rules`) sees one parsed :class:`SourceFile` at a time; a
whole-program check (DET009–012, :mod:`repro.lint.passes`) sees the
:class:`~repro.lint.graph.ProjectGraph` built from every parsed file.
:func:`repro.lint.project.lint_project` runs both over the same trees and
then applies the suppression comments::

    stats = np.random.default_rng(0)  # det: allow(DET001) seeded, sim only

    # det: allow(DET005) fixed sequential order, simulated clock
    elapsed += float(durations.sum())

Suppressions are matched by **rule id + enclosing function scope**: a
suppression written anywhere inside a function covers that rule's findings
in the same function, so routine edits that shift line numbers cannot
silently detach a suppression from the code it vouches for.  At module or
class level (no enclosing function) matching falls back to the exact
target line — a suppression on its own line covers the next code line, one
trailing a statement covers that statement's line — so a file-level
comment never blankets a whole module.  Every suppression must carry a
justification after the closing parenthesis; a bare ``# det: allow(...)``
is reported as DET000, so the repo cannot accumulate unexplained opt-outs.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Engine-level rule id: malformed/unjustified suppressions, parse errors.
META_RULE = "DET000"

_SUPPRESS_RE = re.compile(
    r"#\s*det:\s*allow\(\s*([A-Za-z0-9_,\s]+?)\s*\)\s*[:\-]?\s*(.*?)\s*$"
)
_RULE_ID_RE = re.compile(r"^DET\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""
    #: Enclosing function scope (``Class.method``), "" at module level.
    scope: str = ""

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
            "scope": self.scope,
        }


@dataclass
class Suppression:
    """One ``# det: allow(...)`` comment."""

    line: int
    rules: tuple[str, ...]
    justification: str
    #: Line the suppression applies to (itself, or the next code line when
    #: the comment stands alone).
    target_line: int
    #: Enclosing function scope of the target line ("" at module level).
    scope: str = ""

    def covers(self, finding: Finding) -> bool:
        if finding.rule not in self.rules:
            return False
        if self.scope:
            # Scope-matched: survives line drift within the function.
            return finding.scope == self.scope
        return finding.line == self.target_line


def _relative(path: Path, root: Path | None) -> Path:
    """``path`` relative to ``root`` when it lies under it, else as given."""
    if root is not None:
        try:
            return path.resolve().relative_to(Path(root).resolve())
        except ValueError:
            pass
    return path


def module_name_for(path: Path, root: Path | None = None) -> str:
    """Dotted module name of a file, for rule scoping.

    ``src/repro/frw/parallel.py`` maps to ``repro.frw.parallel`` (anything
    up to and including a ``src`` component is dropped); paths without a
    ``src`` component map to their relative dotted path
    (``tests/test_lint.py`` -> ``tests.test_lint``).
    """
    parts = list(_relative(Path(path), root).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p not in (".", ""))


def in_package(module: str, prefixes: tuple[str, ...]) -> bool:
    """Whether ``module`` is one of ``prefixes`` or lies beneath one."""
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )


@dataclass
class SourceFile:
    """A parsed source file shared by all checks."""

    path: str
    module: str
    text: str
    lines: list[str]
    tree: ast.Module
    #: Absolute filesystem location (cross-file rules resolve the repo
    #: root from here; ``path`` is the display/report path).
    abspath: str = ""
    suppressions: list[Suppression] = field(default_factory=list)
    #: Sorted ``(start, end, qualname)`` spans of every function, built
    #: once per file for scope lookups.
    _scopes: list[tuple[int, int, str]] | None = None

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "SourceFile":
        path = Path(path)
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        src = cls(
            path=str(_relative(path, root)),
            module=module_name_for(path, root),
            text=text,
            lines=text.splitlines(),
            tree=tree,
            abspath=str(path.resolve()),
        )
        src.suppressions = [
            replace(sup, scope=src.scope_at(sup.target_line))
            for sup in _scan_suppressions(src.lines)
        ]
        return src

    def scope_at(self, line: int) -> str:
        """Qualname of the innermost function containing ``line`` ("" if
        the line sits at module or class level)."""
        if self._scopes is None:
            spans: list[tuple[int, int, str]] = []

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qual = f"{prefix}.{child.name}" if prefix else child.name
                        start = min(
                            [child.lineno]
                            + [d.lineno for d in child.decorator_list]
                        )
                        spans.append(
                            (start, child.end_lineno or child.lineno, qual)
                        )
                        visit(child, qual)
                    elif isinstance(child, ast.ClassDef):
                        qual = (
                            f"{prefix}.{child.name}" if prefix else child.name
                        )
                        visit(child, qual)
                    else:
                        visit(child, prefix)

            visit(self.tree, "")
            self._scopes = sorted(spans)
        best = ""
        best_span = None
        for start, end, qual in self._scopes:
            if start <= line <= end:
                span = end - start
                if best_span is None or span <= best_span:
                    best, best_span = qual, span
        return best


def _scan_suppressions(lines: list[str]) -> Iterator[Suppression]:
    for i, raw in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(raw)
        if m is None:
            continue
        rules = tuple(
            r.strip().upper() for r in m.group(1).split(",") if r.strip()
        )
        justification = m.group(2).strip()
        before = raw[: m.start()].strip()
        target = i
        if not before:  # standalone comment: covers the next code line
            for j in range(i, len(lines)):
                nxt = lines[j].strip()
                if nxt and not nxt.startswith("#"):
                    target = j + 1
                    break
        yield Suppression(
            line=i, rules=rules, justification=justification, target_line=target
        )


@dataclass(frozen=True)
class Check:
    """One registered det-lint check.

    ``fn(check, target)`` yields findings.  A per-file check's target is
    one :class:`SourceFile`; a whole-program check's target is the
    :class:`~repro.lint.graph.ProjectGraph` built from every parsed file.
    """

    id: str
    title: str
    fn: Callable[..., Iterable[Finding]]
    whole_program: bool = False
    doc: str = ""

    def run(self, target) -> list[Finding]:
        return list(self.fn(self, target))

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: The registry: every check, per-file and whole-program, in id order
#: (complete once :mod:`repro.lint.project` has imported the check
#: modules).
CHECKS_BY_ID: dict[str, Check] = {}


def check(check_id: str, title: str, whole_program: bool = False):
    """Decorator registering a check function in :data:`CHECKS_BY_ID`."""

    def register(fn) -> Check:
        CHECKS_BY_ID[check_id] = Check(
            check_id, title, fn, whole_program, fn.__doc__ or ""
        )
        return CHECKS_BY_ID[check_id]

    return register


@dataclass
class LintReport:
    """All findings over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0

    @property
    def errors(self) -> list[Finding]:
        """Findings that count against the exit code."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def counts(self) -> dict:
        """Per-rule hit counts (the lint-debt artifact payload)."""
        out: dict[str, dict[str, int]] = {}
        for f in self.findings:
            entry = out.setdefault(f.rule, {"errors": 0, "suppressed": 0})
            if f.suppressed:
                entry["suppressed"] += 1
            else:
                entry["errors"] += 1
        return {
            "files": self.files,
            "errors": len(self.errors),
            "suppressed_total": len(self.suppressed),
            "rules": dict(sorted(out.items())),
        }


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, skipping caches."""
    skip_dirs = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}
    for entry in paths:
        entry = Path(entry)
        if entry.is_file():
            if entry.suffix == ".py":
                yield entry
            continue
        for candidate in sorted(entry.rglob("*.py")):
            parts = set(candidate.parts)
            if parts & skip_dirs or any(
                p.endswith(".egg-info") for p in candidate.parts
            ):
                continue
            yield candidate


def parse_error_finding(
    path: Path, root: Path | None, exc: SyntaxError
) -> Finding:
    """The DET000 finding for a file that does not parse."""
    return Finding(
        rule=META_RULE,
        path=str(_relative(path, root)),
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def apply_suppressions(
    src: SourceFile, findings: Iterable[Finding]
) -> list[Finding]:
    """Attach scopes and resolve ``det: allow`` comments over findings.

    :data:`META_RULE` findings cannot be suppressed.
    """
    resolved: list[Finding] = []
    for f in findings:
        if not f.scope:
            f = replace(f, scope=src.scope_at(f.line))
        if f.rule == META_RULE:
            resolved.append(f)
            continue
        for sup in src.suppressions:
            if sup.covers(f):
                resolved.append(
                    replace(f, suppressed=True, justification=sup.justification)
                )
                break
        else:
            resolved.append(f)
    return resolved


def suppression_meta_findings(
    src: SourceFile, active_ids: Iterable[str]
) -> list[Finding]:
    """DET000 findings for malformed suppressions in one file."""
    active = set(active_ids)
    out: list[Finding] = []
    for sup in src.suppressions:
        unknown = [r for r in sup.rules if not _RULE_ID_RE.match(r)]
        if unknown:
            out.append(
                Finding(
                    rule=META_RULE,
                    path=src.path,
                    line=sup.line,
                    col=0,
                    message=(
                        f"suppression names unknown rule id(s) "
                        f"{', '.join(unknown)}"
                    ),
                )
            )
        if not sup.justification and set(sup.rules) & active:
            out.append(
                Finding(
                    rule=META_RULE,
                    path=src.path,
                    line=sup.line,
                    col=0,
                    message=(
                        "suppression has no justification — write "
                        "'# det: allow("
                        + ", ".join(sup.rules)
                        + ") <why this is safe>'"
                    ),
                )
            )
    return out
