"""det-lint v2 project runner: per-file rules + whole-program passes.

:func:`lint_project` is the full analysis the CLI, ``make lint``, and CI
run.  It parses every file exactly once, runs the per-file rules
(:mod:`repro.lint.rules`) over each tree, builds the
:class:`~repro.lint.graph.ProjectGraph` from the same trees, runs the
whole-program passes (:mod:`repro.lint.passes`) over it, and resolves
``det: allow`` suppressions uniformly across both kinds of findings —
a pass finding lands in the file it points at and is suppressible there
exactly like a rule finding.

Partial runs are first-class: linting a subset of the tree (CI lints
``src/repro/service`` on its own) builds a smaller graph, and every pass
is written to degrade to *fewer* findings — never spurious ones — when
its anchor modules are absent.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .core import (
    LintReport,
    SourceFile,
    apply_suppressions,
    iter_python_files,
    parse_error_finding,
    suppression_meta_findings,
)
from .graph import build_graph


def lint_project(
    paths: Iterable[Path | str],
    rules=None,
    passes=None,
    root: Path | None = None,
) -> LintReport:
    """Run det-lint v2 (rules + whole-program passes) over paths."""
    from .passes import ALL_PASSES
    from .rules import ALL_RULES

    rules = ALL_RULES if rules is None else rules
    passes = ALL_PASSES if passes is None else passes
    active_ids = [r.id for r in rules] + [p.id for p in passes]

    report = LintReport()

    # Parse every file once; parse errors surface as DET000 findings.
    sources: list[SourceFile] = []
    for path in iter_python_files(paths):
        report.files += 1
        try:
            src = SourceFile.parse(path, root)
        except SyntaxError as exc:
            display = path
            if root is not None:
                try:
                    display = Path(path).resolve().relative_to(
                        Path(root).resolve()
                    )
                except ValueError:
                    pass
            report.findings.append(parse_error_finding(display, exc))
            continue
        sources.append(src)

    raw: dict[str, list] = {src.path: [] for src in sources}

    # Per-file rules.
    for src in sources:
        for rule in rules:
            raw[src.path].extend(rule.check(src))

    # Whole-program passes over the shared graph.
    if passes:
        graph = build_graph(sources)
        for p in passes:
            for f in p.check(graph):
                if f.path in raw:
                    raw[f.path].append(f)
                else:  # pass finding outside the parsed set (defensive)
                    report.findings.append(f)

    # Suppression resolution + engine meta findings, per file.
    for src in sources:
        resolved = apply_suppressions(src, raw[src.path])
        resolved.extend(suppression_meta_findings(src, active_ids))
        resolved.sort(key=lambda f: (f.line, f.col, f.rule))
        report.findings.extend(resolved)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
