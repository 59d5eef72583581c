"""The det-lint runner: every check over one set of parsed trees.

:func:`lint_project` is the only runner; the CLI, ``make lint``, CI and
the tests all go through it.  It parses every file exactly once, runs the
per-file checks (:mod:`repro.lint.rules`) over each tree, builds the
:class:`~repro.lint.graph.ProjectGraph` from the same trees, runs the
whole-program checks (:mod:`repro.lint.passes`) over it, and resolves
``det: allow`` suppressions uniformly across both kinds of findings — a
pass finding lands in the file it points at and is suppressible there
exactly like a per-file finding.

Partial runs are first-class: linting a subset of the tree (say
``src/repro/service`` alone) builds a smaller graph, and every pass is
written to degrade to *fewer* findings — never spurious ones — when its
anchor modules are absent.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

# Importing the check modules registers every check in CHECKS_BY_ID;
# passes imports rules, so DET001-007 register before DET009-012.
from . import passes, rules
from .core import (
    CHECKS_BY_ID,
    Check,
    LintReport,
    SourceFile,
    apply_suppressions,
    iter_python_files,
    parse_error_finding,
    suppression_meta_findings,
)
from .graph import ProjectGraph


def lint_project(
    paths: Iterable[Path | str],
    checks: Iterable[Check] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Run all (or the given) checks over files and directories.

    The report holds *every* finding, with suppressed ones marked.
    Engine-level problems (parse errors, unjustified or unknown-id
    suppressions) are DET000 findings, which cannot be suppressed.
    """
    checks = list(CHECKS_BY_ID.values() if checks is None else checks)
    report = LintReport()

    # Parse every file once; parse errors surface as DET000 findings.
    sources: list[SourceFile] = []
    for path in iter_python_files(paths):
        report.files += 1
        try:
            sources.append(SourceFile.parse(path, root))
        except SyntaxError as exc:
            report.findings.append(parse_error_finding(path, root, exc))

    per_file = [c for c in checks if not c.whole_program]
    whole_program = [c for c in checks if c.whole_program]
    raw: dict[str, list] = {src.path: [] for src in sources}
    for src in sources:
        for c in per_file:
            raw[src.path].extend(c.run(src))
    if whole_program:
        graph = ProjectGraph(sources)
        for c in whole_program:
            for f in c.run(graph):
                raw[f.path].append(f)

    # Suppression resolution + engine meta findings, per file.
    active_ids = [c.id for c in checks]
    for src in sources:
        resolved = apply_suppressions(src, raw[src.path])
        resolved.extend(suppression_meta_findings(src, active_ids))
        resolved.sort(key=lambda f: (f.line, f.col, f.rule))
        report.findings.extend(resolved)

    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
