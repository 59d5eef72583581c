"""``python -m repro.lint`` — the det-lint command line.

Usage::

    python -m repro.lint [paths ...] [--format {text,json,github}]
                         [--show-suppressed] [--list-rules]

* default paths: ``src tests`` (resolved from the current directory);
* every check runs, per-file and whole-program alike, through
  :func:`repro.lint.project.lint_project`;
* ``--format=github`` emits ``::error``/``::notice`` workflow
  annotations; ``--format=json`` prints the per-rule hit counts and the
  findings;
* the summary line shows per-rule finding counts, so a pass that
  suddenly fires 50 new findings is visible at a glance;
* exit code 0 iff no unsuppressed findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import Finding, LintReport


def _summary(report: LintReport) -> str:
    counts = report.counts()
    per_rule = ", ".join(
        f"{rule}:{c['errors']}"
        + (f"+{c['suppressed']}s" if c["suppressed"] else "")
        for rule, c in counts["rules"].items()
    )
    return (
        f"det-lint: {report.files} files, {len(report.errors)} error(s), "
        f"{len(report.suppressed)} suppressed [{per_rule or 'no findings'}]"
    )


def _format_text(report: LintReport, show_suppressed: bool) -> list[str]:
    out = []
    for f in report.findings:
        if f.suppressed and not show_suppressed:
            continue
        mark = " (suppressed: %s)" % f.justification if f.suppressed else ""
        out.append(f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}{mark}")
    out.append(_summary(report))
    return out


def _format_github(report: LintReport, show_suppressed: bool) -> list[str]:
    def annotation(level: str, f: Finding, extra: str = "") -> str:
        # GitHub annotation properties use a mini-format where commas and
        # newlines must be escaped in the message payload.
        message = (f.message + extra).replace("\n", "%0A").replace(",", "%2C")
        return (
            f"::{level} file={f.path},line={f.line},col={f.col + 1},"
            f"title={f.rule}::{message}"
        )

    out = []
    for f in report.findings:
        if f.suppressed:
            if show_suppressed:
                out.append(
                    annotation(
                        "notice", f, f" [suppressed: {f.justification}]"
                    )
                )
        else:
            out.append(annotation("error", f))
    out.append(_summary(report))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "determinism & cache-soundness static analysis (det-lint v2)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files/directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github = workflow annotations)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in the output",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every check, then exit",
    )
    args = parser.parse_args(argv)

    from .project import CHECKS_BY_ID, lint_project

    if args.list_rules:
        for c in CHECKS_BY_ID.values():
            kind = "[whole-program] " if c.whole_program else ""
            print(f"{c.id}  {kind}{c.title}")
            doc = " ".join(c.doc.split())
            if doc:
                print(f"        {doc}")
        return 0

    root = Path.cwd()
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"det-lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    report = lint_project(args.paths, root=root)

    if args.format == "json":
        payload = {
            "counts": report.counts(),
            "findings": [
                f.as_dict()
                for f in report.findings
                if args.show_suppressed or not f.suppressed
            ],
        }
        print(json.dumps(payload, indent=1))
    else:
        fmt = _format_github if args.format == "github" else _format_text
        for line in fmt(report, args.show_suppressed):
            print(line)
    return 1 if report.errors else 0
