"""SARIF 2.1.0 writer for det-lint reports.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest: emitting it lets the CI job upload an artifact that GitHub's
security tab — or any SARIF viewer — renders with rule metadata, source
locations, and suppression states, without a bespoke adapter.

Mapping choices:

* every rule *and* whole-program pass (plus the DET000 meta rule) is
  declared in ``tool.driver.rules`` with its title and docstring, so a
  viewer can show "why is this a problem" next to each hit;
* gating findings map to ``level: error``; suppressed findings are still
  emitted (the artifact is the audit trail) but carry an ``inSource``
  SARIF ``suppressions`` entry with the ``det: allow`` justification,
  which compliant viewers render as muted;
* ``partialFingerprints`` carries a line-free fingerprint
  (:func:`fingerprint_findings`, key :data:`FINGERPRINT_KEY`), so result
  identity is stable across runs and line drift for any consumer that
  does incremental triage.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Iterable

from .core import Finding, LintReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "det-lint"
TOOL_VERSION = "2.0.0"

#: SARIF ``partialFingerprints`` key of the :func:`fingerprint_findings`
#: recipe; bump it when the recipe changes.
FINGERPRINT_KEY = "detLint/v1"

_NUM_RE = re.compile(r"\b\d+\b")


def fingerprint_findings(findings: Iterable[Finding]) -> list[str]:
    """Stable, line-free fingerprint per finding, aligned with the input.

    A finding is identified by ``rule | path | enclosing scope | message``
    with volatile numerics (line refs, counts) masked, so edits that shift
    code up or down keep its identity.  Findings that collide on that key
    are disambiguated by an ordinal assigned in ``(line, col)`` order, so
    the n-th identical finding in a scope keeps its fingerprint as long as
    its relative position among the identical ones is unchanged.
    """
    findings = list(findings)
    order = sorted(
        range(len(findings)),
        key=lambda i: (findings[i].path, findings[i].line, findings[i].col),
    )
    seen: dict[str, int] = {}
    out: list[str] = [""] * len(findings)
    for i in order:
        f = findings[i]
        base = "|".join((f.rule, f.path, f.scope, _NUM_RE.sub("#", f.message)))
        ordinal = seen.get(base, 0)
        seen[base] = ordinal + 1
        out[i] = hashlib.sha256(f"{base}|{ordinal}".encode()).hexdigest()[:16]
    return out


def _rule_catalog() -> list[dict]:
    from .core import META_RULE
    from .passes import ALL_PASSES
    from .rules import ALL_RULES

    catalog = [
        {
            "id": META_RULE,
            "name": "LintEngine",
            "shortDescription": {
                "text": "parse errors and malformed/unjustified "
                "det-lint suppressions"
            },
        }
    ]
    for item in list(ALL_RULES) + list(ALL_PASSES):
        entry = {
            "id": item.id,
            "name": item.checker.__name__
            if hasattr(item.checker, "__name__")
            else item.id,
            "shortDescription": {"text": item.title},
        }
        doc = " ".join((item.doc or "").split())
        if doc:
            entry["fullDescription"] = {"text": doc}
        catalog.append(entry)
    # Stable id order; `name` must be present and non-dynamic for
    # viewers, so fall back to the id-derived label when the checker is
    # a lambda (passes wrap their generator in one).
    for entry in catalog:
        if entry["name"] == "<lambda>":
            entry["name"] = entry["id"]
    return sorted(catalog, key=lambda e: e["id"])


def to_sarif(report: LintReport) -> dict:
    """The report as a SARIF 2.1.0 log object (one run)."""
    rules = _rule_catalog()
    rule_index = {r["id"]: i for i, r in enumerate(rules)}
    prints = fingerprint_findings(report.findings)

    results = []
    for f, fp in zip(report.findings, prints):
        result = {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": Path(f.path).as_posix(),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(f.line, 1),
                            "startColumn": f.col + 1,
                        },
                    },
                    "logicalLocations": (
                        [{"fullyQualifiedName": f.scope, "kind": "function"}]
                        if f.scope
                        else []
                    ),
                }
            ],
            "partialFingerprints": {FINGERPRINT_KEY: fp},
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        if f.suppressed:
            result["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": f.justification,
                }
            ]
        results.append(result)

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri": (
                            "https://github.com/paper-repo-growth/"
                            "frw-rr/blob/main/docs/STATIC_ANALYSIS.md"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///./"}
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
                "invocations": [
                    {
                        "executionSuccessful": True,
                        "toolExecutionNotifications": [],
                    }
                ],
            }
        ],
    }


def write_sarif(path: Path | str, report: LintReport) -> None:
    Path(path).write_text(json.dumps(to_sarif(report), indent=1) + "\n")
