"""Tests for the det-lint SARIF writer and CLI: structural SARIF 2.1.0
validity, fingerprints that survive re-runs and line drift, and the CLI's
gating, summary and artifact outputs.
"""

import json
from pathlib import Path

import pytest

from repro.lint.cli import main as lint_main
from repro.lint.core import META_RULE
from repro.lint.project import lint_project
from repro.lint.sarif import (
    FINGERPRINT_KEY,
    SARIF_VERSION,
    fingerprint_findings,
    to_sarif,
    write_sarif,
)

DIRTY = (
    "import time\n"
    "def stamp():\n"
    "    return time.time()\n"
)
DRIFTED = (
    "import time\n"
    "PAD_A = 1\n"
    "PAD_B = 2\n"
    "\n"
    "def stamp():\n"
    "    label = 'ts'\n"
    "    return (label, time.time())\n"
)


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def lint_fixture(tmp_path: Path, source: str = DIRTY):
    write(tmp_path, "src/repro/x.py", source)
    return lint_project([tmp_path / "src"], root=tmp_path)


# ----------------------------------------------------------------------
# SARIF writer
# ----------------------------------------------------------------------
def test_sarif_is_structurally_valid(tmp_path):
    report = lint_fixture(tmp_path)
    log = to_sarif(report)
    # Required top-level properties per the 2.1.0 schema.
    assert log["version"] == SARIF_VERSION == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "det-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert META_RULE in rule_ids
    assert {f"DET00{i}" for i in range(1, 9)} <= set(rule_ids)
    assert {f"DET{i:03d}" for i in range(9, 13)} <= set(rule_ids)
    (result,) = run["results"]
    assert result["ruleId"] == "DET002"
    assert result["level"] == "error"
    assert result["message"]["text"]
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("src/repro/x.py")
    assert loc["region"]["startLine"] == 3
    assert loc["region"]["startColumn"] >= 1
    # ruleIndex must agree with the rules array.
    assert driver["rules"][result["ruleIndex"]]["id"] == "DET002"
    assert FINGERPRINT_KEY in result["partialFingerprints"]


def test_sarif_file_round_trips(tmp_path):
    report = lint_fixture(tmp_path)
    out = tmp_path / "report.sarif"
    write_sarif(out, report)
    log = json.loads(out.read_text())
    assert log["runs"][0]["results"]


def test_sarif_marks_suppressed_findings(tmp_path):
    allow = "# det: " + "al" + "low"
    source = (
        "import time\n"
        "def stamp():\n"
        f"    return time.time()  {allow}(DET002) wall stamp wanted\n"
    )
    report = lint_fixture(tmp_path, source)
    (result,) = to_sarif(report)["runs"][0]["results"]
    (sup,) = result["suppressions"]
    assert sup["kind"] == "inSource"
    assert sup["justification"] == "wall stamp wanted"


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprints_stable_across_runs(tmp_path):
    a = lint_fixture(tmp_path)
    b = lint_fixture(tmp_path)
    assert fingerprint_findings(a.findings) == fingerprint_findings(
        b.findings
    )


def test_fingerprints_survive_line_drift(tmp_path):
    before = lint_fixture(tmp_path)
    (fp_before,) = fingerprint_findings(before.findings)
    after = lint_fixture(tmp_path, DRIFTED)
    (fp_after,) = fingerprint_findings(after.findings)
    assert before.findings[0].line != after.findings[0].line
    assert fp_before == fp_after


def test_identical_findings_get_distinct_ordinals(tmp_path):
    source = (
        "import time\n"
        "def stamp():\n"
        "    a = time.time()\n"
        "    b = time.time()\n"
        "    return a, b\n"
    )
    report = lint_fixture(tmp_path, source)
    prints = fingerprint_findings(report.findings)
    assert len(prints) == 2
    assert len(set(prints)) == 2


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_cli_gates_every_unsuppressed_finding(tmp_path, capsys, monkeypatch):
    """Nothing demotes a finding, and the baseline flags are gone."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "src/repro/x.py", DIRTY)
    assert lint_main(["src"]) == 1
    assert "1 error(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        lint_main(["--no-baseline", "src"])


def test_cli_sarif_and_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "src/repro/x.py", DIRTY)
    sarif_path = tmp_path / "out.sarif"
    assert lint_main([f"--sarif={sarif_path}", "src"]) == 1
    out = capsys.readouterr().out
    log = json.loads(sarif_path.read_text())
    assert log["runs"][0]["results"]
    # Summary surfaces per-rule counts and analyzer runtime.
    summary = [ln for ln in out.splitlines() if ln.startswith("det-lint:")]
    assert summary and "DET002:1" in summary[0]
    assert "s (slowest:" in summary[0]


def test_frw_rr_lint_forwards_option_flags(tmp_path, capsys, monkeypatch):
    # argparse.REMAINDER chokes on a leading flag ("frw-rr lint --sarif ..."),
    # so the main CLI forwards the tokens after "lint" itself.
    from repro.cli import main as repro_main

    monkeypatch.chdir(tmp_path)
    write(tmp_path, "src/repro/x.py", DIRTY)
    sarif_path = tmp_path / "out.sarif"
    assert repro_main(["lint", f"--sarif={sarif_path}", "src"]) == 1
    assert "DET002:1" in capsys.readouterr().out
    assert json.loads(sarif_path.read_text())["runs"][0]["results"]


def test_cli_counts_json_includes_timings(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "src/repro/x.py", DIRTY)
    counts_path = tmp_path / "counts.json"
    lint_main([f"--counts-json={counts_path}", "src"])
    capsys.readouterr()
    counts = json.loads(counts_path.read_text())
    assert counts["rules"]["DET002"]["errors"] == 1
    timed = set(counts["timings_ms"])
    assert {"parse", "graph"} <= timed
    assert {f"DET{i:03d}" for i in range(9, 13)} <= timed
