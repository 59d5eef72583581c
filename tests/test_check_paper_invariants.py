"""The paper-invariants checker that CI runs after a quick reproduction."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def checker():
    path = os.path.join(ROOT, "benchmarks", "check_paper_invariants.py")
    spec = importlib.util.spec_from_file_location("check_paper_invariants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def passing(checker) -> dict:
    """Records shaped like a quick run's: every invariant holds."""
    table2 = [
        [mode, 1, variant, ri, f"{ri:.1f}", 6]
        for mode, alg1 in (("fixed", 15), ("varied", 0))
        for variant, ri in (("alg1", alg1), ("frw-r", 17), ("frw-rr", 17))
    ]
    return {
        checker.TABLE2: {
            "headers": ["Mode", "Case", "Variant", "RI_min", "RI_avg", "pairs"],
            "rows": table2,
        },
        checker.TABLE3: {
            "headers": ["Case", "Variant", "Err2", "Err3", "Err_cap", "T_total", "T_post"],
            "rows": [
                [1, "frw-r", "2.50%", "7.71%", "4.34%", "737.2ms", "-"],
                [1, "frw-rr", "0", "4e-17", "1.32%", "677.9ms", "464us"],
            ],
        },
        checker.FIG5: {
            "headers": ["Variant", "T", "walks", "wall(1-core)", "modeled parallel",
                        "speedup", "efficiency"],
            "rows": [
                ["frw-r", 1, 27000, "364.1ms", "364.1ms", "1.00", "1.00"],
                ["frw-r", 16, 27000, "439.3ms", "22.9ms", "15.91", "0.99"],
            ],
        },
    }


def _set(records, name, match, column, value):
    record = records[name]
    col = record["headers"].index(column)
    for row in record["rows"]:
        if all(row[record["headers"].index(k)] == v for k, v in match.items()):
            row[col] = value


FAILURES = {
    "frw_r_fixed_not_bitwise": ("TABLE2", {"Mode": "fixed", "Variant": "frw-r"}, "RI_min", 16),
    "frw_rr_varied_not_bitwise": ("TABLE2", {"Mode": "varied", "Variant": "frw-rr"}, "RI_min", 15),
    "alg1_varied_bitwise": ("TABLE2", {"Mode": "varied", "Variant": "alg1"}, "RI_min", 17),
    "err2_nonzero": ("TABLE3", {"Variant": "frw-rr"}, "Err2", "3e-16"),
    "err3_too_large": ("TABLE3", {"Variant": "frw-rr"}, "Err3", "2e-15"),
    "efficiency_above_one": ("FIG5", {"T": 16}, "efficiency", "1.08"),
}


def test_passing_records(checker, tmp_path, capsys):
    records = passing(checker)
    assert checker.violations(records) == []
    for name, record in records.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
    assert checker.main([str(tmp_path)]) == 0
    assert "paper invariants OK" in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_each_invariant_fails_alone(checker, tmp_path, case):
    name, match, column, value = FAILURES[case]
    records = passing(checker)
    _set(records, getattr(checker, name), match, column, value)
    found = checker.violations(records)
    assert len(found) == 1, found
    for record_name, record in records.items():
        (tmp_path / f"{record_name}.json").write_text(json.dumps(record))
    assert checker.main([str(tmp_path)]) == 1


def test_missing_rows_fail(checker):
    records = passing(checker)
    records[checker.TABLE2]["rows"] = [
        row for row in records[checker.TABLE2]["rows"] if row[2] != "alg1"
    ]
    records[checker.TABLE3]["rows"] = records[checker.TABLE3]["rows"][:1]
    found = checker.violations(records)
    assert any("alg1 varied" in f for f in found)
    assert any("no frw-rr row" in f for f in found)


@pytest.mark.parametrize("cell, value", [("0", 0.0), ("2.50%", 0.025), ("4e-17", 4e-17)])
def test_parse_error(checker, cell, value):
    assert checker.parse_error(cell) == pytest.approx(value)
