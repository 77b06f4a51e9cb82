import json

import pytest

from dyckab import extremal, oracle
from dyckab.oracle import SUITES, CheckReport, format_table, run_suite


def test_suite_names():
    assert set(SUITES) == {
        "statistics",
        "operators",
        "bijection",
        "gamma",
        "minimal",
        "levels",
        "qbell",
    }


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", 5)


def test_statistics_suite_passes():
    reports = run_suite("statistics", 6)
    assert all(r.passed for r in reports)
    assert [r.name for r in reports] == [
        "figure-one-exact",
        "word-round-trip",
        "product-formula",
        "conjugate-ab-pairs",
        "bounce-path-fixed-point",
    ]
    for r in reports:
        assert r.seconds >= 0
        assert r.counterexample is None


def test_all_runs_every_suite():
    reports = run_suite("all", 4)
    assert len(reports) == sum(len(checks) for checks in SUITES.values())
    assert all(r.passed for r in reports)


def test_report_json_round_trip():
    reports = run_suite("qbell", 5)
    for r in reports:
        record = json.loads(r.to_json())
        assert record["name"] == r.name
        assert record["passed"] is True


def test_format_table_marks_failures():
    reports = [
        CheckReport("good", "n<=3", True, None, 0.01),
        CheckReport("bad", "n<=3", False, {"path": {"word": "NENE"}}, 0.02),
    ]
    table = format_table(reports)
    assert "good" in table and "pass" in table
    assert "FAIL" in table
    assert "counterexample" in table and "NENE" in table
    assert "1 failed" in table


def test_deterministic_reports():
    first = [(r.name, r.passed) for r in run_suite("operators", 5)]
    second = [(r.name, r.passed) for r in run_suite("operators", 5)]
    assert first == second


def test_checks_with_nothing_to_examine_are_skipped():
    reports = run_suite("all", 2)
    skipped = [r.name for r in reports if r.skipped]
    assert skipped == ["count-bounds", "minimal-figure-counts", "top-levels"]
    assert all(r.passed for r in reports)
    assert all(json.loads(r.to_json())["skipped"] == r.skipped for r in reports)
    table = format_table(reports)
    assert "count-bounds" in table and "  skip  " in table
    assert "0 failed, 3 skipped" in table
    assert not any(r.skipped for r in run_suite("all", 7))


def test_minimal_sets_check_catches_a_dropped_member(monkeypatch):
    area_minimal = extremal.area_minimal
    monkeypatch.setattr(extremal, "area_minimal", lambda n: area_minimal(n)[1:])
    passed, detail = oracle.check_minimal_sets(6)
    assert not passed
    assert detail == {"n": 1, "side": "area brute force"}
