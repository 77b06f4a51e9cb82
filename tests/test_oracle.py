import json

import pytest

from _checks import DECLARED, assert_check_holds
from dyckab import bijection, extremal, oracle, paths, qbell
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


def test_checks_with_nothing_to_examine_are_skipped(monkeypatch):
    reports = run_suite("all", 2)
    skipped = [r.name for r in reports if r.skipped]
    assert skipped == ["count-bounds", "minimal-figure-counts", "top-levels"]
    assert all(r.passed for r in reports)
    assert all(json.loads(r.to_json())["skipped"] == r.skipped for r in reports)
    table = format_table(reports)
    assert "count-bounds" in table and "  skip  " in table
    assert "0 failed, 3 skipped" in table
    ranges = {r.name: r.n_range for r in reports}
    assert ranges["word-round-trip"] == "0<=n<=2 (cap 2)"
    assert ranges["count-bounds"] == "n>=5 (cap 2)"
    assert ranges["figure-one-exact"] == "fixed (cap 2)"
    assert not any(r.skipped for r in run_suite("all", 7))
    # at cap 0 only the fixed checks and the ranges that start at n = 0 run;
    # a skipped check is never called
    for suite, checks in SUITES.items():
        monkeypatch.setitem(SUITES, suite, [
            (name, sizes, fn if sizes is None or sizes.start == 0 else None)
            for name, sizes, fn in checks
        ])
    reports = run_suite("all", 0)
    assert sum(r.skipped for r in reports) == 24
    assert sum(not r.skipped for r in reports) == 9
    assert all(r.passed for r in reports)
    assert "0 failed, 24 skipped" in format_table(reports)
    assert reports[1].n_range == "n=0 (cap 0)"  # word-round-trip


def test_declared_ranges():
    # (first n, last n) of each ranged check; a narrowed range fails here
    declared = {
        name: None if sizes is None else (sizes.start, sizes.stop - 1)
        for checks in SUITES.values()
        for name, sizes, _ in checks
    }
    assert declared == {
        "figure-one-exact": None,
        "word-round-trip": (0, 9),
        "product-formula": (1, 10),
        "conjugate-ab-pairs": (1, 12),
        "bounce-path-fixed-point": (1, 9),
        "operator-deltas": (1, 8),
        "inverse-pairs": (1, 8),
        "bottom-absorption": None,
        "shape-lemmas": (1, 8),
        "existence-scans": (1, 8),
        "certificate-ab-pairs": (1, 10),
        "flip-round-trip": (1, 10),
        "classify-consistency": (1, 9),
        "count-bounds": (5, 12),
        "flip-closure-symmetry": (1, 10),
        "extended-pairs-build": (1, 9),
        "commutation": (1, 9),
        "extended-round-trip": (1, 9),
        "minimal-sets": (1, 9),
        "flip-minimal-bijection": (1, 9),
        "minimal-figure-counts": (7, 7),
        "nonemptiness-symmetry": (1, 10),
        "construct-exact": (1, 9),
        "interpolation": (1, 9),
        "top-levels": (3, 9),
        "ab-interval": (1, 10),
        "bounce-interval-conjecture": (1, 9),
        "distinct-ab-reference": None,
        "qbell-support": (0, 30),
        "bell-evaluation": (0, 20),
        "q-binomial-lattice": None,
        "distinct-ab-brute": (0, 12),
        "f-symmetry": (0, 11),
    }


@pytest.mark.parametrize("name", list(DECLARED))
def test_check_holds_on_declared_range(name):
    assert_check_holds(name)


def test_minimal_sets_check_catches_a_dropped_member(monkeypatch):
    area_minimal = extremal.area_minimal
    monkeypatch.setattr(extremal, "area_minimal", lambda n: area_minimal(n)[1:])
    detail = oracle.check_minimal_sets(range(1, 7))
    assert detail == {"n": 1, "side": "area brute force"}


def test_qbell_support_check_catches_a_dropped_coefficient(monkeypatch):
    q_bell = qbell.q_bell
    monkeypatch.setattr(qbell, "q_bell", lambda n: q_bell(n)[:-1])
    assert oracle.check_qbell_support(range(21)) is not None
    # with the width recursion agreeing, the realized totals still object
    width = qbell.ab_interval_width
    monkeypatch.setattr(qbell, "ab_interval_width", lambda n: width(n) - 1)
    detail = oracle.check_qbell_support(range(21))
    assert detail == {"n": 0, "distinct_totals": 1, "nonzero_coeffs": 0}


def test_distinct_ab_brute_check_catches_a_dropped_level_key(monkeypatch):
    ab_level_map = extremal.ab_level_map

    def dropped(n):
        levels = dict(ab_level_map(n))
        if n == 4:
            levels[5] = levels[5][1:]  # (1, 4) goes
        return levels

    monkeypatch.setattr(extremal, "ab_level_map", dropped)
    detail = oracle.check_distinct_ab_brute(range(13))
    assert detail == {"n": 4, "missing": [(1, 4)], "extra": []}


def test_flip_round_trip_check_catches_swapped_certificates(monkeypatch):
    flip_sets = bijection.flip_sets

    def swapped(n):
        area_side, bounce_side = flip_sets(n)
        first, second = list(bounce_side)[:2]
        bounce_side[first], bounce_side[second] = bounce_side[second], bounce_side[first]
        return area_side, bounce_side

    monkeypatch.setattr(bijection, "flip_sets", swapped)
    assert oracle.check_flip_round_trip(range(2, 11))["n"] == 2


def test_construct_check_catches_a_path_of_the_wrong_semilength(monkeypatch):
    # the empty path has the stats (0, 0) asked of n = 1, but n = 0
    construct_path = extremal.construct_path
    empty = paths.DyckPath.from_word("")
    monkeypatch.setattr(
        extremal,
        "construct_path",
        lambda n, a, b: empty if n == 1 else construct_path(n, a, b),
    )
    detail = oracle.check_construct(range(1, 10))
    assert detail == {"n": 1, "a": 0, "b": 0, "path": empty.to_record()}


def test_extended_round_trip_check_catches_unflipped_stats(monkeypatch):
    # the identity, on the left side paired with itself, returns every
    # certificate and inverts itself, but keeps the statistics
    extended_flip_sets = bijection.extended_flip_sets
    monkeypatch.setattr(
        bijection, "extended_flip_sets", lambda n: (extended_flip_sets(n)[0],) * 2
    )
    monkeypatch.setattr(bijection, "gamma", lambda p: p)
    monkeypatch.setattr(bijection, "gamma_inverse", lambda p: p)
    detail = oracle.check_extended_round_trip(range(1, 10))
    assert (detail["n"], detail["reason"]) == (2, "stats not flipped")
