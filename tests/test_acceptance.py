"""Acceptance criteria, one test per criterion.

Every comparison is exact integer equality; the stated wall-clock budgets
are asserted where the criterion carries one.  Each test prints a single
PASS line (visible with pytest -s) once its criterion holds.  The oracle
checks a criterion names run through `_checks.assert_check_holds`, at
their declared ranges in `oracle.SUITES`, once per pytest run: a check
that another test already ran is not timed again.
"""

import time

from dyckab.paths import DyckPath, compositions, count_paths_with_bounce_path
from dyckab import bijection, extremal

from _checks import assert_check_holds

FIGURE_ONE = "NNNEENENEENNEE"


def _report(num, text):
    print(f"PASS: criterion {num} - {text}")


def test_criterion_1_figure_reproduction():
    DyckPath.from_word(FIGURE_ONE)  # warm imports and caches
    start = time.perf_counter()
    p = DyckPath.from_word(FIGURE_ONE)
    record = (
        p.area_sequence(),
        p.area(),
        p.bounce_composition(),
        p.bounce_points(),
        p.bounce(),
        p.floating_cell_count(),
    )
    elapsed = time.perf_counter() - start
    assert record == ((0, 1, 2, 1, 1, 0, 1), 6, (3, 2, 2), (0, 3, 5, 7), 6, 1)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _report(1, f"figure statistics exact in {elapsed * 1e6:.0f} us")


def test_criterion_2_joint_symmetry_through_eleven():
    start = time.perf_counter()
    # enumerated (area, bounce) table for 0 <= n <= 11: symmetric, Catalan
    # total, equal to the bounce-formula table
    assert_check_holds("f-symmetry")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"joint distribution symmetric for n<=11 in {elapsed:.2f} s")


def test_criterion_3_product_formula_through_ten():
    start = time.perf_counter()
    assert count_paths_with_bounce_path(7, (3, 2, 2)) == 18
    for n in range(1, 11):
        assert len(list(compositions(n))) == 2 ** (n - 1)
    # enumerated bounce-path counts equal the formula on every composition
    assert_check_holds("product-formula")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"product formula exact over all compositions in {elapsed:.2f} s")


def test_criterion_4_flip_bijection():
    start = time.perf_counter()
    # (i) the certified pairs trade the two statistics and (ii) both round
    # trips are identities, on equal-sized sides
    assert_check_holds("flip-round-trip")
    # (iii) classification returns the generating certificates; inline,
    # since the oracle's classify-consistency stops at n = 9
    for n in range(1, 11):
        area_side, bounce_side = bijection.flip_sets(n)
        for p, cert in area_side.items():
            q = bijection.phi(p)
            assert bijection.classify(p).area_certificate == cert
            assert bijection.classify(q).bounce_certificate == bounce_side[q]
    # (iv) exponential size bounds 2 Fib(n+1) <= |union| <= 2^n, 5 <= n <= 12
    assert_check_holds("count-bounds")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"flip bijection certified for n<=10, bounds to n=12, {elapsed:.2f} s")


def test_criterion_5_minimal_bijection():
    # both minimal sets equal the brute-force minima of their levels, the
    # flip maps the bounce-minimal set onto the area-minimal one, and the
    # paper's counts at n = 7 hold
    assert_check_holds("minimal-sets")
    assert_check_holds("flip-minimal-bijection")
    assert_check_holds("minimal-figure-counts")
    _report(5, "flip maps bounce-minimal onto area-minimal for n<=9")


def test_criterion_6_nonemptiness_and_construction():
    assert_check_holds("nonemptiness-symmetry")
    assert_check_holds("construct-exact")
    _report(6, "level symmetry n<=10; construction exact on n<=9")


def test_criterion_7_distinct_totals():
    start = time.perf_counter()
    # the published counts; q_bell's coefficients and the totals of the
    # qt-Catalan table for n <= 20; enumerated totals for n <= 12
    assert_check_holds("distinct-ab-reference")
    assert_check_holds("qbell-support")
    assert_check_holds("distinct-ab-brute")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"distinct-total counts match on every route in {elapsed:.2f} s")


def test_criterion_8_operator_algebra():
    start = time.perf_counter()
    for name in ("bottom-absorption", "operator-deltas", "inverse-pairs", "shape-lemmas"):
        assert_check_holds(name)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"operator algebra exhaustive for n<=8 in {elapsed:.2f} s")


def test_criterion_9_top_two_levels():
    # one path per split of C(n, 2) on the top level; every realized split
    # one level below is unique
    assert_check_holds("top-levels")
    lv4 = extremal.level_sets(4)
    assert sum(len(ps) for k, ps in lv4.items() if sum(k) == 6) == 7
    assert sum(len(ps) for k, ps in lv4.items() if sum(k) == 5) == 4
    _report(9, "top level one path per split; next level all singletons")


def test_criterion_10_total_interval_and_ladder():
    # the totals fill [min_ab, C(n, 2)], and the ladder realizes each
    assert_check_holds("ab-interval")
    _report(10, "area+bounce totals fill the interval; ladder realizes each")
