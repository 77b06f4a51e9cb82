"""Acceptance criteria, one test per criterion.

Every comparison is exact integer equality; the stated wall-clock budgets
are asserted where the criterion carries one.  Each test prints a single
PASS line (visible with pytest -s) once its criterion holds.
"""

import math
import time

from dyckab.paths import (
    DyckPath,
    compositions,
    count_paths_with_bounce_path,
    iter_area_bounce,
)
from dyckab import bijection, extremal, oracle, qbell

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
    assert oracle.check_f_symmetry(range(12)) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"joint distribution symmetric for n<=11 in {elapsed:.2f} s")


def test_criterion_3_product_formula_through_ten():
    start = time.perf_counter()
    assert count_paths_with_bounce_path(7, (3, 2, 2)) == 18
    for n in range(1, 11):
        assert len(list(compositions(n))) == 2 ** (n - 1)
    # enumerated bounce-path counts equal the formula on every composition
    assert oracle.check_product_formula(range(1, 11)) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(3, f"product formula exact over all compositions in {elapsed:.2f} s")


def test_criterion_4_flip_bijection():
    start = time.perf_counter()
    # (i) the certified pairs trade the two statistics and (ii) both round
    # trips are identities, on equal-sized sides
    assert oracle.check_flip_round_trip(range(1, 11)) is None
    # (iii) classification returns the generating certificates; inline,
    # since the oracle's classify-consistency stops at n = 9
    for n in range(1, 11):
        area_side, bounce_side = bijection.flip_sets(n)
        for p, cert in area_side.items():
            q = bijection.phi(p)
            assert bijection.classify(p).area_certificate == cert
            assert bijection.classify(q).bounce_certificate == bounce_side[q]
    # (iv) exponential size bounds 2 Fib(n+1) <= |union| <= 2^n, 5 <= n <= 12
    assert oracle.check_count_bounds(range(5, 13)) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"flip bijection certified for n<=10, bounds to n=12, {elapsed:.2f} s")


def test_criterion_5_minimal_bijection():
    for n in range(1, 10):
        lv = extremal.level_sets(n)
        best_bounce, best_area = {}, {}
        for (a, b) in lv:
            s = a + b
            best_bounce[s] = min(b, best_bounce.get(s, b))
            best_area[s] = min(a, best_area.get(s, a))
        brute_bmin = {
            p for (a, b), ps in lv.items() if b == best_bounce[a + b] for p in ps
        }
        brute_amin = {
            p for (a, b), ps in lv.items() if a == best_area[a + b] for p in ps
        }
        assert set(extremal.bounce_minimal(n)) == brute_bmin
        assert set(extremal.area_minimal(n)) == brute_amin
        image = set()
        for p in brute_bmin:
            q = bijection.phi(p)
            assert (q.area(), q.bounce()) == (p.bounce(), p.area())
            image.add(q)
        assert image == brute_amin
    seven = extremal.bounce_minimal(7)
    assert len({p.ab() for p in seven}) == 11
    assert len(extremal.level_sets(7)[(2, 13)]) == 2
    assert len(extremal.level_sets(7)[(13, 2)]) == 2
    _report(5, "flip maps bounce-minimal onto area-minimal for n<=9")


def test_criterion_6_nonemptiness_and_construction():
    for n in range(1, 11):
        realized = set(extremal.level_sets(n))
        assert all((b, a) in realized for (a, b) in realized), f"n={n}"
    for n in range(1, 10):
        realized = set(extremal.level_sets(n))
        top = math.comb(n, 2)
        for a in range(top + 1):
            for b in range(top + 1 - a):
                built = extremal.construct_path(n, a, b)
                assert ((a, b) in realized) == (built is not None)
                if built is not None:
                    assert built.n == n
                    assert (built.area(), built.bounce()) == (a, b)
    _report(6, "level symmetry n<=10; construction exact on n<=9")


def test_criterion_7_distinct_totals():
    start = time.perf_counter()
    got = tuple(qbell.distinct_ab_count(n) for n in range(20))
    assert got == qbell.DISTINCT_AB_FIRST_TWENTY
    for n in range(21):
        coeffs = qbell.q_bell(n)
        assert sum(1 for c in coeffs if c) == qbell.distinct_ab_count(n)
        assert all(c > 0 for c in coeffs)  # support 0..width(n), gap free
    for n in range(13):
        totals = {a + b for a, b in iter_area_bounce(n)}
        assert len(totals) == qbell.distinct_ab_count(n)
        if n >= 1:
            assert max(totals) == math.comb(n, 2)
            assert min(totals) == math.comb(n, 2) - qbell.ab_interval_width(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"distinct-total counts match on every route in {elapsed:.2f} s")


def test_criterion_8_operator_algebra():
    start = time.perf_counter()
    assert oracle.check_bottom_absorption(None) is None
    for check in (
        oracle.check_operator_deltas,
        oracle.check_inverse_pairs,
        oracle.check_shape_lemmas,
    ):
        assert check(range(1, 9)) is None, check.__name__
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, f"operator algebra exhaustive for n<=8 in {elapsed:.2f} s")


def test_criterion_9_top_two_levels():
    for n in range(3, 10):
        s = math.comb(n, 2)
        lv = extremal.level_sets(n)
        top_keys = [k for k in lv if sum(k) == s]
        assert sorted(top_keys) == [(s - i, i) for i in range(s, -1, -1)]
        assert all(len(lv[k]) == 1 for k in top_keys)
        second_keys = [k for k in lv if sum(k) == s - 1]
        assert all(len(lv[k]) == 1 for k in second_keys)
    lv4 = extremal.level_sets(4)
    assert sum(len(ps) for k, ps in lv4.items() if sum(k) == 6) == 7
    assert sum(len(ps) for k, ps in lv4.items() if sum(k) == 5) == 4
    _report(9, "top level one path per split; next level all singletons")


def test_criterion_10_total_interval_and_ladder():
    for n in range(1, 11):
        lo = math.comb(n, 2) - qbell.ab_interval_width(n)
        hi = math.comb(n, 2)
        observed = sorted({a + b for a, b in iter_area_bounce(n)})
        assert observed == list(range(lo, hi + 1))
        for x in range(lo, hi + 1):
            assert extremal.ab_ladder(n, x).ab() == x
    _report(10, "area+bounce totals fill the interval; ladder realizes each")
