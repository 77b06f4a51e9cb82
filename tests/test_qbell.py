import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _checks import declared_range_test
from dyckab.paths import catalan
from dyckab.qbell import (
    DISTINCT_AB_FIRST_TWENTY,
    BivariateTable,
    _width_table,
    ab_interval_width,
    bell_number,
    distinct_ab_count,
    minimizing_composition,
    poly_eval,
    poly_mul,
    poly_to_string,
    q_bell,
    q_binomial,
    qt_catalan,
)


def schoolbook_mul(a, b):
    """Reference product: every pair of coefficients, one at a time."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# -- the packed product ---------------------------------------------------------------

signed_coeffs = st.lists(
    st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**200), max_value=2**200),
    ),
    max_size=12,
)


@given(signed_coeffs, signed_coeffs)
def test_poly_mul_matches_schoolbook(a, b):
    assert poly_mul(a, b) == schoolbook_mul(a, b)
    assert poly_mul(tuple(a), tuple(b)) == schoolbook_mul(b, a)


def test_poly_mul_edges():
    assert poly_mul((), (1, 2)) == ()
    assert poly_mul((0, 0), (5,)) == ()
    assert poly_mul((1, 0, 0), (1, 0)) == (1,)
    assert poly_mul((-1, -1), (-1, -1)) == (1, 2, 1)
    assert poly_mul((-128,), (-128,)) == (16384,)
    assert poly_mul((1, -1), (1, 1)) == (1, 0, -1)


# -- gaussian polynomials ---------------------------------------------------------


def test_q_binomial_small():
    assert q_binomial(2, 1) == (1, 1)
    assert q_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert q_binomial(5, 0) == (1,)
    assert q_binomial(5, 5) == (1,)


def test_q_binomial_out_of_range_is_zero():
    assert q_binomial(3, 4) == ()
    assert q_binomial(3, -1) == ()


@pytest.mark.parametrize("m, k", [(4.0, 2), (4, 2.0), (True, 1), (5.0, 2), (4, True)])
def test_q_binomial_refuses_a_twin_of_a_cached_int(m, k):
    # 4.0 and True equal 4 and 1, so the typed cache keeps them apart
    assert q_binomial(4, 2) == (1, 1, 2, 1, 1) and q_binomial(1, 1) == (1,)
    hits = q_binomial.cache_info().hits
    with pytest.raises(ValueError, match="is not an int"):
        q_binomial(m, k)
    assert q_binomial.cache_info().hits == hits


def test_q_binomial_degree_and_positivity():
    for m in range(10):
        for k in range(m + 1):
            coeffs = q_binomial(m, k)
            assert len(coeffs) == k * (m - k) + 1
            assert all(c > 0 for c in coeffs)
            assert poly_eval(coeffs, 1) == math.comb(m, k)


def test_q_binomial_symmetry():
    for m in range(9):
        for k in range(m + 1):
            assert q_binomial(m, k) == q_binomial(m, m - k)


def test_q_binomial_large_m():
    coeffs = q_binomial(1500, 2)
    assert len(coeffs) == 2 * 1498 + 1
    assert coeffs == coeffs[::-1]
    assert poly_eval(coeffs, 1) == math.comb(1500, 2)


# -- q-bell ------------------------------------------------------------------------


def reference_q_bells(n):
    """B_0..B_n by the recursion q_bell replaced: B_m = sum over k < m of
    [m-1 choose k]_q B_k, one packed product per term, added as tuples."""
    bells = [(1,)]
    for m in range(1, n + 1):
        total = []
        for k in range(m):
            term = poly_mul(q_binomial(m - 1, k), bells[k])
            total += [0] * (len(term) - len(total))
            for i, c in enumerate(term):
                total[i] += c
        bells.append(tuple(total))
    return bells


def test_q_bell_matches_reference_recursion():
    # n = -1 is in test_qt_catalan_degenerate_sizes
    assert [q_bell(n) for n in range(46)] == reference_q_bells(45)


def test_q_bell_pinned_to_seventy():
    # sha256 of repr(reference_q_bells(70)), which takes about 8 s to
    # recompute; q_bell must give the same 71 polynomials
    got = repr([q_bell(n) for n in range(71)]).encode()
    assert hashlib.sha256(got).hexdigest() == (
        "22f21579e3c66ade815e48e146671c9964bda48f1c6a69fe70a947a97a796185"
    )


def test_q_bell_cold_call_is_one_entry():
    # the triangle does not recurse into q_bell(k) for k < n
    q_bell.cache_clear()
    try:
        q_bell(50)
        assert q_bell.cache_info().misses == 1
    finally:
        q_bell.cache_clear()


def test_q_bell_base_cases():
    assert q_bell(0) == (1,)
    assert q_bell(1) == (1,)
    assert q_bell(3) == (4, 1)


def test_q_bell_weight_one_is_bell():
    for n in [*range(16), 60, 80, 100]:
        assert poly_eval(q_bell(n), 1) == bell_number(n)


def test_bell_numbers():
    assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_q_bell_support_is_gap_free():
    for n in [*range(21), 60, 80, 100]:
        coeffs = q_bell(n)
        assert len(coeffs) == ab_interval_width(n) + 1
        assert all(c > 0 for c in coeffs)


# -- the width recursion ---------------------------------------------------------------


def test_width_values():
    assert ab_interval_width(0) == 0
    assert ab_interval_width(2) == 0
    assert ab_interval_width(4) == 2
    assert [ab_interval_width(n) + 1 for n in range(20)] == list(
        DISTINCT_AB_FIRST_TWENTY
    )


def test_minimizing_composition():
    for n in [*range(1, 15), 2000]:
        alpha = minimizing_composition(n)
        assert sum(alpha) == n
        total = 0
        pos = 0
        for part in alpha:
            pos += part
            total += (part - 1) * (n - pos)
        assert total == ab_interval_width(n)


def test_width_entries_share_one_table_build():
    # the pair reads one build of the quadratic table, and only the last
    # table is kept
    caches = (ab_interval_width, minimizing_composition, _width_table)
    for cache in caches:
        cache.cache_clear()
    try:
        total = sum(minimizing_composition(1234))
        assert ab_interval_width(1234) == _width_table(1234)[0][-1]
        info = _width_table.cache_info()
        assert (total, info.misses, info.hits, info.currsize) == (1234, 1, 2, 1)
        assert _width_table.cache_parameters()["maxsize"] == 1
    finally:
        for cache in caches:
            cache.cache_clear()


def test_distinct_ab_reference_sequence():
    assert tuple(distinct_ab_count(n) for n in range(20)) == DISTINCT_AB_FIRST_TWENTY
    assert distinct_ab_count(2) == 1


# -- bivariate tables --------------------------------------------------------------------


def test_qt_catalan_two():
    table = qt_catalan(2)
    assert table.at(1, 0) == 1
    assert table.at(0, 1) == 1
    assert table.total() == 2
    assert table.evaluate(1, 1) == 2


def test_qt_catalan_totals_and_symmetry():
    for n in range(9):
        table = qt_catalan(n)
        assert table.total() == catalan(n)
        assert table.is_symmetric()
        assert table.transpose().rows == table.rows


def test_qt_catalan_degenerate_sizes():
    assert qt_catalan(0).rows == ((1,),)
    assert qt_catalan(1).rows == ((1,),)
    for fn in (qt_catalan, q_bell, bell_number):
        with pytest.raises(ValueError, match="nonnegative"):
            fn(-1)


def test_qt_catalan_twenty_beyond_enumeration():
    table = qt_catalan(20)
    assert table.total() == catalan(20)
    assert table.is_symmetric()
    top = math.comb(20, 2)
    assert table.support_totals() == (top - ab_interval_width(20), top)


def test_csv_emission():
    table = qt_catalan(2)
    assert table.to_csv() == "area\\bounce,0,1\n0,0,1\n1,1,0\n"


def test_poly_to_string():
    assert poly_to_string(()) == "0"
    assert poly_to_string((4, 1)) == "4 + q"
    assert poly_to_string((0, 2, 0, 1)) == "2*q + q^3"


def test_from_pairs_round_trip():
    pairs = [(0, 1), (1, 0), (1, 0)]
    table = BivariateTable.from_pairs(2, pairs)
    assert table.at(1, 0) == 2
    assert table.at(0, 1) == 1
    assert not table.is_symmetric()


# -- exhaustive claims, checked once by the oracle -------------------------------------

test_distinct_ab_matches_brute_force = declared_range_test("distinct-ab-brute")
test_qt_catalan_support = declared_range_test("f-symmetry")
test_qt_catalan_matches_enumeration = declared_range_test("f-symmetry")
test_qt_flip_closure_symmetry = declared_range_test("flip-closure-symmetry")
