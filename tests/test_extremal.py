import hashlib
import math
import time
import tracemalloc
from itertools import combinations_with_replacement

import pytest

from dyckab import cli
from dyckab.paths import DyckPath, PathSequence, enumerate_paths
from dyckab.bijection import phi
from dyckab.extremal import (
    ENUMERATION_CAP,
    _class_index,
    _witnesses,
    ab_ladder,
    ab_level_map,
    area_minimal,
    bounce_minimal,
    construct_path,
    equivalence_class,
    is_area_minimal,
    is_bounce_minimal,
    level_sets,
    max_ab,
    min_ab,
    phi_on_minimal,
    satisfies_area_minimal_conditions,
    satisfies_bounce_minimal_conditions,
    top_levels,
)
from _checks import declared_range_test


def blocks(alpha):
    return DyckPath.from_composition(sum(alpha), alpha)


# -- level sets ----------------------------------------------------------------


def test_level_sets_refuse_stats_the_methods_disagree_with(monkeypatch):
    bounce = DyckPath.bounce
    monkeypatch.setattr(DyckPath, "bounce", lambda self: bounce(self) + 1)
    level_sets.cache_clear()
    try:
        with pytest.raises(AssertionError, match="methods disagree"):
            level_sets(4)
    finally:
        level_sets.cache_clear()


def test_level_table_memory():
    # one byte per row start: about 0.9 MB at n = 11, where a tuple per
    # path held 8.2 MB
    level_sets.cache_clear()
    tracemalloc.start()
    try:
        level_sets(11)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        level_sets.cache_clear()
    assert held < 2_000_000


def test_enumerating_functions_refuse_above_cap():
    assert cli.ENUMERATION_CAP == ENUMERATION_CAP == 12
    start = time.perf_counter()
    for call in (
        lambda: construct_path(2000, 1, 1),
        lambda: area_minimal(ENUMERATION_CAP + 1),
        lambda: bounce_minimal(2000),
        lambda: equivalence_class(DyckPath.from_word("NE" * (ENUMERATION_CAP + 1))),
    ):
        with pytest.raises(ValueError, match=f"above {ENUMERATION_CAP}"):
            call()
    assert time.perf_counter() - start < 1.0


def assert_sequence_matches(seq, want):
    """``seq``, a PathSequence, reads exactly as the list ``want``."""
    assert isinstance(seq, PathSequence)
    assert len(seq) == len(want)
    assert list(seq) == want
    assert seq[0] == want[0] and seq[-1] == want[-1]
    assert list(seq[1:-1:2]) == want[1:-1:2]
    assert list(reversed(seq)) == want[::-1]
    for i in {0, len(want) // 2, len(want) - 1}:
        assert want[i] in seq
        assert seq.index(want[i]) == i
    assert seq.row_starts == tuple(p.row_starts for p in want)


def test_level_sets_match_grouping_by_methods():
    for n in range(11):
        grouped = {}
        for p in enumerate_paths(n):
            grouped.setdefault((p.area(), p.bounce()), []).append(p)
        # levels in first-seen key order, every member list in word order
        assert list(level_sets(n)) == list(grouped)
        outside = DyckPath.from_composition(n + 1, (n + 1,))
        for key, members in level_sets(n).items():
            assert_sequence_matches(members, grouped[key])
            assert outside not in members


def test_level_sets_match_independent_enumeration():
    # every weakly increasing n-tuple over 0..n-1 with x_r <= r - 1 is the
    # row starts of one path, and combinations_with_replacement lists them
    # in word order, sharing no code with the enumerator
    for n in range(11):
        grouped = {}
        for x in combinations_with_replacement(range(n), n):
            if all(xr <= r for r, xr in enumerate(x)):
                p = DyckPath(x)
                grouped.setdefault((p.area(), p.bounce()), []).append(x)
        table = level_sets(n)
        assert list(table) == list(grouped)
        for key, members in table.items():
            assert members.row_starts == tuple(grouped[key])


# sha256 over each level's key, size and row starts, in table order: the
# brute-force tests above stop at n = 10, and these pin the table past them
LEVEL_TABLE_DIGESTS = {
    11: "7ae52ab426d2ac7ff19416e075979b28037bae631e563538c8dbbd57ae66447a",
    12: "eafbd89e26f44453e1173859526f041ca02a1ef4448624d14ff536a40c0cf4f7",
}


@pytest.mark.parametrize("n", sorted(LEVEL_TABLE_DIGESTS))
def test_level_table_digest(n):
    digest = hashlib.sha256()
    for (a, b), seq in level_sets(n).items():
        digest.update(f"{a},{b},{len(seq)};".encode())
        digest.update(bytes(x for row in seq.row_starts for x in row))
    assert digest.hexdigest() == LEVEL_TABLE_DIGESTS[n]


def test_path_sequences_match_grouping_by_methods():
    for n in range(11):
        classes = {}
        for p in enumerate_paths(n):
            classes.setdefault((p.area(), p.bounce_composition()), []).append(p)
        table = _class_index(n)
        assert set(table) == set(classes)
        outside = DyckPath.from_composition(n + 1, (n + 1,))
        for key, members in table.items():
            assert_sequence_matches(members, classes[key])
            assert outside not in members


def test_cached_tables_refuse_mutation():
    # the first value of ab_level_map(5) is level 10; clearing it once
    # made every later bounce_minimal(5) raise IndexError
    before = (bounce_minimal(5), area_minimal(5), [is_bounce_minimal(p) for p in enumerate_paths(5)])
    tables = (level_sets(5), ab_level_map(5), _class_index(5))
    try:
        for table in tables:
            key, value = next(iter(table.items()))
            with pytest.raises(TypeError):
                table[key] = value
            with pytest.raises(AttributeError):
                value.append(value[0])
            with pytest.raises(AttributeError):
                value.clear()
        after = (bounce_minimal(5), area_minimal(5), [is_bounce_minimal(p) for p in enumerate_paths(5)])
        assert after == before
    finally:
        # a table that accepted an edit must not leak it into later tests
        for cached in (level_sets, ab_level_map, _class_index):
            cached.cache_clear()


def test_level_sets_small():
    lv = level_sets(2)
    assert set(lv) == {(1, 0), (0, 1)}
    assert all(len(ps) == 1 for ps in lv.values())


def test_level_sets_extremes():
    for n in (3, 5):
        lv = level_sets(n)
        assert list(lv[(math.comb(n, 2), 0)]) == [blocks((n,))]
        assert list(lv[(0, math.comb(n, 2))]) == [blocks((1,) * n)]


# -- minimal sets ---------------------------------------------------------------


def test_minimal_membership_predicates():
    # the sets themselves are checked against brute force by minimal-sets
    for n in range(1, 7):
        bset, aset = set(bounce_minimal(n)), set(area_minimal(n))
        for p in enumerate_paths(n):
            assert is_bounce_minimal(p) == (p in bset)
            assert is_area_minimal(p) == (p in aset)


def test_full_path_is_bounce_minimal():
    for n in (2, 5, 7):
        assert is_bounce_minimal(blocks((n,)))


def test_staircase_is_area_minimal():
    for n in (2, 5, 7):
        assert is_area_minimal(blocks((1,) * n))


def test_area_minimal_conditions_necessary_not_sufficient():
    for p in area_minimal(7):
        assert satisfies_area_minimal_conditions(p)
    # the conditions admit this non-minimal path, so they cannot define the set
    extra = DyckPath.from_word("NENNEENNEENE")
    assert satisfies_area_minimal_conditions(extra)
    assert not is_area_minimal(extra)


def test_bounce_minimal_conditions_necessary_not_sufficient():
    # the block path of (7, 3, 2, 1) passes, yet (6, 5, 2) has less bounce
    # on the same level 35, so the conditions admit a non-minimal path
    extra = DyckPath.from_word("NNNNNNNEEEEEEENNNEEENNEENE")
    assert extra.bounce_composition() == (7, 3, 2, 1)
    assert (extra.area(), extra.bounce()) == (25, 10)
    assert satisfies_bounce_minimal_conditions(extra)
    lower = DyckPath.from_word("NNNNNNEEEEEENNNNNEEEEENNEE")
    assert lower.bounce_composition() == (6, 5, 2)
    assert (lower.area(), lower.bounce()) == (26, 9)


# -- flip on minimal sets ----------------------------------------------------------


def test_flip_pairs_minimal_sets():
    for n in range(1, 8):
        pairs = phi_on_minimal(n)
        image = {q for (_, q) in pairs}
        assert image == set(area_minimal(n))
        for p, q in pairs:
            assert (q.area(), q.bounce()) == (p.bounce(), p.area())


def test_flip_fixes_conjugate_block_levels():
    # zero floating cells on both sides pair block paths with conjugates
    assert phi(blocks((3, 2, 1))) == blocks((3, 2, 1))


# -- constructing representatives ----------------------------------------------------


def test_construct_examples():
    built = construct_path(6, 5, 5)
    assert built is not None
    assert (built.area(), built.bounce()) == (5, 5)
    for n in (3, 5, 7):
        assert construct_path(n, math.comb(n, 2), 0) == blocks((n,))


def test_construct_empty_levels():
    assert construct_path(4, 6, 6) is None
    assert construct_path(4, 5, 0) is None
    assert construct_path(3, -1, 2) is None


@pytest.mark.parametrize("a, b", [(2.0, 4), (2, 4.0), (True, 4), ("2", 4)])
def test_construct_refuses_statistics_that_are_not_ints(a, b):
    # 2.0 and True equal their int twins as keys, so they would read or
    # cache witnesses under a twin's level; refused before any table
    before = _witnesses.cache_info()
    with pytest.raises(ValueError, match="not an int"):
        construct_path(5, a, b)
    assert _witnesses.cache_info() == before


def test_witnesses_refuse_mutation():
    def answers():
        return [
            construct_path(n, a, b)
            for n in range(1, 9)
            for a in range(math.comb(n, 2) + 1)
            for b in range(math.comb(n, 2) + 1 - a)
        ]

    before = answers()
    try:
        for s in ab_level_map(5):
            witnesses = _witnesses(5, s)
            key = next(iter(witnesses))
            with pytest.raises(TypeError):
                witnesses[key] = None
            with pytest.raises(TypeError):
                del witnesses[key]
        assert answers() == before
    finally:
        # a table that accepted an edit must not leak it into later tests
        _witnesses.cache_clear()


# -- symmetry and interval reports ------------------------------------------------------


def test_top_levels_n4():
    report = top_levels(4)
    assert report["top_count"] == 7
    assert report["second_count"] == 4
    assert report["top_full_split"] and report["top_singletons"]
    assert report["second_singletons"]
    assert report["min_ab"] == 4  # 6 - width(4) with width(4) = 2


def test_ladder_endpoints():
    # the walk starts at the block path of the width-maximizing composition
    from dyckab.qbell import minimizing_composition

    for n in range(2, 9):
        lo = min_ab(n)
        assert ab_ladder(n, lo) == blocks(minimizing_composition(n))


def test_ladder_rejects_out_of_range():
    import pytest

    with pytest.raises(ValueError):
        ab_ladder(5, min_ab(5) - 1)
    with pytest.raises(ValueError):
        ab_ladder(5, max_ab(5) + 1)


# -- exhaustive claims, checked once by the oracle -------------------------------------

test_minimal_sets_match_brute_force = declared_range_test("minimal-sets")
test_bounce_minimal_characterization_exact = declared_range_test("minimal-sets")
test_construct_matches_realizability = declared_range_test("construct-exact")
test_nonemptiness_symmetry = declared_range_test("nonemptiness-symmetry")
test_interpolation_report = declared_range_test("interpolation")
test_bounce_interval_conjecture_small = declared_range_test("bounce-interval-conjecture")
test_top_levels_range = declared_range_test("top-levels")
test_ab_interval_and_ladder = declared_range_test("ab-interval")
test_levels_in_seven = declared_range_test("minimal-figure-counts")
test_minimal_seven_figures = declared_range_test("minimal-figure-counts")
