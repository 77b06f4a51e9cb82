import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _checks import declared_range_test
from _strategies import dyck_paths

from dyckab.paths import (
    DyckPath,
    PathSequence,
    _tail_levels,
    catalan,
    compositions,
    conjugate,
    count_paths_with_bounce_path,
    distinct_parts,
    enumerate_paths,
    is_partition,
    iter_area_bounce,
    multiplicity,
    partitions,
)
from dyckab import bijection, extremal, qbell
from dyckab.bijection import ExtendedCertificate, build_extended_pair
from dyckab.extremal import equivalence_class, level_sets

FIGURE_ONE = "NNNEENENEENNEE"


def blocks(n, alpha):
    return DyckPath.from_composition(n, alpha)


# -- construction ------------------------------------------------------------


def test_from_word_figure_one():
    p = DyckPath.from_word(FIGURE_ONE)
    assert p.n == 7
    assert p.word == FIGURE_ONE


def test_from_word_smallest():
    assert DyckPath.from_word("NE").n == 1


def test_from_word_rejects_dip_with_position():
    with pytest.raises(ValueError, match="position 1"):
        DyckPath.from_word("ENNE")


def test_from_word_rejects_late_dip():
    with pytest.raises(ValueError, match="position 3"):
        DyckPath.from_word("NEEN")


def test_from_word_rejects_unbalanced():
    with pytest.raises(ValueError, match="unbalanced"):
        DyckPath.from_word("NNE")


# words of paths, padded and in either case; short strings over the step
# letters and a few others; arbitrary text
words = (
    st.builds(
        lambda p, lower, pad: pad + (p.word.lower() if lower else p.word) + pad,
        dyck_paths(),
        st.booleans(),
        st.sampled_from(["", " ", "\t", "\n "]),
    )
    | st.text(alphabet=st.sampled_from("NEne xX\t\n1"), max_size=16)
    | st.text(max_size=8)
)


@given(words)
def test_from_word_round_trips_or_raises(word):
    try:
        p = DyckPath.from_word(word)
    except ValueError:
        return
    # the path keeps the word it parsed, so the round trip through the
    # row starts is read off a path built from them
    assert p.word == DyckPath(p.row_starts).word == word.strip().upper()


def test_from_word_keeps_the_normalized_word():
    assert DyckPath.from_word(" nNeE\n").word == "NNEE"
    for n in range(9):
        for p in enumerate_paths(n):
            parsed = DyckPath.from_word(p.word.lower())
            assert parsed == p
            assert parsed.word == DyckPath(p.row_starts).word == p.to_record()["word"]


def test_from_word_rejects_bad_letter():
    with pytest.raises(ValueError, match="illegal step"):
        DyckPath.from_word("NXNE")


@pytest.mark.parametrize(
    "n,alpha,word",
    [
        (7, (3, 2, 2), "NNNEEENNEENNEE"),
        (2, (1, 1), "NENE"),
        (5, (3, 1, 1), "NNNEEENENE"),
    ],
)
def test_from_composition(n, alpha, word):
    assert blocks(n, alpha).word == word


def test_from_composition_size_mismatch():
    with pytest.raises(ValueError):
        blocks(6, (3, 2, 2))


def test_from_composition_rejects_zero_part():
    with pytest.raises(ValueError):
        blocks(3, (3, 0))


def test_row_starts_must_be_plain_ints():
    # a float or bool row start equals its int twin as a key, so it would
    # share that path's memo entries; each is refused, naming its row
    for x in [(0, 0.5, 1), (0, 0.0), (0, True)]:
        with pytest.raises(ValueError, match="at row 2"):
            DyckPath(x)
    with pytest.raises(ValueError, match="at row 2"):
        DyckPath.from_area_sequence([0, 1.0])
    assert DyckPath((0, 0)).word == "NNEE"


@pytest.mark.parametrize(
    "build, args",
    [
        pytest.param(DyckPath.from_composition, (2, (1.0, 1)), id="composition-float"),
        pytest.param(DyckPath.from_composition, (2, (True, 1)), id="composition-bool"),
        pytest.param(conjugate, ((5.0, 1),), id="conjugate-float"),
        pytest.param(conjugate, ((5, True),), id="conjugate-bool"),
        pytest.param(count_paths_with_bounce_path, (2, (1.0, 1)), id="count-float"),
        pytest.param(count_paths_with_bounce_path, (2, (True, 1)), id="count-bool"),
        pytest.param(DyckPath.from_area_sequence, ((0, True),), id="area-sequence-bool"),
        pytest.param(DyckPath.from_column_heights, ((1.0, 2),), id="column-heights-float"),
        pytest.param(
            build_extended_pair, (ExtendedCertificate((2.0, 1), (), ()),), id="extended-pair-float"
        ),
    ],
)
def test_parts_must_be_plain_ints(build, args):
    # a float or bool part equals its int twin: it would build or count as
    # that twin, or fail in arithmetic with TypeError; each is refused
    with pytest.raises(ValueError):
        build(*args)


# -- statistics ---------------------------------------------------------------


def test_area_sequence_figure_one():
    assert DyckPath.from_word(FIGURE_ONE).area_sequence() == (0, 1, 2, 1, 1, 0, 1)


def test_area_sequence_staircase_and_blocks():
    assert DyckPath.from_word("NENE").area_sequence() == (0, 0)
    assert blocks(5, (3, 1, 1)).area_sequence() == (0, 1, 2, 0, 0)


def test_area_values():
    assert DyckPath.from_word(FIGURE_ONE).area() == 6
    # sum of C(part, 2) for block paths
    assert blocks(7, (3, 2, 2)).area() == 5
    assert blocks(6, (1,) * 6).area() == 0


def test_column_heights():
    assert blocks(5, (3, 1, 1)).column_heights() == (3, 3, 3, 4, 5)
    assert blocks(4, (4,)).column_heights() == (4, 4, 4, 4)
    assert blocks(4, (1, 1, 1, 1)).column_heights() == (1, 2, 3, 4)


def test_bounce_path_figure_one():
    p = DyckPath.from_word(FIGURE_ONE)
    assert p.bounce_composition() == (3, 2, 2)
    assert p.bounce_points() == (0, 3, 5, 7)
    assert p.bounce_path() == blocks(7, (3, 2, 2))


def test_bounce_path_fixed_point():
    for alpha in [(2,), (3, 1), (2, 2, 1)]:
        p = blocks(sum(alpha), alpha)
        assert p.bounce_path() == p
        assert p.is_minimal()
    assert DyckPath.from_word("NNEE").bounce_points() == (0, 2)


def test_is_minimal_matches_bounce_path_exhaustive():
    for n in range(11):
        for p in enumerate_paths(n):
            assert p.is_minimal() == (p == p.bounce_path()), p.word


def test_bounce_values():
    assert DyckPath.from_word(FIGURE_ONE).bounce() == 6
    # sum of (i-1) * part for block paths
    assert blocks(7, (3, 2, 2)).bounce() == 6
    assert blocks(5, (5,)).bounce() == 0


def test_bounce_zero_only_for_full_path():
    for p in enumerate_paths(5):
        assert (p.bounce() == 0) == (p == blocks(5, (5,)))


def test_floating_cells():
    p = DyckPath.from_word(FIGURE_ONE)
    assert p.floating_cell_count() == 1
    assert p.floating_cells() == [(4, 3)]
    assert blocks(7, (3, 2, 2)).floating_cell_count() == 0
    assert p.area() - p.bounce_path().area() == 1


@given(dyck_paths(max_n=30))
def test_floating_cell_count_counts_the_cells(p):
    assert p.floating_cell_count() == len(p.floating_cells())


def test_record_schema():
    rec = DyckPath.from_word(FIGURE_ONE).to_record()
    assert rec == {
        "n": 7,
        "word": FIGURE_ONE,
        "area": 6,
        "bounce": 6,
        "alpha": [3, 2, 2],
        "bounce_points": [0, 3, 5, 7],
        "area_seq": [0, 1, 2, 1, 1, 0, 1],
        "floating": 1,
    }


def assert_record_matches_methods(p):
    # the record `to_record` builds from one sweep, against the methods
    rec = p.to_record()
    want = {
        "n": p.n,
        "word": p.word,
        "area": p.area(),
        "bounce": p.bounce(),
        "alpha": list(p.bounce_composition()),
        "bounce_points": list(p.bounce_points()),
        "area_seq": list(p.area_sequence()),
        "floating": p.floating_cell_count(),
    }
    assert list(rec.items()) == list(want.items()), p.word
    assert [type(v) for v in rec.values()] == [type(v) for v in want.values()]


def test_record_matches_methods_exhaustive():
    for n in range(9):
        for p in enumerate_paths(n):
            assert_record_matches_methods(p)


@given(dyck_paths(max_n=30))
def test_record_matches_methods_random(p):
    assert_record_matches_methods(p)


# -- partitions ---------------------------------------------------------------


def test_conjugate_values():
    assert conjugate((4, 3, 3, 1, 1, 1)) == (6, 3, 3, 1)
    assert conjugate((6, 3, 1, 1)) == (4, 2, 2, 1, 1, 1)
    assert conjugate((1,)) == (1,)
    assert conjugate(()) == ()


@given(st.lists(st.integers(min_value=-4, max_value=12), max_size=10).map(tuple))
def test_conjugate_is_the_young_diagram_formula(parts):
    # the quadratic formula, on any tuple of ints: sorted or not, with
    # zero and negative parts
    if parts:
        young = tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))
    else:
        young = ()
    assert conjugate(parts) == young


def test_multiplicity_and_distinct_parts():
    lam = (4, 3, 3, 1, 1, 1)
    assert distinct_parts(lam) == (4, 3, 1)
    assert multiplicity(lam, 3) == 2
    assert multiplicity(lam, 2) == 0
    assert is_partition(lam)
    assert not is_partition((1, 3))
    # parts are plain ints: a float or bool part equals an int, not is one
    assert not is_partition((5.0, 1))
    assert not is_partition((2, True))


# -- enumeration ---------------------------------------------------------------


def test_enumerate_small():
    assert [p.word for p in enumerate_paths(2)] == ["NNEE", "NENE"]
    assert len(list(enumerate_paths(4))) == 14
    assert len(list(enumerate_paths(7))) == 429


def test_enumeration_order_and_uniqueness():
    for n in range(10):
        words = [p.word for p in enumerate_paths(n)]
        assert len(set(words)) == len(words) == catalan(n)
        paths = list(enumerate_paths(n))
        assert paths == sorted(paths)


def test_enumeration_is_iterative():
    # a recursive enumerator would exceed the interpreter's recursion limit
    assert next(enumerate_paths(3000)).word == "N" * 3000 + "E" * 3000


def test_ordering_rejects_non_paths():
    p = DyckPath.from_word("NE")
    for compare in (lambda: p < 3, lambda: p <= 3, lambda: 3 > p):
        with pytest.raises(TypeError):
            compare()


def test_iter_area_bounce_agrees_with_objects():
    # in enumeration order, path by path
    for n in range(12):
        for p, carried in zip(enumerate_paths(n), iter_area_bounce(n), strict=True):
            assert carried == (p.area(), p.bounce())


def test_tail_groups_cover_the_tails_in_word_order():
    n = 7
    paths = [
        x for x in combinations_with_replacement(range(n), n)
        if all(xr <= r for r, xr in enumerate(x))
    ]
    for m in range(1, n):
        by_prefix = {}
        for x in paths:
            by_prefix.setdefault(x[:m], []).append(x)
        for prefix, members in by_prefix.items():
            # the last bounce point rows 1..m open, the same for every member
            last = max(b for b in DyckPath(members[0]).bounce_points() if b < m)
            stride = math.comb(n, 2) + 1
            groups = _tail_levels(n, m, prefix[-1], last, stride)
            assert len({off for off, _ in groups}) == len(groups)
            tails = []
            for off, parts in groups:
                assert parts[0] == b"" and parts[1:] == sorted(parts[1:])
                for t in parts[1:]:
                    p = DyckPath(prefix + tuple(t))
                    drop = math.comb(n, 2) - sum(prefix) - p.area()
                    gain = sum(n - b for b in p.bounce_points() if b > last)
                    assert drop == sum(t) and off == drop * stride - gain
                tails += parts[1:]
            assert sorted(tails) == [bytes(x[m:]) for x in members]
            # groups in the order of their first tail
            firsts = [parts[1] for _, parts in groups]
            assert firsts == sorted(firsts)


def test_path_sequence_reads_like_a_tuple_and_refuses_edits():
    paths = list(enumerate_paths(4))
    seq = PathSequence(p.row_starts for p in paths)
    assert len(seq) == 14 and list(seq) == paths
    assert seq[-14] == paths[0] and seq[13] == paths[-1]
    assert isinstance(seq[2:5], PathSequence) and list(seq[2:5]) == paths[2:5]
    assert seq.count(paths[3]) == 1 and seq.index(paths[3]) == 3
    assert DyckPath.from_word("NE") not in seq
    for bad in (14, -15):
        with pytest.raises(IndexError):
            seq[bad]
    with pytest.raises(TypeError):
        seq[0] = paths[1]
    with pytest.raises(TypeError):
        del seq[0]


def test_path_sequence_bounds_and_byte_cap():
    # a blob slice past the end is short, not an error, so bounds are pinned
    for n in range(5):
        seq = PathSequence(p.row_starts for p in enumerate_paths(n))
        for bad in (len(seq), -len(seq) - 1):
            with pytest.raises(IndexError):
                seq[bad]
    empty = PathSequence([])
    assert len(empty) == 0 and list(empty) == [] and empty.row_starts == ()
    assert list(level_sets(0)) == list(level_sets(1)) == [(0, 0)]
    assert level_sets(0)[0, 0].row_starts == ((),)
    assert level_sets(1)[0, 0].row_starts == ((0,),)
    # row starts are bytes: semilength 256 fits, 257 does not
    assert PathSequence([range(256)])[0].n == 256
    with pytest.raises(ValueError, match="0..255"):
        PathSequence([range(257)])
    with pytest.raises(ValueError, match="different semilengths"):
        PathSequence([(0,), (0, 0)])


same_n_paths = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.lists(dyck_paths(min_n=n, max_n=n), max_size=12)
)


@given(same_n_paths, st.slices(12))
def test_path_sequence_agrees_with_tuple(paths, part):
    want = tuple(paths)
    seq = PathSequence(p.row_starts for p in paths)
    assert len(seq) == len(want) and list(seq) == list(want)
    for i in range(-len(want), len(want)):
        assert seq[i] == want[i]
    assert isinstance(seq[part], PathSequence)
    assert list(seq[part]) == list(want[part])
    assert list(reversed(seq)) == list(reversed(want))
    for p in want:
        assert p in seq
        assert seq.index(p) == want.index(p) and seq.count(p) == want.count(p)
    assert DyckPath.from_composition(9, (9,)) not in seq
    assert seq.row_starts == tuple(p.row_starts for p in want)


def test_enumerators_reject_negative_semilength():
    for n in (-1, -3):
        for enumerator in (iter_area_bounce, enumerate_paths):
            with pytest.raises(ValueError, match="semilength must be nonnegative"):
                next(enumerator(n))


# Every entry that takes a semilength, called at n; a generator's call
# takes its first item.
SIZE_ENTRIES = {
    "catalan": catalan,
    "compositions": lambda n: next(compositions(n)),
    "partitions": lambda n: next(partitions(n)),
    "enumerate_paths": lambda n: next(enumerate_paths(n)),
    "iter_area_bounce": lambda n: next(iter_area_bounce(n)),
    "from_composition": lambda n: DyckPath.from_composition(n, (1,) * int(n)),
    "count_paths_with_bounce_path": lambda n: count_paths_with_bounce_path(n, (1,) * int(n)),
    "iter_certificates": lambda n: next(bijection.iter_certificates(n)),
    "flip_sets": bijection.flip_sets,
    "iter_extended_certificates": lambda n: next(bijection.iter_extended_certificates(n)),
    "extended_flip_sets": bijection.extended_flip_sets,
    "level_sets": level_sets,
    "ab_level_map": extremal.ab_level_map,
    "min_ab": extremal.min_ab,
    "max_ab": extremal.max_ab,
    "bounce_minimal": extremal.bounce_minimal,
    "area_minimal": extremal.area_minimal,
    "phi_on_minimal": extremal.phi_on_minimal,
    "construct_path": lambda n: extremal.construct_path(n, 0, 0),
    "nonemptiness_symmetry": extremal.nonemptiness_symmetry,
    "interpolation_report": extremal.interpolation_report,
    "bounce_interval_conjecture": extremal.bounce_interval_conjecture,
    "top_levels": extremal.top_levels,
    "ab_ladder": lambda n: extremal.ab_ladder(n, math.comb(int(n), 2)),
    "q_bell": qbell.q_bell,
    "bell_number": qbell.bell_number,
    "ab_interval_width": qbell.ab_interval_width,
    "minimizing_composition": qbell.minimizing_composition,
    "distinct_ab_count": qbell.distinct_ab_count,
    "qt_catalan": qbell.qt_catalan,
    "qt_flip_closure": qbell.qt_flip_closure,
}


@pytest.mark.parametrize("size, twin", [(2.0, 2), (True, 1)], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(SIZE_ENTRIES))
def test_size_entries_refuse_a_size_that_is_no_int(entry, size, twin):
    # a float or bool size equals its int twin, so it is refused even
    # after the twin's answer is cached
    call = SIZE_ENTRIES[entry]
    call(twin)
    with pytest.raises(ValueError, match=f"semilength {size!r} is not an int"):
        call(size)


# The size caches, each with the int arguments of one cached call.
SIZE_CACHES = {
    "level_sets": (level_sets, (1,)),
    "ab_level_map": (extremal.ab_level_map, (1,)),
    "q_bell": (qbell.q_bell, (1,)),
    "ab_interval_width": (qbell.ab_interval_width, (1,)),
    "minimizing_composition": (qbell.minimizing_composition, (1,)),
    "_certified": (bijection._certified, (1,)),
    "q_binomial": (qbell.q_binomial, (1, 1)),
}


@pytest.mark.parametrize("twin", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(SIZE_CACHES))
def test_size_caches_key_each_argument_with_its_type(entry, twin):
    # a twin of a cached int misses the typed cache, and the body refuses
    # it: no hit, and no entry stored
    fn, args = SIZE_CACHES[entry]
    assert fn.cache_parameters()["typed"] is True
    fn(*args)
    before = fn.cache_info()
    with pytest.raises(ValueError, match=f"{twin!r} .*is not an int"):
        fn(twin, *args[1:])
    after = fn.cache_info()
    assert (after.hits, after.currsize) == (before.hits, before.currsize)
    assert after.misses == before.misses + 1


# -- counting -------------------------------------------------------------------


def test_count_paths_with_bounce_path_examples():
    assert count_paths_with_bounce_path(7, (3, 2, 2)) == 18
    assert count_paths_with_bounce_path(9, (9,)) == 1
    assert count_paths_with_bounce_path(4, (2, 2)) == 3


def test_count_paths_rejects_bad_composition():
    with pytest.raises(ValueError):
        count_paths_with_bounce_path(5, (3, 3))


def test_equivalence_class_figure_one():
    p = DyckPath.from_word(FIGURE_ONE)
    members = list(equivalence_class(p))
    assert p in members
    brute = [
        q
        for q in enumerate_paths(7)
        if q.area() == 6 and q.bounce_composition() == (3, 2, 2)
    ]
    assert members == brute


def test_equivalence_class_singleton():
    full = blocks(5, (5,))
    assert list(equivalence_class(full)) == [full]


# -- properties -------------------------------------------------------------------


@given(dyck_paths())
def test_representations_interconvert(p):
    assert DyckPath.from_word(p.word) == p
    assert DyckPath.from_area_sequence(p.area_sequence()) == p
    assert DyckPath.from_column_heights(p.column_heights()) == p


@given(dyck_paths())
def test_stats_consistency(p):
    n = p.n
    assert p.area() == sum(p.area_sequence())
    assert p.area() == sum(p.column_heights()) - n * (n + 1) // 2
    assert sum(p.bounce_composition()) == n
    assert p.bounce() == sum(n - b for b in p.bounce_points()[1:])
    # b_{j+1} is the height of column b_j + 1
    h = p.column_heights()
    pts = p.bounce_points()
    assert all(pts[j + 1] == h[pts[j]] for j in range(len(pts) - 1))
    bp = p.bounce_path()
    assert bp.area() <= p.area()
    assert bp.bounce() == p.bounce()
    assert math.comb(n, 2) >= p.ab() >= 0


# -- exhaustive claims, checked once by the oracle -------------------------------------

test_conjugate_involution_small = declared_range_test("conjugate-ab-pairs")
test_count_paths_with_bounce_path_brute = declared_range_test("product-formula")
test_word_round_trip_exhaustive = declared_range_test("word-round-trip")
test_conjugate_block_paths_swap_stats = declared_range_test("conjugate-ab-pairs")
