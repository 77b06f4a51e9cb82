from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyckab import bijection
from dyckab.paths import (
    DyckPath,
    compositions,
    conjugate,
    distinct_parts,
    partitions,
)
from dyckab.ops import BOTTOM, add_area_cell, bounce_boost
from dyckab.bijection import (
    _boost,
    _breaks_bound,
    _certified_image,
    _decode_bounce_side,
    _shortfall_counts,
    Certificate,
    NotInDomainError,
    apply_area_map,
    apply_bounce_map,
    bounce_index_set,
    bounce_map,
    build_extended_pair,
    classify,
    extended_flip_sets,
    extended_pair_valid,
    flip_sets,
    gamma,
    gamma_inverse,
    is_certificate,
    iter_certificates,
    iter_extended_certificates,
    phi,
    phi_inverse,
    row_index_set,
    row_map,
)
from _checks import declared_range_test
from _strategies import dyck_paths

WORKED_PARTITION = (6, 3, 1, 1)  # conjugate (4, 2, 2, 1, 1, 1), size 11
WORKED_MAP = {(1, 1): 3, (1, 2): 2, (2, 1): 2}


def blocks(alpha):
    return DyckPath.from_composition(sum(alpha), alpha)


# -- index sets and maps -------------------------------------------------------


def test_index_sets_worked_example():
    assert bounce_index_set((6, 3, 3, 1)) == [(1, 1), (1, 2), (2, 1)]
    assert row_index_set((6, 3, 3, 1)) == [(1, 1), (1, 2), (1, 3), (2, 1)]


def test_index_sets_degenerate():
    assert bounce_index_set((3, 3)) == []  # one distinct part
    assert row_index_set((1, 1)) == []


@pytest.mark.parametrize(
    "parts, conj, bounce_set, row_set",
    [
        ((1, 2, 1), (3,), [(1, 1), (2, 1), (2, 2)], [(1, 1), (1, 2), (2, 1)]),
        ((3, 0, 1), (2, 1, 1), [(1, 1), (2, 1)], [(2, 1)]),
        ((2, 5), (2, 2), [(1, 1)], [(1, r) for r in range(1, 6)]),
        ((4, -1, 2), (2, 2, 1, 1), [(1, 1), (2, 1)], [(2, 1), (2, 2)]),
    ],
)
def test_partition_helpers_on_non_partitions(parts, conj, bounce_set, row_set):
    # pinned values on tuples that are not partitions: unsorted parts,
    # zero and negative parts
    assert conjugate(parts) == conj
    assert bounce_index_set(parts) == bounce_set
    assert row_index_set(parts) == row_set


@st.composite
def random_compositions(draw, max_n=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    ends = [0, *sorted(cuts), n]
    return tuple(b - a for a, b in zip(ends, ends[1:]))


@given(random_compositions())
def test_shortfall_counts_match_quadratic_definition(alpha):
    # count (i, r): the r-th part from the right of the (i+1)-th smallest
    # size, holding the shortfall of every part left of it
    bar = distinct_parts(tuple(sorted(alpha, reverse=True)))
    l = len(bar)
    expected = {}
    for i in range(1, l):
        size = bar[l - i - 1]
        positions = [j for j in range(len(alpha), 0, -1) if alpha[j - 1] == size]
        for r, jr in enumerate(positions, 1):
            v = sum(max(0, size - alpha[j - 1]) for j in range(1, jr))
            if v:
                expected[(i, r)] = v
    assert _shortfall_counts(alpha, bar) == expected


def test_bounce_map_values():
    lam = (6, 3, 3, 1)
    assert bounce_map(lam, 1, 1) == 3
    assert bounce_map(lam, 1, 2) == 2
    assert bounce_map(lam, 2, 1) == 1


def test_row_map_values():
    lam = WORKED_PARTITION
    assert [row_map(lam, i, r) for (i, r) in row_index_set(lam)] == [7, 8, 9, 10]


def test_maps_reject_outside_index_set():
    with pytest.raises(ValueError):
        bounce_map((6, 3, 3, 1), 3, 1)
    with pytest.raises(ValueError):
        row_map((6, 3, 3, 1), 1, 4)


def test_index_set_containment():
    # bounce indices of the conjugate always fit among the row indices
    for n in range(1, 11):
        for lam in partitions(n):
            assert set(bounce_index_set(conjugate(lam))) <= set(row_index_set(lam))


# -- operator bundles -----------------------------------------------------------


def reference_apply_area_map(lam, count_map, start=None):
    """Stack the cells one at a time, rows ascending, on ``start`` (the
    block path of lam by default)."""
    cur = blocks(lam) if start is None else start
    for (i, r) in sorted(count_map):
        for _ in range(count_map[(i, r)]):
            cur = add_area_cell(cur, row_map(lam, i, r))
            if cur is BOTTOM:
                return BOTTOM
    return cur


@st.composite
def partitions_with_counts(draw):
    lam = draw(st.sampled_from(list(partitions(draw(st.integers(1, 11))))))
    keys = row_index_set(lam)
    values = draw(st.lists(st.integers(0, 4), min_size=len(keys), max_size=len(keys)))
    return lam, dict(zip(keys, values))


@given(partitions_with_counts())
def test_area_map_matches_cell_by_cell_reference(case):
    lam, count_map = case
    assert apply_area_map(lam, count_map) == reference_apply_area_map(lam, count_map)


def test_area_map_rejects_bad_counts():
    with pytest.raises(ValueError):
        apply_area_map((6, 3, 3, 1), {(1, 4): 1})
    with pytest.raises(ValueError):
        apply_area_map(WORKED_PARTITION, {(1, 1): -1})


def test_area_map_zero_is_block_path():
    for lam in [(3, 1), (2, 2, 1), (4,)]:
        assert apply_area_map(lam, {}) == blocks(lam)


def test_area_map_worked_example():
    base = blocks(WORKED_PARTITION)
    left = apply_area_map(WORKED_PARTITION, WORKED_MAP)
    assert left is not BOTTOM
    assert left.area() == base.area() + 7
    assert left.bounce() == base.bounce()


def test_area_map_overfull_changes_bounce():
    # raising the last count by one keeps a valid path but moves a bounce point
    bad = {(1, 1): 3, (1, 2): 2, (2, 1): 3}
    path = apply_area_map(WORKED_PARTITION, bad)
    assert path is not BOTTOM
    assert path.bounce() != blocks(WORKED_PARTITION).bounce()


def reference_boost(path, lam, count_map):
    """The bounce map as a chain of public bounce_boost calls, one per
    nonzero count, indices ordered by i then r."""
    for (i, r) in sorted(count_map):
        k = count_map[(i, r)]
        if k:
            path = bounce_boost(path, bounce_map(lam, i, r), k)
            if path is BOTTOM:
                return BOTTOM
    return path


def test_boost_matches_boost_chain_exhaustive():
    # every count map up to the certificate bounds and one past them
    bottoms = 0
    for n in range(1, 10):
        for lam in partitions(n):
            keys = bounce_index_set(lam)
            bounds = distinct_parts(conjugate(lam))
            ranges = [range(bounds[i] + 1) for (i, _) in keys]
            start = blocks(lam)
            for values in product(*ranges):
                f = dict(zip(keys, values))
                got = _boost(start, lam, f)
                assert got == reference_boost(start, lam, f), (lam, f)
                bottoms += got is BOTTOM
    assert bottoms > 0


@st.composite
def paths_with_boost_maps(draw):
    # the path or its bounce path, which more boosts accept; lam is the
    # sorted bounce composition or a random partition of the size, whose
    # bounce points the path may not have
    path = draw(dyck_paths(max_n=30))
    if draw(st.booleans()):
        path = path.bounce_path()
    parts = list(path.bounce_composition())
    if draw(st.booleans()):
        parts, left = [], path.n
        while left:
            part = draw(st.integers(1, left))
            parts.append(part)
            left -= part
    lam = tuple(sorted(parts, reverse=True))
    keys = bounce_index_set(lam)
    # half the counts zero, so that more maps stay within capacity
    count = st.one_of(st.just(0), st.integers(1, 3))
    values = draw(st.lists(count, min_size=len(keys), max_size=len(keys)))
    return path, lam, dict(zip(keys, values))


@given(paths_with_boost_maps())
@settings(max_examples=200)
def test_boost_matches_boost_chain_random(case):
    path, lam, f = case
    assert _boost(path, lam, f) == reference_boost(path, lam, f)


def test_bounce_map_zero_is_block_path():
    lamp = conjugate(WORKED_PARTITION)
    assert apply_bounce_map(lamp, {}) == blocks(lamp)


def test_worked_example_forms_ab_pair():
    left = apply_area_map(WORKED_PARTITION, WORKED_MAP)
    right = apply_bounce_map(conjugate(WORKED_PARTITION), WORKED_MAP)
    assert right is not BOTTOM
    assert left.area() == right.bounce() == 25
    assert left.bounce() == right.area() == 8


def test_conjugate_pair_via_zero_map():
    for n in range(1, 9):
        for lam in partitions(n):
            left = apply_area_map(lam, {})
            right = apply_bounce_map(conjugate(lam), {})
            assert left.area() == right.bounce()
            assert left.bounce() == right.area()


# -- certificates ------------------------------------------------------------------


def test_zero_map_is_always_certificate():
    for n in range(1, 10):
        for lam in partitions(n):
            assert is_certificate(lam, {})


def test_certificate_examples_from_decode():
    # block path of (1,3,1,1): one part of size 3 moved past one part of
    # size 1, shortfall 2, within the bound 4
    assert is_certificate((4, 1, 1), {(1, 1): 2})
    # block path of (1,2,3) decodes to a count of 3 against the bound 2
    assert not is_certificate((3, 2, 1), {(1, 1): 1, (2, 1): 3})


def test_non_partition_is_not_certificate():
    assert not is_certificate((1, 3), {})


def test_worked_map_is_not_certificate():
    # its bounce-side image has floating cells, so it is outside the
    # certified set even though it forms a valid pair
    assert not is_certificate(WORKED_PARTITION, WORKED_MAP)
    image = apply_bounce_map(conjugate(WORKED_PARTITION), WORKED_MAP)
    assert image is not BOTTOM and not image.is_minimal()


def test_certificate_count_lower_bound():
    for n in range(1, 9):
        assert sum(1 for _ in iter_certificates(n)) >= sum(
            1 for _ in partitions(n)
        )


# -- the certificate memo ------------------------------------------------------------


def outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("returns", fn(*args))
    except Exception as exc:
        return ("raises", type(exc), str(exc))


def uncached(monkeypatch, fn, *args):
    """outcome(fn, *args) with every rule call bypassing the memo."""
    with monkeypatch.context() as patched:
        patched.setattr(bijection, "_certified_image", bijection._rule)
        return outcome(fn, *args)


def public_checks(lam, count_map):
    """The public calls that reach the rule with (lam, count_map): as f,
    and as g against the zero f on lam'."""
    return [
        (is_certificate, lam, count_map),
        (extended_pair_valid, lam, count_map, {}),
        (extended_pair_valid, conjugate(lam), {}, count_map),
    ]


def assert_memo_is_exact(monkeypatch, lam, count_map, twin):
    """The public checks answer count_map as the uncached rule does, both
    with an empty memo and with its plain-int twin memoized."""
    calls = public_checks(lam, count_map)
    want = [uncached(monkeypatch, *call) for call in calls]
    twin_want = uncached(monkeypatch, is_certificate, lam, twin)
    bijection._memo_image.cache_clear()
    assert [outcome(*call) for call in calls] == want
    assert outcome(is_certificate, lam, twin) == twin_want
    assert [outcome(*call) for call in calls] == want


# (lam, map, plain-int twin): each map equals its twin as dict keys and
# values, yet the rule raises on it
MALFORMED_TWINS = [
    ((5, 1), {(1, 1): 4.0}, {(1, 1): 4}),  # float value
    ((5, 1), {(1, 1): True}, {(1, 1): 1}),  # bool value
    ((5, 1), {(1.0, 1): 4}, {(1, 1): 4}),  # float index
]


@pytest.mark.parametrize("lam, count_map, twin", MALFORMED_TWINS)
def test_memo_answers_a_malformed_map_as_the_uncached_rule(monkeypatch, lam, count_map, twin):
    # the twin is a certificate, so a key that took the map for its twin
    # would return True where the rule raises
    assert is_certificate(lam, twin)
    assert outcome(is_certificate, lam, count_map)[0] == "raises"
    assert_memo_is_exact(monkeypatch, lam, count_map, twin)


@st.composite
def maps_with_twins(draw):
    """(lam, count map, plain-int twin): values from -1 up to the largest
    bound, zeros included, on the bounce index set of lam' and off it;
    one entry may become a float or bool value or a float index."""
    n = draw(st.integers(min_value=1, max_value=10))
    lam = draw(st.sampled_from(list(partitions(n))))
    indices = bounce_index_set(conjugate(lam)) + [(0, 1), (1, 0), (len(lam) + 1, 1)]
    top = max(distinct_parts(lam))
    entries = draw(st.dictionaries(st.sampled_from(indices), st.integers(-1, top), max_size=4))
    twin = dict(entries)
    count_map = dict(entries)
    if entries:
        (i, r), v = draw(st.sampled_from(sorted(entries.items())))
        kind = draw(st.sampled_from(["plain", "float value", "bool value", "float index"]))
        if kind == "float value":
            count_map[(i, r)] = float(v)
        elif kind == "bool value" and v in (0, 1):
            count_map[(i, r)] = bool(v)
        elif kind == "float index":
            del count_map[(i, r)]
            count_map[(float(i), r)] = v
    return lam, count_map, twin


@settings(max_examples=200)
@given(maps_with_twins())
@example(((5, 1), {(1, 1): 4.0}, {(1, 1): 4}))
@example(((5, 1), {(1, 1): 4, (2, 1): 0.0}, {(1, 1): 4, (2, 1): 0}))
def test_memo_answers_every_map_as_the_uncached_rule(case):
    lam, count_map, twin = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_memo_is_exact(monkeypatch, lam, count_map, twin)


@pytest.mark.parametrize("layout_first", [False, True])
def test_float_partition_is_refused_in_either_call_order(layout_first):
    # 5.0 equals 5 as a cache key, so a float partition must be refused
    # before its layout is read, whether or not (5, 1)'s is cached
    bijection._layout.cache_clear()
    if layout_first:
        bijection._layout((5, 1))
    assert not is_certificate((5.0, 1), {(1, 1): 4})
    assert not extended_pair_valid((5.0, 1), {(1, 1): 4}, {})
    assert is_certificate((5, 1), {(1, 1): 4})


def test_each_round_trip_builds_its_image_once(monkeypatch):
    # classify, the map and the inverse on its image decode one pair per
    # side, so with the memo they build one image per side
    calls = 0
    build = bijection.apply_bounce_map

    def counted(lam, count_map):
        nonlocal calls
        calls += 1
        return build(lam, count_map)

    monkeypatch.setattr(bijection, "apply_bounce_map", counted)
    for n in range(1, 10):
        area_side, bounce_side = flip_sets(n)
        for path in set(area_side) | set(bounce_side):
            bijection._memo_image.cache_clear()
            calls = 0
            classify(path)
            if path in area_side:
                assert phi_inverse(phi(path)) == path
            if path in bounce_side:
                assert phi(phi_inverse(path)) == path
            sides = (path in area_side) + (path in bounce_side)
            assert 1 <= calls <= sides, (path.word, calls)


# -- the flip -----------------------------------------------------------------------


def test_flip_maps_block_path_to_conjugate():
    for n in range(1, 9):
        for lam in partitions(n):
            assert phi(blocks(lam)) == blocks(conjugate(lam))
            assert phi_inverse(blocks(conjugate(lam))) == blocks(lam)


def test_flip_set_results_do_not_share_state():
    # the certificate stream is cached per n; callers get fresh dicts
    for build, n in ((flip_sets, 8), (extended_flip_sets, 7)):
        first = build(n)
        want = [list(side.items()) for side in first]
        stray = DyckPath.from_word("NENE")
        for side in first:
            side.popitem()
            side[stray] = None
        assert [list(side.items()) for side in build(n)] == want
    assert sum(1 for _ in iter_certificates(8)) == len(flip_sets(8)[0])


def test_flip_domain_violation_raises():
    # a path with a floating cell off the allowed rows is in neither side
    bad = DyckPath.from_word("NNENENEENENE")
    assert classify(bad).kind == "neither"
    with pytest.raises(NotInDomainError):
        phi(bad)
    with pytest.raises(NotInDomainError):
        phi_inverse(bad)


def test_union_sizes_and_bounds():
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    expected = {5: 21, 6: 35, 7: 73, 8: 126}
    for n, size in expected.items():
        area_side, bounce_side = flip_sets(n)
        union = set(area_side) | set(bounce_side)
        assert len(union) == size
        assert 2 * fib[n + 1] <= len(union) <= 2**n


# -- classification -----------------------------------------------------------------


# bounce-side members among the 2^(n-1) block paths of n = 1..16; an
# early refusal only turns members into non-members, so equal counts
# mean equal sets
BOUNCE_SIDE_MEMBERS = [
    1, 2, 4, 7, 14, 23, 44, 74, 131, 229, 404, 696, 1221, 2113, 3655, 6309,
]


def bounce_side_members(n):
    return {
        p
        for p in (blocks(alpha) for alpha in compositions(n))
        if _decode_bounce_side(p) is not None
    }


def test_bounce_side_member_counts_on_block_paths():
    counts = [len(bounce_side_members(n)) for n in range(1, 17)]
    assert counts == BOUNCE_SIDE_MEMBERS


def test_bounce_side_members_are_the_flip_image():
    for n in range(1, 13):
        assert bounce_side_members(n) == set(flip_sets(n)[1])


@settings(max_examples=300)
@given(random_compositions(max_n=40))
@example((1, 3))  # its one count, 2, equals its bound
def test_bound_refusal_is_the_rules_bound_clause(alpha):
    # block i of the count map is bounded by the i-th distinct part of
    # lam = mu', largest first; a refused pair is no certificate
    mu = tuple(sorted(alpha, reverse=True))
    f = _shortfall_counts(alpha, distinct_parts(mu))
    lam = conjugate(mu)
    bounds = distinct_parts(lam)
    broken = any(f.get((i, 1), 0) >= bounds[i - 1] for i in range(1, len(bounds)))
    assert _breaks_bound(mu, f) == broken
    if broken:
        assert _certified_image(lam, f) is None


def test_classify_bounce_side_example():
    p = blocks((1, 3, 1, 1))
    cls = classify(p)
    assert cls.kind == "bounce-side"
    assert cls.bounce_certificate == Certificate.make((4, 1, 1), {(1, 1): 2})


def test_classify_floating_cell_off_named_rows():
    base = blocks((2, 2, 1, 1))
    seq = list(base.area_sequence())
    seq[2] += 1  # a floating cell in row 3
    p = DyckPath.from_area_sequence(seq)
    assert p.bounce_composition() == (2, 2, 1, 1)
    assert classify(p).kind == "neither"


def test_classify_overfull_bounce_side():
    p = blocks((1, 2, 3))
    assert classify(p).kind == "neither"


def test_classify_block_paths_are_both_sides():
    for lam in [(3, 1), (2, 2), (4, 2, 1)]:
        cls = classify(blocks(lam))
        assert cls.kind == "both"
        assert cls.area_certificate == Certificate.make(lam, {})
        assert cls.bounce_certificate == Certificate.make(conjugate(lam), {})


def test_certificate_serialization():
    cert = Certificate.make((4, 1, 1), {(1, 1): 2})
    assert cert.to_json_dict() == {"lambda": [4, 1, 1], "f": [[1, 1, 2]]}
    assert cert.count_map == {(1, 1): 2}
    assert cert.total == 2


# -- the extension -------------------------------------------------------------------


def test_extended_worked_example():
    target = None
    for cert in iter_extended_certificates(11):
        if (
            cert.partition == WORKED_PARTITION
            and cert.f_map == {(1, 1): 3}
            and cert.g_map == {(1, 1): 2}
        ):
            target = cert
            break
    assert target is not None
    sigma, tau = build_extended_pair(target)
    assert (sigma.area(), sigma.bounce()) == (21, 10)
    assert (tau.area(), tau.bounce()) == (10, 21)
    # a genuine extension: the pair lives outside both plain flip sides
    assert classify(sigma).kind == "neither"
    assert classify(tau).kind == "neither"
    assert gamma(sigma) == tau
    assert gamma_inverse(tau) == sigma


def test_extension_restricts_to_flip():
    for n in range(1, 7):
        for cert in iter_extended_certificates(n):
            if not cert.g_counts:
                sigma, tau = build_extended_pair(cert)
                assert gamma(sigma) == phi(sigma) == tau


def test_gamma_domain_violation_raises():
    bad = DyckPath.from_word("NNENENEENENE")
    with pytest.raises(NotInDomainError):
        gamma(bad)


def test_extended_pair_stacks_like_cell_by_cell_reference():
    for n in range(1, 10):
        for cert in iter_extended_certificates(n):
            lamp = conjugate(cert.partition)
            start = apply_bounce_map(lamp, cert.f_map)
            _, tau = build_extended_pair(cert)
            assert tau == reference_apply_area_map(lamp, cert.g_map, start)


def test_extended_pair_valid_exactly_on_enumerated_pairs():
    for n in range(1, 9):
        by_partition = {}
        for cert in iter_certificates(n):
            by_partition.setdefault(cert.partition, []).append(cert)
        valid = {
            (lam, fc.counts, gc.counts)
            for lam, certs in by_partition.items()
            for fc in certs
            for gc in by_partition[conjugate(lam)]
            if extended_pair_valid(lam, fc.count_map, gc.count_map)
        }
        enumerated = [
            (c.partition, c.f_counts, c.g_counts) for c in iter_extended_certificates(n)
        ]
        assert len(set(enumerated)) == len(enumerated)
        assert valid == set(enumerated)


def test_extended_pair_valid_rejects_invalid_inputs():
    assert extended_pair_valid((4, 1, 1), {(1, 1): 2}, {})
    assert not extended_pair_valid((1, 3), {}, {})  # not a partition
    # f at its bound 4 (its image is minimal), outside the index set, negative
    assert not extended_pair_valid((4, 1, 1), {(1, 1): 4}, {})
    assert not extended_pair_valid((4, 1, 1), {(2, 1): 1}, {})
    assert not extended_pair_valid((4, 1, 1), {(1, 1): -1}, {})
    # g above its bound, or negative
    assert not extended_pair_valid((4, 1, 1), {(1, 1): 2}, {(1, 1): 9})
    assert not extended_pair_valid((4, 1, 1), {(1, 1): 2}, {(1, 1): -1})
    assert not extended_pair_valid(WORKED_PARTITION, WORKED_MAP, {})  # image not minimal


# -- exhaustive claims, checked once by the oracle -------------------------------------

test_flip_round_trip_exhaustive = declared_range_test("flip-round-trip")
test_classify_matches_membership_exhaustive = declared_range_test("classify-consistency")
test_extended_round_trip_exhaustive = declared_range_test("extended-round-trip")
