import hashlib

import pytest
from hypothesis import given, settings

from dyckab import bijection
from dyckab import ops as ops_module
from dyckab import paths as paths_module
from dyckab.bijection import (
    apply_area_map,
    apply_bounce_map,
    iter_certificates,
    phi,
    phi_inverse,
)
from dyckab.paths import DyckPath, conjugate, enumerate_paths
from dyckab.ops import (
    BOTTOM,
    add_area_cell,
    add_column_cell,
    bounce_boost,
    down,
    existence_scan_down,
    existence_scan_up,
    is_bottom,
    remove_area_cell,
    remove_column_cell,
    shift,
    unshift,
    up,
)
from _checks import declared_range_test
from _strategies import dyck_paths


def blocks(n, alpha):
    return DyckPath.from_composition(n, alpha)


def w(word):
    return DyckPath.from_word(word)


def bounce_index_count(p):
    return len(p.bounce_points()) - 1


# -- reference: the operators one cell at a time on the height profile -------


def reference_add_column_cell(path, col):
    h = list(path.column_heights())
    if col == path.n or h[col - 1] + 1 > h[col]:
        return BOTTOM
    h[col - 1] += 1
    return DyckPath.from_column_heights(h)


def reference_remove_column_cell(path, col):
    h = list(path.column_heights())
    if h[col - 1] - 1 < col or (col >= 2 and h[col - 2] > h[col - 1] - 1):
        return BOTTOM
    h[col - 1] -= 1
    return DyckPath.from_column_heights(h)


def reference_shift(path, i):
    b = path.bounce_points()
    if i >= len(b) - 1:
        return BOTTOM
    h = path.column_heights()
    if i >= 2 and h[b[i - 1] - 1] == b[i]:
        return BOTTOM
    s = b[i + 1] - h[b[i] - 1]
    if s < 1:
        return BOTTOM
    cur = path
    for _ in range(s):
        cur = remove_area_cell(cur, b[i])
        if cur is BOTTOM:
            return BOTTOM
    for _ in range(s):
        cur = reference_add_column_cell(cur, b[i])
        if cur is BOTTOM:
            return BOTTOM
    return cur


def reference_unshift(path, i):
    b = path.bounce_points()
    if i > len(b) - 1:
        return BOTTOM
    c = b[i]
    if c + 1 > path.n:
        return BOTTOM
    x = path.row_starts
    run_lo = x[c - 1] if c >= 1 else 0
    run_hi = x[c] if c < path.n else path.n
    if not (run_lo <= b[i - 1] <= run_hi):
        return BOTTOM
    s = run_hi - b[i - 1]
    if s < 1:
        return BOTTOM
    cur = path
    for _ in range(s):
        cur = reference_remove_column_cell(cur, c + 1)
        if cur is BOTTOM:
            return BOTTOM
    for _ in range(s):
        cur = add_area_cell(cur, c + 1)
        if cur is BOTTOM:
            return BOTTOM
    if reference_shift(cur, i) != path:
        return BOTTOM
    return cur


def reference_bounce_boost(path, i, k):
    """The plan of bounce_boost carried out one shift call per unit."""
    if path is BOTTOM:
        return BOTTOM
    if k < 0:
        raise ValueError("boost amount must be nonnegative")
    if k == 0:
        return path
    alpha = path.bounce_composition()
    if i > len(alpha):
        return BOTTOM
    remaining = k
    plan = []
    for idx in range(i, len(alpha)):
        take = min(max(0, alpha[i - 1] - alpha[idx]), remaining)
        plan.append((idx, take))
        remaining -= take
    if remaining > 0:
        return BOTTOM
    cur = path
    for idx, e in plan:
        for _ in range(e):
            cur = shift(cur, idx)
            if cur is BOTTOM:
                return BOTTOM
    return cur


def boost_capacity(p, i):
    alpha = p.bounce_composition()
    if i > len(alpha):
        return 0
    return sum(max(0, alpha[i - 1] - a) for a in alpha[i:])


REFERENCE_PAIRS = (
    (add_column_cell, reference_add_column_cell),
    (remove_column_cell, reference_remove_column_cell),
    (shift, reference_shift),
    (unshift, reference_unshift),
)


def assert_matches_reference(p):
    for i in range(1, p.n + 1):
        for fn, reference in REFERENCE_PAIRS:
            assert fn(p, i) == reference(p, i), (fn.__name__, p.word, i)


# -- cell operators -----------------------------------------------------------


def test_add_area_cell():
    assert add_area_cell(w("NENE"), 2) == w("NNEE")


def test_add_area_cell_row_one_always_bottom():
    for p in enumerate_paths(4):
        assert add_area_cell(p, 1) is BOTTOM


def test_remove_area_cell():
    assert remove_area_cell(w("NNEE"), 2) == w("NENE")
    assert remove_area_cell(w("NENE"), 2) is BOTTOM


def test_add_column_cell():
    assert add_column_cell(w("NENE"), 1) == w("NNEE")


def test_add_column_cell_full_path_bottom():
    full = blocks(4, (4,))
    for col in range(1, 5):
        assert add_column_cell(full, col) is BOTTOM


def test_remove_column_cell():
    assert remove_column_cell(w("NNEE"), 1) == w("NENE")
    assert remove_column_cell(w("NENE"), 1) is BOTTOM


def test_out_of_range_is_usage_error_not_bottom():
    p = w("NNEE")
    for fn in (add_area_cell, remove_area_cell, add_column_cell, remove_column_cell):
        for bad in (0, 3, True):
            with pytest.raises(ValueError):
                fn(p, bad)
    for fn in (shift, unshift, up, down):
        for bad in (0, True):
            with pytest.raises(ValueError):
                fn(p, bad)


def test_cell_ops_invert_each_other_exhaustive():
    for p in enumerate_paths(5):
        for r in range(1, 6):
            q = add_area_cell(p, r)
            if q is not BOTTOM:
                assert q.area() == p.area() + 1
                assert remove_area_cell(q, r) == p
            q = add_column_cell(p, r)
            if q is not BOTTOM:
                assert q.area() == p.area() + 1
                assert remove_column_cell(q, r) == p


def test_row_start_edits_match_reference_exhaustive():
    for n in range(1, 10):
        for p in enumerate_paths(n):
            assert_matches_reference(p)


@given(dyck_paths(max_n=30))
@settings(max_examples=100, deadline=None)
def test_row_start_edits_match_reference_random(p):
    assert_matches_reference(p)


# -- shift ---------------------------------------------------------------------


def test_shift_swaps_adjacent_blocks():
    result = shift(blocks(5, (3, 2)), 1)
    assert result == blocks(5, (2, 3))
    assert result.area() == 4 and result.bounce() == 3


def test_shift_single_segment_bottom():
    for n in (1, 3, 6):
        assert shift(blocks(n, (n,)), 1) is BOTTOM


def test_shift_repeated_swaps_parts():
    # delta applications swap a larger part past the next smaller one
    for alpha, i in [((3, 1), 1), ((4, 2, 1), 1), ((4, 2, 1), 2), ((5, 2), 1)]:
        n = sum(alpha)
        delta = alpha[i - 1] - alpha[i]
        cur = blocks(n, alpha)
        for _ in range(delta):
            cur = shift(cur, i)
            assert cur is not BOTTOM
        swapped = list(alpha)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        assert cur == blocks(n, tuple(swapped))


def test_unshift_examples():
    assert unshift(blocks(5, (2, 3)), 1) == blocks(5, (3, 2))
    assert unshift(blocks(4, (4,)), 1) is BOTTOM


def reference_sweeps(x):
    """(bounce points, column heights) of row starts x, by counting rows:
    column c holds the rows that start left of c, and the bounce path
    leaving point b climbs through the rows that start at or left of b."""
    n = len(x)
    heights = tuple(sum(1 for xr in x if xr < c) for c in range(1, n + 1))
    pts = [0]
    while pts[-1] < n:
        pts.append(sum(1 for xr in x if xr <= pts[-1]))
    return tuple(pts), heights


def test_operators_leave_memoized_sweeps_intact():
    # each path keeps its bounce points in its slot; an operator editing
    # a copy in place must not reach them, nor change the column heights,
    # which are swept afresh
    boosts = [lambda p, i, k=k: bounce_boost(p, i, k) for k in range(4)]
    for n in range(1, 9):
        for p in enumerate_paths(n):
            want = reference_sweeps(p.row_starts)
            assert (p.bounce_points(), p.column_heights()) == want
            for i in range(1, n + 1):
                for op in [shift, unshift, up, down] + boosts:
                    op(p, i)
                    assert (p.bounce_points(), p.column_heights()) == want, (
                        p.word, i,
                    )


STATS = (
    DyckPath.area,
    DyckPath.bounce,
    DyckPath.bounce_points,
    DyckPath.bounce_composition,
    DyckPath.to_record,
    DyckPath.bounce_path,
)


def test_each_path_object_is_swept_at_most_once(monkeypatch):
    # a path keeps its bounce points in its slot from the first read on,
    # so no statistic, operator or inverse check sweeps one path twice
    swept = {}
    sweep = paths_module._sweep_bounce_points

    def counted(x):
        # keyed by the row-start tuple, which stays held so that its id
        # is not reused; no two paths here share one
        held, count = swept.get(id(x), (x, 0))
        swept[id(x)] = (held, count + 1)
        return sweep(x)

    monkeypatch.setattr(paths_module, "_sweep_bounce_points", counted)
    for n in range(1, 8):
        for p in enumerate_paths(n):
            for _ in range(2):
                for stat in STATS:
                    stat(p)
            for i in range(1, n + 1):
                for op in (shift, unshift, up, down):
                    q = op(p, i)
                    if q is not BOTTOM:
                        for _ in range(2):
                            for stat in STATS:
                                stat(q)
    counts = [count for _, count in swept.values()]
    assert counts and max(counts) == 1


def test_results_are_swept_never_seeded():
    # an edit carries bounce points along, but a path it returns takes
    # none of them: it sweeps its own on its first read, so a check of its
    # points against what the edit expected compares two routes.  unshift
    # and down return the candidate they verified through the forward
    # core, which swept it, so their slot holds the candidate's own sweep.
    for n in range(1, 8):
        for p in enumerate_paths(n):
            for i in range(1, n + 1):
                for q in [shift(p, i), up(p, i)] + [bounce_boost(p, i, k) for k in (1, 2, 3)]:
                    assert q is BOTTOM or q._pts is None, (p.word, i)
                for q in (unshift(p, i), down(p, i)):
                    assert q is BOTTOM or q._pts == reference_sweeps(q.row_starts)[0]
        for cert in iter_certificates(n):
            lam, f = cert.partition, cert.count_map
            area = apply_area_map(lam, f)
            image = apply_bounce_map(conjugate(lam), f)
            assert area._pts is None and image._pts is None, cert
            # a cold memo, so phi builds the image it returns
            bijection._memo_image.cache_clear()
            assert phi(area)._pts is None, cert
            assert phi_inverse(image)._pts is None, cert


# -- bounce boost -----------------------------------------------------------------


def test_boost_zero_is_identity():
    p = w("NNNEENENEENNEE")
    assert bounce_boost(p, 1, 0) == p


def test_boost_single_shift():
    assert bounce_boost(blocks(5, (3, 2)), 1, 1) == blocks(5, (2, 3))


def test_boost_block_decomposition():
    # gaps 2, 1, 2 after the first part: budget 4 spends 2, then 1, then 1
    p = blocks(11, (4, 2, 3, 2))
    expected = p
    for index, times in ((1, 2), (2, 1), (3, 1)):
        for _ in range(times):
            expected = shift(expected, index)
    got = bounce_boost(p, 1, 4)
    assert got == expected
    assert got.bounce() == p.bounce() + 4
    assert got.area() == p.area()


def test_boost_exhausts_budget_or_bottom():
    for n in range(2, 7):
        for p in enumerate_paths(n):
            for i in range(1, bounce_index_count(p) + 1):
                for k in range(0, 5):
                    q = bounce_boost(p, i, k)
                    if q is not BOTTOM:
                        assert q.bounce() == p.bounce() + k
                        assert q.area() == p.area()


def test_boost_matches_shift_loop_exhaustive():
    for n in range(1, 10):
        for p in enumerate_paths(n):
            for i in range(1, n + 1):
                for k in range(boost_capacity(p, i) + 2):
                    assert bounce_boost(p, i, k) == reference_bounce_boost(p, i, k), (
                        p.word, i, k,
                    )


@given(dyck_paths(max_n=30))
@settings(max_examples=200)
def test_boost_matches_shift_loop_random(p):
    for i in range(1, p.n + 1):
        for k in range(boost_capacity(p, i) + 2):
            assert bounce_boost(p, i, k) == reference_bounce_boost(p, i, k)


def test_boost_argument_errors():
    p = w("NNNEENENEENNEE")
    for k in (-1, 1.5, True, "1"):
        with pytest.raises(ValueError, match="nonnegative int"):
            bounce_boost(p, 1, k)
    for i in (0, p.n + 1, 99):
        for k in (0, 1):
            with pytest.raises(ValueError, match="out of range"):
                bounce_boost(p, i, k)


# -- up/down -----------------------------------------------------------------------


def test_up_example():
    result = up(blocks(5, (3, 1, 1)), 1)
    assert result == blocks(5, (2, 2, 1))
    assert result.bounce_points() == (0, 2, 4, 5)


def test_up_full_path_removes_corner_cell():
    # the lone class member must admit an up, per the no-up shape lemma
    for n in (2, 4, 6):
        full = blocks(n, (n,))
        assert up(full, 1) == remove_column_cell(full, 1)


def test_up_region_move_matches_operator_word():
    # column heights (7,7,8,8,8,8,8,11,11,11,11,14,14,14); bounce (0,7,11,14)
    p = DyckPath.from_column_heights(
        (7, 7, 8, 8, 8, 8, 8, 11, 11, 11, 11, 14, 14, 14)
    )
    assert p.bounce_points() == (0, 7, 11, 14)
    steps = p
    for col, times in ((1, 1), (2, 1), (3, 2), (4, 2)):
        for _ in range(times):
            steps = remove_column_cell(steps, col)
    for row, times in ((9, 2), (10, 2), (11, 1)):
        for _ in range(times):
            steps = add_area_cell(steps, row)
    assert up(p, 1) == steps
    # the second corner fails because column 11 cannot lose its top cell
    assert remove_column_cell(p, 11) is BOTTOM
    assert up(p, 2) is BOTTOM


def test_down_example():
    assert down(blocks(5, (2, 2, 1)), 1) == blocks(5, (3, 1, 1))


# Non-BOTTOM results over every path of semilength n = 1..10 and every
# i in 1..n.  A refusal made before the edit can only turn a result into
# BOTTOM, and `down`/`unshift` verify through `up`/`shift`, so a refusal
# that is too eager in either shows here even where the inverse-pair
# checks still hold.
OPERATOR_GRAPH_COUNTS = {
    up: [0, 1, 3, 11, 38, 136, 489, 1781, 6538, 24181],
    down: [0, 1, 3, 11, 38, 136, 489, 1781, 6538, 24181],
    shift: [0, 0, 1, 4, 16, 60, 224, 834, 3111, 11637],
    unshift: [0, 0, 1, 4, 16, 60, 224, 834, 3111, 11637],
}


def test_operator_graph_counts_exhaustive():
    counts = {op: [] for op in OPERATOR_GRAPH_COUNTS}
    for n in range(1, 11):
        paths = list(enumerate_paths(n))
        for op, found in counts.items():
            found.append(
                sum(op(p, i) is not BOTTOM for p in paths for i in range(1, n + 1))
            )
    assert counts == OPERATOR_GRAPH_COUNTS


# -- inverses against preimage maps ------------------------------------------------


def preimages(forward, paths):
    """{(forward(p, i), i): p} over ``paths`` and every i in 1..n,
    asserting that no two paths share an image at one i."""
    found = {}
    for p in paths:
        for i in range(1, p.n + 1):
            q = forward(p, i)
            if q is not BOTTOM:
                assert found.setdefault((q, i), p) == p, (forward.__name__, q.word, i)
    return found


def test_inverses_return_exactly_the_preimage_exhaustive():
    # the reference is built from the forward operators alone: each
    # inverse gives the preimage where one exists and BOTTOM elsewhere
    for n in range(1, 10):
        paths = list(enumerate_paths(n))
        for forward, inverse in ((shift, unshift), (up, down)):
            found = preimages(forward, paths)
            for q in paths:
                for i in range(1, n + 1):
                    assert inverse(q, i) == found.get((q, i), BOTTOM), (
                        inverse.__name__, q.word, i,
                    )


@given(dyck_paths(max_n=30))
@settings(max_examples=100, deadline=None)
def test_inverse_results_are_valid_preimages_random(q):
    # every operator builds its result unchecked, valid by construction:
    # every result must still pass the constructor's check; and the
    # inverses refuse before they build a candidate, so every forward image
    # must come back, past the exhaustive range too
    for i in range(1, q.n + 1):
        for forward, inverse in ((shift, unshift), (up, down)):
            p = inverse(q, i)
            if p is not BOTTOM:
                assert DyckPath(p.row_starts) == p
                assert forward(p, i) == q
            image = forward(q, i)
            if image is not BOTTOM:
                assert DyckPath(image.row_starts) == image
                assert inverse(image, i) == q, (forward.__name__, q.word, i)


def test_inverses_build_no_candidate_they_throw_away(monkeypatch):
    # `unshift` runs `_shift_run` and `down` runs `_up_edit` once per
    # candidate it builds; each refusal before the candidate is exact, and
    # together they leave no candidate to refuse after it over the n <= 9
    # paths.  Every edit `_up_edit` returns, on any path and index, is
    # valid, since `up` returns it unchecked.
    up_edit = ops_module._up_edit
    built = {unshift: 0, down: 0}
    for op, name in ((unshift, "_shift_run"), (down, "_up_edit")):
        core = getattr(ops_module, name)

        def counted(*args, op=op, core=core):
            built[op] += 1
            return core(*args)

        monkeypatch.setattr(ops_module, name, counted)
    kept = {unshift: 0, down: 0}
    edits = 0
    for n in range(1, 10):
        for q in enumerate_paths(n):
            for i in range(1, n + 1):
                for op in kept:
                    kept[op] += op(q, i) is not BOTTOM
                edit = up_edit(q, i)
                if edit is not None:
                    edits += 1
                    assert paths_module._row_starts_ok(edit)[0], (q.word, i)
    assert {op: built[op] - kept[op] for op in built} == {unshift: 0, down: 0}
    assert edits == sum(OPERATOR_GRAPH_COUNTS[up][:9])


def test_operator_calls_scan_no_row_starts(monkeypatch):
    # every compound operator builds its result valid by construction:
    # `ops` holds no validity scan, and no call reaches the constructor's
    scans = 0
    scan = paths_module._row_starts_ok

    def counted(x):
        nonlocal scans
        scans += 1
        return scan(x)

    assert not hasattr(ops_module, "_row_starts_ok")
    assert not hasattr(ops_module, "_checked")
    monkeypatch.setattr(paths_module, "_row_starts_ok", counted)
    for n in range(1, 8):
        for p in list(enumerate_paths(n)):
            for i in range(1, n + 1):
                for op in (shift, unshift, up, down):
                    op(p, i)
                    assert scans == 0, (op.__name__, p.word, i, scans)


def test_shift_and_every_boost_unit_go_through_one_shift_rule(monkeypatch):
    # shift is one call of the pure single-shift edit, and a boost of k is
    # k calls of it, one per unit, whatever its plan
    calls = 0
    rule = ops_module._shift_run

    def counted(x, b, i):
        nonlocal calls
        calls += 1
        return rule(x, b, i)

    monkeypatch.setattr(ops_module, "_shift_run", counted)
    for n in range(1, 8):
        for p in enumerate_paths(n):
            m = bounce_index_count(p)
            for i in range(1, n + 1):
                calls = 0
                shift(p, i)
                assert calls == (i < m), (p.word, i, calls)
                for k in range(boost_capacity(p, i) + 1):
                    calls = 0
                    if bounce_boost(p, i, k) is not BOTTOM:
                        assert calls == k, (p.word, i, k, calls)


# -- existence scans -----------------------------------------------------------------


def test_scan_down_skips_blocked_corners():
    p = w("NNENEENENE")
    assert down(p, 1) is BOTTOM
    assert down(p, 2) is BOTTOM
    assert existence_scan_down(p, 1) == 3
    assert down(p, 3) is not BOTTOM


def test_scan_up_immediate_case():
    # hypothesis holds at i and the corner touches: the scan returns i
    p = w("NNENEE")
    assert p.column_heights()[1] == p.bounce_points()[2]
    assert existence_scan_up(p, 1) == 1
    assert up(p, 1) == w("NENNEE")


@given(dyck_paths(max_n=30))
@settings(max_examples=200, deadline=None)
def test_scan_indices_admit_their_operator_random(p):
    # the paper's lemma: where a scan's hypothesis holds, the index it
    # returns admits its operator, so a refusal in `down` or `up` that is
    # too eager shows here, past the exhaustive range
    for i in range(1, p.n + 1):
        j = existence_scan_down(p, i)
        assert j is None or (j >= i and down(p, j) is not BOTTOM), (p.word, i, j)
        j = existence_scan_up(p, i)
        assert j is None or (j <= i and up(p, j) is not BOTTOM), (p.word, i, j)


# sha256 over the outcome lines of `scan_outcomes`, computed with the scans
# as they stood before they bisected for their heights
PINNED_SCAN_OUTCOMES = "c8684e19bbe7dfe155c338e79891775c75242c7bbb0c98aabd9142ef85b24eaa"


def scan_outcomes(max_n):
    """One line per scan call: the index, None, or the exception's type and
    message; both scans on every path with n <= max_n, at every i in
    0..n+1 and at True and 1.0."""
    for n in range(max_n + 1):
        for p in enumerate_paths(n):
            for i in [*range(n + 2), True, 1.0]:
                for scan in (existence_scan_down, existence_scan_up):
                    try:
                        yield repr(scan(p, i))
                    except Exception as exc:
                        yield f"{type(exc).__name__}: {exc}"


def test_scan_outcomes_are_pinned():
    digest = hashlib.sha256()
    for line in scan_outcomes(8):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SCAN_OUTCOMES


# -- pinned outcomes -----------------------------------------------------------------

# sha256 over the outcome lines of `operator_outcomes`, computed with the
# operators as they stood before their private cores and bisected heights
PINNED_OPERATOR_OUTCOMES = "4577607babc00077d89c66b692b69cd72dec197de23289785f47b6db81882898"


def operator_outcomes(max_n):
    """One line per operator call: the result's word, "bottom", or the
    exception's type and message.  shift, unshift, up, down and
    bounce_boost with k = 0, 1, 2, on every path with n <= max_n, at
    every i in 0..n+1 and at True and 1.0."""
    ops = [shift, unshift, up, down]
    ops += [lambda p, i, k=k: bounce_boost(p, i, k) for k in range(3)]
    for n in range(max_n + 1):
        for p in enumerate_paths(n):
            for i in [*range(n + 2), True, 1.0]:
                for op in ops:
                    try:
                        result = op(p, i)
                    except Exception as exc:
                        yield f"{type(exc).__name__}: {exc}"
                    else:
                        yield result.word if result is not BOTTOM else "bottom"


def test_operator_outcomes_are_pinned():
    # every later change to the operators must reproduce these outcomes
    # exactly, refusals and error messages included
    digest = hashlib.sha256()
    for line in operator_outcomes(8):
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_OPERATOR_OUTCOMES


# -- bottom handling -----------------------------------------------------------------


def test_bottom_is_falsy_singleton():
    assert not BOTTOM
    assert is_bottom(BOTTOM)
    assert repr(BOTTOM) == "bottom"
    assert not is_bottom(w("NE"))


# -- exhaustive claims, checked once by the oracle -------------------------------------

test_shift_unshift_exhaustive = declared_range_test("operator-deltas", "inverse-pairs")
test_up_down_exhaustive = declared_range_test("operator-deltas", "inverse-pairs")
test_scans_exhaustive = declared_range_test("existence-scans")
test_bottom_absorption = declared_range_test("bottom-absorption")
test_shift_preserves_area_random = declared_range_test("operator-deltas")
test_up_down_trade_one_unit_random = declared_range_test("operator-deltas", "inverse-pairs")
