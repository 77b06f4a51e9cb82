"""Partial operators on Dyck paths.

Every operator either returns a new DyckPath of the same semilength or the
absorbing element BOTTOM, and maps BOTTOM to BOTTOM.  Row/column indices
outside 1..n are usage errors (ValueError), kept distinct from the semantic
failure BOTTOM.

Each operator is one edit of the row starts x (x_r is the start of row r,
rows 1-based) and builds its result valid by construction: no call scans
a row-start tuple for validity.  The height of column c is
h_c = bisect_left(x, c), the number of rows that start left of c; bounce
points come from `paths._points`, which sweeps a path once and keeps
them on it.  Where a test on the input shows that the result would be
invalid, or that the input is no image, an operator returns BOTTOM
before it edits or builds a candidate; each refusal is argued exact
beside its test, and each edit that passes them argued valid.  `shift`
and `up` are the BOTTOM test and the index check, then a private core
on the row starts: `_shift_run`, the one shift rule, and `_up_edit`,
`up`'s edit or None.  Both inverses have one shape: a prelude they
share, `_image_at`, refuses where i >= m and where the input breaks the
image lemma (no image of `shift` or `up` at i has a row that starts at
column b_i + 1, since each moves every row at its own b_i, which is
b_i + 1 of the image, left and raises no row past b_i); then O(1)
refusals of their own, a candidate built unchecked, and one compare of
the forward core's row starts on the candidate, at the index already
checked, with the input's.  `_shift_run` maps a row-start tuple and its
bounce points to the row starts after one shift or None, and edits
neither; a boost is a sequence of such unit shifts, planned and applied
by `_boost_run`, and the flip's bounce map (`bijection._boost`) makes
one per count.  The bounce points these carry stay theirs: a path an
operator builds sweeps its own on its first read (`unshift` and `down`
read their candidate's as they verify it).

Cell operators:
  add_area_cell(p, r)      one cell to the left of the path in row r:
                           x_r -= 1
  remove_area_cell(p, r)   its inverse: x_r += 1
  add_column_cell(p, c)    one cell on top of column c: row h_c + 1 moves
                           from start c to c - 1
  remove_column_cell(p, c) its inverse: row h_c moves from c - 1 to c

Compound operators (i indexes bounce points):
  shift(p, i)         moves the i-th bounce point down one; area fixed,
                      bounce + 1; one `_shift_run`
  unshift(p, i)       exact inverse of shift
  bounce_boost(p, i, k)  k shifts raising bounce by exactly k, one
                      `_boost_run`
  up(p, i)            area - 1, bounce + 1 (region move at bounce corner i)
  down(p, i)          exact inverse of up
"""

from __future__ import annotations

from bisect import bisect_left

from .paths import _path, _points


class Bottom:
    """Absorbing failure element; falsy, compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "bottom"

    def __bool__(self):
        return False


BOTTOM = Bottom()


def is_bottom(value) -> bool:
    return value is BOTTOM


def _check_index(path, i, what):
    n = len(path._x)
    if type(i) is not int or i < 1 or i > n:
        raise ValueError(f"{what} {i!r} out of range 1..{n}")


def _check_amount(k):
    if type(k) is not int or k < 0:
        raise ValueError(f"boost amount {k!r} must be a nonnegative int")


def _image_at(path, i):
    """(x, b, c, nxt) for an inverse of `shift` or `up` at bounce index
    ``i``: the row starts x and bounce points b of ``path``, c = b_i and
    nxt = b_{i+1}.  None where no preimage exists: ``path`` is BOTTOM,
    i >= m, or ``path`` has a row at c + 1, which no image has (the image
    lemma).  Raises ValueError for an index out of range."""
    if path is BOTTOM:
        return None
    _check_index(path, i, "bounce index")
    x = path._x
    b = _points(path)
    if i >= len(b) - 1:
        return None
    c, nxt = b[i], b[i + 1]
    if nxt < len(x) and x[nxt] == c + 1:
        return None
    return x, b, c, nxt


# -- single-cell operators ------------------------------------------------


def add_area_cell(path, row):
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, row, "row")
    x = path.row_starts
    xr = x[row - 1] - 1
    if xr < 0 or (row >= 2 and x[row - 2] > xr):
        return BOTTOM
    return _path(x[: row - 1] + (xr,) + x[row:])


def remove_area_cell(path, row):
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, row, "row")
    x = path.row_starts
    xr = x[row - 1] + 1
    if xr > row - 1 or (row < path.n and x[row] < xr):
        return BOTTOM
    return _path(x[: row - 1] + (xr,) + x[row:])


def add_column_cell(path, col):
    """Row h_c + 1 moves from start c to c - 1; BOTTOM unless that row
    exists and starts at c."""
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, col, "column")
    x = path.row_starts
    k = bisect_left(x, col)  # 0-based index of row h_c + 1
    if k == path.n or x[k] != col:
        return BOTTOM
    return _path(x[:k] + (col - 1,) + x[k + 1 :])


def remove_column_cell(path, col):
    """Row k = h_c moves from start c - 1 to c; BOTTOM unless k >= c + 1
    and that row starts at c - 1."""
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, col, "column")
    x = path.row_starts
    k = bisect_left(x, col)
    if k < col + 1 or x[k - 1] != col - 1:
        return BOTTOM
    return _path(x[: k - 1] + (col,) + x[k:])


# -- shift family ----------------------------------------------------------


def shift(path, i):
    """Trade the cells of row b_i for cells of column b_i: one
    `_shift_run`.  BOTTOM when i >= m or the shift fails; otherwise area
    is unchanged, bounce grows by one, and only b_i moves (down by one)."""
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, i, "bounce index")
    b = _points(path)
    y = _shift_run(path._x, b, i) if i < len(b) - 1 else None
    return BOTTOM if y is None else _path(y)


def unshift(path, i):
    """Inverse of shift; BOTTOM when no valid preimage exists.

    With c = b_i, the preimage's i-th bounce point is c + 1 and the move
    count s = x_{c+1} - b_{i-1} is the east run leaving (b_{i-1}, c); s
    >= 1, as row c + 1 starts right of b_{i-1} (c = bisect_right(x,
    b_{i-1})).  The candidate sets row c + 1 to start b_{i-1} and gives
    rows b_{i+1} - s + 1 .. b_{i+1} start c + 1.  It is not built when
    s >= b_{i+1} - c: its first moved row would then be row c + 1 or
    lower and start above the diagonal.  Nor is it built for an input
    that no shift gives: one whose rows b_{i+1} - s + 1 .. b_{i+1} do not
    all start at c, or that `_image_at` refuses.  A candidate that is
    built is valid by construction, and its one test is shift's core,
    `_shift_run`, run forward at the index already checked and compared
    with the input's row starts.
    """
    seen = _image_at(path, i)
    if seen is None:
        return BOTTOM
    x, b, c, nxt = seen
    s = x[c] - b[i - 1]
    # The s moved rows t + 1 .. b_{i+1} start at c + 1 (they exist:
    # s <= x_{c+1} <= c < b_{i+1}), above the diagonal unless t > c.  When
    # t > c the candidate is valid: row c + 1 starts at b_{i-1} <= c, at
    # or right of x_c and left of x_{c+1}, so of row c + 2 moved or not;
    # every row up to b_{i+1} starts at or left of c, every row after it
    # right of c (b_{i+1} = bisect_right(x, c)).  `shift` leaves the s
    # rows it moves at c.
    t = nxt - s
    if t <= c or x[t] != c:
        return BOTTOM
    candidate = _path(x[:c] + (b[i - 1],) + x[c + 1 : t] + (c + 1,) * s + x[nxt:])
    # The candidate keeps the input's bounce points up to b_{i-1} (its row
    # c + 1 starts at b_{i-1}, right of b_{i-2}), and its b_i is
    # c + 1 <= t < n, so i is below its m.
    if _shift_run(candidate._x, _points(candidate), i) != x:
        return BOTTOM
    return candidate


def bounce_boost(path, i, k):
    """Raise bounce by exactly k via shifts at i, i+1, ...

    Against the bounce composition of the input, the block at i+j absorbs
    up to max(0, alpha_i - alpha_{i+j}) shift applications; the budget k is
    spent greedily left to right and the last block gets the remainder.
    BOTTOM if the budget exceeds the total capacity or any shift fails.
    k = 0 is the identity once i and k pass their checks; any other k is
    one `_boost_run`.
    """
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, i, "bounce index")
    _check_amount(k)
    if k == 0:
        return path
    x = _boost_run(path._x, list(_points(path)), i, k)
    return BOTTOM if x is None else _path(x)


def _boost_run(x, b, i, k):
    """The row starts after raising the bounce of row starts ``x`` by
    k >= 1 through shifts at i, i+1, ..., or None when the boost is
    BOTTOM.  ``b`` is a list of the bounce points of ``x``; it is lowered
    in place to follow the shifts, so it holds the bounce points of the
    result (callers drop it on None).

    The plan reads the bounce composition before the boost: the block at
    idx absorbs up to max(0, alpha_i - alpha_idx) shifts, spent greedily
    left to right.  A step of e shifts at idx is e unit `_shift_run`
    calls, each of which moves only b_idx, down by one.
    """
    length = len(b) - 1
    if i >= length:
        return None
    alpha_i = b[i] - b[i - 1]
    remaining = k
    plan = []
    for idx in range(i, length):
        take = min(max(0, alpha_i - (b[idx + 1] - b[idx])), remaining)
        if take:
            plan.append((idx, take))
            remaining -= take
            if remaining == 0:
                break
    if remaining > 0:
        return None
    for idx, e in plan:
        for _ in range(e):
            x = _shift_run(x, b, idx)
            if x is None:
                return None
            b[idx] -= 1
    return x


def _shift_run(x, b, i):
    """The row starts after one shift at bounce index i < m of the row
    starts ``x`` (a tuple) with bounce points ``b``, or None when the
    shift is BOTTOM; neither argument is edited.

    Let p = b_{i-1}, c = b_i and s the number of rows that start at c,
    rows lo + 1 .. b_{i+1} (c <= lo, as rows 1..c start left of c).  The
    shift moves those s rows one column left, to c - 1, and gives row c
    the start t = p + s.  It succeeds iff s >= 1, row c starts at p and
    t <= min(c - 1, x_{c+1}): then row c starts at or right of row c - 1
    (which starts at or left of p), at or left of row c + 1 and of the
    diagonal, and the moved rows keep their order, so the result is a
    path, with b_i = c - 1 its only moved bounce point.
    """
    p, c, nxt = b[i - 1], b[i], b[i + 1]
    lo = bisect_left(x, c)
    s = nxt - lo
    t = p + s
    if s < 1 or t > c - 1 or t > x[c] or x[c - 1] != p:
        return None
    return x[: c - 1] + (t,) + x[c:lo] + (c - 1,) * s + x[nxt:]


# -- up/down family ---------------------------------------------------------


def up(path, i):
    """Move the block above bounce corner i; area - 1, bounce + 1.

    Cuts columns b_{i-1}+1 .. b_{i-1}+u+1 down to height b_i - 1 (u is the
    gap between column b_i and the next bounce point) and re-adds the cut
    material, rotated, against column b_i in the rows just below b_{i+1}.
    The whole move is atomic: `_up_edit` refuses, from the input alone,
    every move whose final state would be invalid, so the edit it returns
    is the result.
    """
    if path is BOTTOM:
        return BOTTOM
    _check_index(path, i, "bounce index")
    edit = _up_edit(path, i)
    return BOTTOM if edit is None else _path(edit)


def _up_edit(path, i):
    """`up`'s edit of the row starts x of ``path`` at a bounce index ``i``
    already checked against its length, or None where `up` is BOTTOM.
    Each refusal comes before the edit, so an edit it returns is valid.
    It bisects x for the heights of columns b_{i-1}, b_i and cut and of
    the u columns that beta reads."""
    x = path._x
    b = _points(path)
    m = len(b) - 1
    if i > m:
        return None
    p, c = b[i - 1], b[i]
    if i >= 2 and bisect_left(x, p) == c:
        return None
    # Rows lo + 1 .. b_{i+1} start at c (none when i = m: lo = c = n).
    lo = bisect_left(x, c)
    u = 0 if i == m else b[i + 1] - lo
    cut = p + u + 1
    # Rows 1 .. b_i start at or left of b_{i-1} < cut, so the cut raises
    # rows b_i .. top = h(cut) to start at cut: row b_i ends above the
    # diagonal exactly when cut >= b_i (which holds when cut > n).
    if cut >= c:
        return None
    # Now cut < c, so top <= lo: the raised rows start at cut <= c - 1 and
    # lie below the beta rows.  Row lo + 1 + j loses beta_{j+1} =
    # h(cut - j) - c + 1 cells, to start at 2c - 1 - h(cut - j), which
    # rises with j and stays left of c, so of row b_{i+1} + 1.  So
    # the one row that can break is row lo + 1, at 2c - 1 - top: it must
    # start at or right of row lo, which starts at cut when top == lo.
    top = bisect_left(x, cut)
    if u and 2 * c - top - 1 < (cut if top == lo else x[lo - 1]):
        return None
    y = list(x)
    y[c - 1 : top] = [cut] * (top - c + 1)
    for j in range(u):
        y[lo + j] -= bisect_left(x, cut - j) - c + 1
    return tuple(y)


def down(path, i):
    """Inverse of up; BOTTOM when no valid preimage exists.

    Rebuilds the unique candidate preimage (un-extend the rows below
    b_{i+1}, restore the cut columns at the corner) and accepts it only
    when up's edit, `_up_edit`, maps it to the input's row starts, so
    up/down are mutually inverse by construction.  The candidate is not
    built for an input that no `up` gives: one that `_image_at` refuses,
    or whose rows c + 1 .. c + beta_1 (c = b_i) reach the rows below
    b_{i+1} or do not all start where row c + 1 does.  A candidate that
    is built is valid by construction (argued beside the build), so the
    forward compare is its one test.
    """
    seen = _image_at(path, i)
    if seen is None:
        return BOTTOM
    x, b, c, nxt = seen
    # u >= 0, as row c + 1 starts right of b_{i-1} (c = bisect_right(x,
    # b_{i-1})), and x_{c+1} <= c, as row c + 1 is at most b_{i+1}.
    u = x[c] - b[i - 1] - 1
    # `up` raised rows c + 1 .. c + beta_1 of its input to its cut x_{c+1},
    # left of its b_i = c + 1, so they lie below the beta rows lo + 1 .. nxt
    # (which started at c + 1) and start at x_{c+1}.
    lo = nxt - u
    top = c
    if u:
        top += c + 1 - x[lo]
        if top > lo or x[top - 1] != x[c]:
            return BOTTOM
    xp = list(x)
    xp[lo:nxt] = [c + 1] * u
    xp[c] = b[i - 1]
    # Row c + 1 + t starts at b_{i-1} + 1 plus the number of j with
    # beta_j = c + 1 - x_{lo+j} <= t, the beta rows that start at or right
    # of c + 1 - t (beta falls as j rises).
    for r in range(c + 2, top + 1):
        xp[r - 1] = b[i - 1] + 1 + nxt - bisect_left(x, 2 * c + 2 - r, lo, nxt)
    # The candidate is valid: row c + 1 starts at b_{i-1}, at or right of
    # x_c; rows c + 2 .. top at b_{i-1} + 1 plus a count that rises with
    # the row and is at most u, so at most x_{c+1} <= c; each unchanged row
    # past c + 1 and up to lo at or right of x_{c+1}; rows lo + 1 .. nxt at
    # c + 1, left of x_{nxt+1} > c.  Since lo >= top >= c + 1 when u > 0,
    # every row past c + 1 starts at or left of c + 1, below the diagonal.
    candidate = _path(tuple(xp))
    if _up_edit(candidate, i) != x:
        return BOTTOM
    return candidate


# -- existence scans ---------------------------------------------------------


def existence_scan_down(path, i):
    """Index j >= i with down(path, j) != BOTTOM, under the hypothesis
    that row b_i + 1 holds exactly b_i - b_{i-1} - 1 cells.

    Returns None when the hypothesis fails.  Forward scan: accept the
    first j with h(b_j + 2) == b_{j+1}, falling back to m - 1.  It reads
    one row start and bisects for the heights it tests.
    """
    if path is BOTTOM:
        return None
    _check_index(path, i, "bounce index")
    x = path._x
    b = _points(path)
    m = len(b) - 1
    if i > m - 1:
        return None
    # row b_i + 1 (b_i < n, as i < m) holds b_i - x_{b_i + 1} cells
    if x[b[i]] != b[i - 1] + 1:
        return None
    for j in range(i, m - 1):
        if bisect_left(x, b[j] + 2) == b[j + 1]:
            return j
    return m - 1


def existence_scan_up(path, i):
    """Index j <= i with up(path, j) != BOTTOM, under the hypothesis that
    column b_i is filled to height b_{i+1}.

    Returns None when the hypothesis fails.  Backward scan: accept the
    first j whose corner touches, falling back to 1.  It bisects for the
    heights it tests.
    """
    if path is BOTTOM:
        return None
    _check_index(path, i, "bounce index")
    x = path._x
    b = _points(path)
    m = len(b) - 1
    if i > m - 1:
        return None
    if bisect_left(x, b[i]) != b[i + 1]:
        return None
    for j in range(i, 0, -1):
        if j == 1 or bisect_left(x, b[j - 1]) < b[j]:
            return j
