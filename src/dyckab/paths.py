"""Dyck paths and their area/bounce statistics.

A Dyck path of semilength n runs from (0,0) to (n,n) in unit north (N) and
east (E) steps, staying weakly above the diagonal y = x.  Rows are indexed
1..n bottom to top, columns 1..n left to right.

Internally a path is stored as its tuple of row starts: row_starts[r-1] is
the number of E steps preceding the r-th N step.  A step word is a valid
Dyck word exactly when the row starts are weakly increasing with
row_starts[r-1] <= r-1.  Sorting paths by row starts coincides with
lexicographic order on words with N < E, which is the documented
enumeration order.

One enumerator, `_iter_runs`, walks that order one run at a time: the
paths that share their first n - rows rows and differ only in the rest.
It carries each prefix's area and bounce (see its docstring for the
equal-run invariant that makes this a scalar update), and its readers
run through the remaining rows themselves.  `enumerate_paths` yields
the path objects and `iter_area_bounce` their area and bounce alone.
Both take runs of one row, so their first path comes at once at any n.
The level table of `extremal.level_sets` takes runs of four rows and
appends each run from `_tail_levels`, the one tail lister: the tails of
those rows, grown as bytes a row at a time and grouped by one int that
says how far they move a prefix's level (what they take from the area
and add to the bounce), one bytes join per group.  `iter_area_bounce` and the level
table build neither a path object nor a row-start tuple per path.
`PathSequence` is how such a table hands its members out: a read-only
sequence over one bytes blob of row starts, n bytes per path, that
builds each path as it is read, so a table of 208,012 paths holds
2.5 MB of bytes, not one object per path.
A blob holds row starts up to 255, so a `PathSequence` holds paths of
semilength at most 256; the level tables stop at 12.
One unchecked builder, `_blocks`, gives the block path of a composition
to `from_composition`, `bounce_path` and the flip's layouts.

Bounce points are swept from the row starts once per path object:
`_points(path)` fills the path's `_pts` slot on its first read, as
`word` fills `_word`, and returns that tuple from then on, so no caller
can change it.  The `DyckPath` statistics and the operators in `ops`
read it; an operator call reads the points of one path several times
(its own check, the inverse it verifies, the statistics of its result),
and sweeps each path it reads once.  A path an edit builds never takes
the points the edit carried along: it sweeps itself on its first read,
so a check that compares its points with what the edit expected
compares two routes.  One-off reads of many row-start tuples, such as
the class index over a level table, call the sweep,
`_sweep_bounce_points`, directly; no memo is kept across paths.
Column heights are not kept: h_c = bisect_left(x, c), so an
operator bisects for the few heights it needs, and `column_heights`
sweeps all of them afresh.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate, repeat
from typing import Iterator


class DyckPath:
    """Immutable Dyck path of semilength n."""

    __slots__ = ("_x", "_word", "_pts")

    def __init__(self, row_starts):
        # plain ints only: a float or bool row start would equal and hash
        # as its int twin, so the two would be one path as a key
        x = _plain_ints(row_starts, "row start", "row")
        ok, pos = _row_starts_ok(x)
        if not ok:
            raise ValueError(f"invalid row starts {x!r} at row {pos}")
        self._x = x
        self._word = None
        self._pts = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_word(cls, word: str) -> "DyckPath":
        """Parse a step word over {N, E}, case and surrounding blanks
        ignored; the path keeps the normalized word as its `word`.

        Rejects unbalanced words and words dipping below the diagonal,
        reporting the 1-based position of the first offending step.
        """
        word = word.strip().upper()
        x = []
        easts = 0
        norths = 0
        for pos, c in enumerate(word, 1):
            if c == "N":
                norths += 1
                x.append(easts)
            elif c == "E":
                easts += 1
                if easts > norths:
                    raise ValueError(
                        f"path drops below the diagonal at position {pos}"
                    )
            else:
                raise ValueError(f"illegal step {c!r} at position {pos}")
        if norths != easts:
            raise ValueError(
                f"unbalanced word: {norths} N steps vs {easts} E steps"
            )
        # Valid row starts by the parse: x only grows, since the east
        # count never falls, and at the r-th N the r - 1 norths before it
        # bound the easts (the dip test above), so x_r <= r - 1.  Every
        # step parsed as N or E, so the word is the one x would rebuild.
        return _path(tuple(x), word)

    @classmethod
    def from_row_starts(cls, x) -> "DyckPath":
        return cls(x)

    @classmethod
    def from_area_sequence(cls, seq) -> "DyckPath":
        """Build the path whose r-th row holds seq[r-1] whole cells."""
        seq = _plain_ints(seq, "area", "row")
        x = tuple((r - 1) - a for r, a in enumerate(seq, 1))
        return cls(x)

    @classmethod
    def from_column_heights(cls, heights) -> "DyckPath":
        h = _plain_ints(heights, "height", "column")
        # row r starts after the columns lower than r
        path = cls(bisect_left(h, r) for r in range(1, len(h) + 1))
        if path.column_heights() != h:
            raise ValueError(f"{h!r} is not a weakly increasing height profile")
        return path

    @classmethod
    def from_composition(cls, n: int, alpha) -> "DyckPath":
        """The staircase-of-blocks path N^a1 E^a1 N^a2 E^a2 ...

        Its bounce path is itself; such paths are exactly the paths with
        no floating cells.
        """
        _semilength(n)
        alpha = _plain_ints(alpha, "part", "position")
        if any(a < 1 for a in alpha):
            raise ValueError(f"composition parts must be positive: {alpha!r}")
        if sum(alpha) != n:
            raise ValueError(f"composition {alpha!r} does not sum to {n}")
        return _path(_blocks(alpha))

    # -- basic accessors ----------------------------------------------

    @property
    def n(self) -> int:
        return len(self._x)

    @property
    def row_starts(self) -> tuple:
        return self._x

    @property
    def word(self) -> str:
        w = self._word
        if w is None:
            # the east runs before row 1, between rows and after row n
            x = self._x
            w = "N".join(["E" * (b - a) for a, b in zip((0,) + x, x + (len(x),))])
            self._word = w
        return w

    def __eq__(self, other):
        return isinstance(other, DyckPath) and self._x == other._x

    def __hash__(self):
        return hash(self._x)

    def __lt__(self, other):
        # row-starts order == word order with N < E
        if not isinstance(other, DyckPath):
            return NotImplemented
        return self._x < other._x

    def __le__(self, other):
        if not isinstance(other, DyckPath):
            return NotImplemented
        return self._x <= other._x

    def __repr__(self):
        return f"DyckPath({self.word!r})"

    # -- statistics ----------------------------------------------------

    def area_sequence(self) -> tuple:
        """Whole cells between the path and the diagonal, row by row."""
        return tuple((r - 1) - xr for r, xr in enumerate(self._x, 1))

    def area(self) -> int:
        x = self._x
        n = len(x)
        return (n * (n - 1)) // 2 - sum(x)

    def column_heights(self) -> tuple:
        """Cells below the path in each column: h[c-1] for column c, the
        number of rows that start left of c."""
        x = self._x
        return tuple([bisect_left(x, c) for c in range(1, len(x) + 1)])

    def bounce_points(self) -> tuple:
        """Diagonal touch heights (b_0=0, ..., b_m=n) of the bounce path."""
        return _points(self)

    def bounce_composition(self) -> tuple:
        return _composition(_points(self))

    def bounce(self) -> int:
        pts = _points(self)
        return len(self._x) * (len(pts) - 1) - sum(pts)

    def bounce_path(self) -> "DyckPath":
        return _path(_blocks(self.bounce_composition()))

    def ab(self) -> int:
        """area + bounce."""
        return self.area() + self.bounce()

    def is_minimal(self) -> bool:
        """True when the path equals its own bounce path (no floating cells):
        the rows of each block all start at the bounce point below it."""
        x = self._x
        b = 0
        while b < len(x):
            if x[b] != b:
                return False
            b = bisect_right(x, b)
        return True

    def floating_cells(self) -> list:
        """(row, column) of every cell between the path and its bounce path."""
        base = self.bounce_path()._x
        cells = []
        for r in range(1, self.n + 1):
            for c in range(self._x[r - 1] + 1, base[r - 1] + 1):
                cells.append((r, c))
        return cells

    def floating_cell_count(self) -> int:
        """The cells between the path and its bounce path, as area() less
        the sum of C(alpha_i, 2) over the bounce composition: each row
        starts at or left of the same row of the bounce path, whose area
        is that sum, so no bounce path is built."""
        return self.area() - sum([a * (a - 1) // 2 for a in self.bounce_composition()])

    def to_record(self) -> dict:
        """The shared JSON record for this path: the values of `area`,
        `bounce`, `bounce_composition`, `bounce_points`, `area_sequence`
        and `floating_cell_count`, derived from one read of the row starts
        and of the bounce points."""
        x = self._x
        n = len(x)
        pts = _points(self)
        alpha = _composition(pts)
        area = (n * (n - 1)) // 2 - sum(x)
        return {
            "n": n,
            "word": self.word,
            "area": area,
            "bounce": n * (len(pts) - 1) - sum(pts),
            "alpha": list(alpha),
            "bounce_points": list(pts),
            "area_seq": [r - xr for r, xr in enumerate(x)],
            "floating": area - sum([a * (a - 1) // 2 for a in alpha]),
        }


class PathSequence(Sequence):
    """Read-only sequence of paths of one semilength n <= 256, stored as
    one bytes blob of their row starts, n bytes per path.

    Each read builds the path afresh, so a large table holds one byte per
    row instead of one path object per member.  ``rows`` holds row-start
    tuples of valid paths, as the enumerator yields them; they are not
    checked as paths, but a row start outside 0..255 or rows of different
    lengths are refused with ValueError.  Compare contents with
    ``list(...)``: no ``__eq__`` is defined."""

    __slots__ = ("_blob", "_n", "_len")

    def __init__(self, rows):
        try:
            rows = [bytes(x) for x in rows]
        except ValueError:
            raise ValueError("row starts must lie in 0..255, one byte each") from None
        n = len(rows[0]) if rows else 0
        if any(len(x) != n for x in rows):
            raise ValueError("rows of different semilengths")
        self._blob = b"".join(rows)
        self._n = n
        self._len = len(rows)

    def _rows(self):
        """The members' row-start tuples, one at a time."""
        if self._n == 0:
            return repeat((), self._len)
        return zip(*[iter(self._blob)] * self._n)

    @property
    def row_starts(self) -> tuple:
        """The members' row-start tuples, in order."""
        return tuple(self._rows())

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        n, blob = self._n, self._blob
        # indexing a range bounds i, negative or not, exactly as a tuple would
        picked = range(self._len)[i]
        if isinstance(i, slice):
            return _packed(b"".join([blob[k * n : k * n + n] for k in picked]), n, len(picked))
        k = picked * n
        return _path(tuple(blob[k : k + n]))

    def __iter__(self):
        return map(_path, self._rows())

    def __repr__(self):
        return f"PathSequence({self._len} paths)"


def _packed(blob, n, count) -> PathSequence:
    """The sequence of the ``count`` paths of semilength ``n`` whose row
    starts ``blob`` (bytes) concatenates, already known to be valid."""
    seq = PathSequence.__new__(PathSequence)
    seq._blob = blob
    seq._n = n
    seq._len = count
    return seq


def _row_starts_ok(x):
    """(True, None) for valid row starts, else (False, first bad row)."""
    prev = 0
    for r, xr in enumerate(x, 1):
        if xr < prev or xr > r - 1:
            return False, r
        prev = xr
    return True, None


def _path(x, word=None) -> DyckPath:
    """The path with row starts ``x``, a tuple already known to be valid,
    and ``word``, its step word if known."""
    p = DyckPath.__new__(DyckPath)
    p._x = x
    p._word = word
    p._pts = None
    return p


def _plain_ints(values, what, at) -> tuple:
    """``values`` as a tuple, refused with ValueError naming the first
    entry that is not a plain int: a float or bool equals its int twin,
    and would build, count or key as that twin."""
    values = tuple(values)
    for k, v in enumerate(values, 1):
        if type(v) is not int:
            raise ValueError(f"{what} {v!r} at {at} {k} is not an int")
    return values


def _semilength(n) -> int:
    """``n``, refused with ValueError unless it is a plain int of at least
    0: a float or bool size equals its int twin, and would count, build or
    key as that twin.  Every entry that takes a semilength calls it."""
    if type(n) is not int:
        raise ValueError(f"semilength {n!r} is not an int")
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return n


# Keyed by each argument and its type: a float or bool twin (4.0, True) of a
# cached int misses, and the cached function's body refuses it.
_size_cache = lru_cache(maxsize=None, typed=True)


def _blocks(alpha) -> tuple:
    """Row starts of the block path N^a1 E^a1 N^a2 E^a2 ... of the
    composition ``alpha``, whose parts are known to be positive: the rows
    of each block start at the bounce point below it."""
    x = []
    for a in alpha:
        x += [len(x)] * a
    return tuple(x)


def _sweep_bounce_points(x) -> tuple:
    """Bounce points of the path with row starts ``x``, swept afresh: the
    one sweep, which `_points` runs once per path object and the class
    index of `extremal` runs on row starts read from a table.

    The bounce path leaving the diagonal at b_j climbs through every row
    that starts at or left of column b_j, so b_{j+1} = bisect_right(x, b_j).
    """
    n = len(x)
    pts = [0]
    b = 0
    while b < n:
        b = bisect_right(x, b)
        pts.append(b)
    return tuple(pts)


def _points(path) -> tuple:
    """The bounce points of ``path``, swept on the first read and kept in
    its ``_pts`` slot."""
    pts = path._pts
    if pts is None:
        pts = path._pts = _sweep_bounce_points(path._x)
    return pts


def _composition(pts) -> tuple:
    """The bounce composition read off bounce points ``pts``."""
    return tuple([b - a for a, b in zip(pts, pts[1:])])


# -- enumeration -------------------------------------------------------

def enumerate_paths(n: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength n in word order (N < E), each once."""
    for prefix, _, _, _ in _iter_runs(n):
        for v in range(prefix[-1], n):
            yield _path(prefix + (v,))
    if n < 2:
        yield _path((0,) * n)


def _iter_runs(n, rows=1):
    """(prefix, area, bounce, last) once per run of paths of semilength n,
    runs in lexicographic order; the one enumerator the library has.

    A run is the paths that share ``prefix``, the row starts of rows
    1..n-rows, for 1 <= rows < n.  ``area`` is C(n, 2) less the prefix's
    row starts, so a path of the run has ``area`` less the row starts of
    its tail; ``bounce`` is what the prefix rows add to the bounce, and
    ``last`` the last bounce point they open.  With rows = 1 the path v of a run starts the
    last row at v, for v in prefix[-1]..n-1, and has area ``area - v`` and
    bounce ``bounce + (v > last)``: row n opens the point n - 1, worth 1,
    when v exceeds ``last``.  The readers run through the tails
    themselves, as `_tail_levels` does for more rows.  For n < 2 the one
    path has no row before the last, so there is no run, and each reader
    yields that path itself.

    The prefix rows advance by successor: raise the last of them that is
    below its bound r - 1 by one, to v, and set every row above it to v.
    For each row prefix the enumerator keeps the row-start sum, the bounce
    so far and the last bounce point.  Row r opens the bounce point r - 1,
    worth n - r + 1 to the bounce, exactly when x_r exceeds the last point
    below it (b_{i+1} is the number of rows that start at or left of b_i).
    The equal-run invariant: rows that start alike open at most one point,
    at the first of them, since x_r <= r - 1.  So a successor that raises
    row r updates the carried values of rows r..n-rows by scalars,
    O(n - rows - r) work and no sweep.
    """
    if _semilength(n) < 2:
        return
    top = (n * (n - 1)) // 2
    m = n - rows
    x = [0] * m
    # sums[i], bounces[i], lasts[i]: the carried values of rows 1..i
    sums = [0] * (m + 1)
    bounces = [0] * (m + 1)
    lasts = [0] * (m + 1)
    while True:
        yield tuple(x), top - sums[m], bounces[m], lasts[m]
        j = m - 1
        while j > 0 and x[j] == j:
            j -= 1
        if j <= 0:
            return
        v = x[j] + 1
        k = m - j
        x[j:] = [v] * k
        s = sums[j]
        bounce = bounces[j]
        last = lasts[j]
        if v > last:
            bounce += n - j
            last = j
        sums[j + 1 :] = range(s + v, s + v * k + 1, v)
        bounces[j + 1 :] = [bounce] * k
        lasts[j + 1 :] = [last] * k


# _BYTE[v] is the one-byte bytes of v, for growing tails a row at a time.
_BYTE = tuple(bytes((v,)) for v in range(256))


def _tail_levels(n, m, p, last, stride) -> list:
    """The tails (row starts of rows m+1..n) that may follow a prefix of
    m rows whose row m starts at ``p`` and whose last bounce point is
    ``last``, grouped as (off, [b"", tail, tail, ...]) by the level they
    move the prefix by.

    A path made of the prefix and a tail has the prefix's area less
    ``drop``, the tail's row-start sum, and its bounce plus ``gain``, the
    worth of the points the tail's rows open.  A group carries them as one
    int, ``off = drop * stride - gain``: with ``stride`` above C(n, 2), a
    level (area, bounce) has the id ``area * stride + bounce``, and the
    prefix's level id less ``off`` is the path's.  Each tail is bytes,
    grown one byte per row from `_BYTE`, and the leading b"" makes
    ``head.join(parts)`` the paths of prefix ``head`` concatenated.  Groups
    follow the order of their first tail, and the tails inside a group
    stay in word order, so appending groups prefix by prefix keeps every
    level in word order and its keys in first-seen order.
    """
    # (tail bytes, its last row start, off, last point), in word order:
    # each row before the last extends every partial tail in order
    tails = [(b"", p, 0, last)]
    for r in range(m + 1, n):
        point = r - 1  # the bounce point row r opens, worth n - point
        worth = n - point
        grown = []
        for t, lo, off, lst in tails:
            # a row starting at or left of the last point opens none
            for v in range(lo, min(lst + 1, r)):
                grown.append((t + _BYTE[v], v, off + v * stride, lst))
            for v in range(max(lo, lst + 1), r):
                grown.append((t + _BYTE[v], v, off + v * stride - worth, point))
        tails = grown
    # the last row opens the point n - 1, worth 1, and its tails go
    # straight to their groups
    groups = {}
    for t, lo, off, lst in tails:
        for v in range(lo, n):
            groups.setdefault(off + v * stride - (v > lst), [b""]).append(t + _BYTE[v])
    return list(groups.items())


def iter_area_bounce(n: int) -> Iterator[tuple]:
    """(area, bounce) over all paths of semilength n in word order, read
    off the enumerator's carried values, without path objects.

    The brute-force oracle for the polynomial tables in `qbell`; the
    oracle's `word-round-trip` check compares it with the `DyckPath`
    methods path by path.
    """
    for prefix, area, bounce, last in _iter_runs(n):
        for v in range(prefix[-1], n):
            yield area - v, bounce + (v > last)
    if n < 2:
        yield 0, 0


def catalan(n: int) -> int:
    _semilength(n)
    return math.comb(2 * n, n) // (n + 1)


# -- compositions and partitions ----------------------------------------


def compositions(n: int) -> Iterator[tuple]:
    """All 2^(n-1) compositions of n, parts left to right."""
    if _semilength(n) == 0:
        yield ()
        return

    def rec(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in rec(m - first):
                yield (first,) + rest

    yield from rec(n)


def partitions(n: int) -> Iterator[tuple]:
    """All partitions of n, parts weakly decreasing."""
    _semilength(n)

    def rec(m, mx):
        if m == 0:
            yield ()
            return
        for k in range(min(m, mx), 0, -1):
            for rest in rec(m - k, k):
                yield (k,) + rest

    yield from rec(n, n)


def is_partition(parts) -> bool:
    """Weakly decreasing parts, each a plain int (not a bool or a float,
    which equal an int and would share its cached layout) of at least 1."""
    prev = None
    for p in parts:
        if type(p) is not int or p < 1 or (prev is not None and p > prev):
            return False
        prev = p
    return True


def conjugate(parts) -> tuple:
    """Transpose of the Young diagram; an involution.

    Entry i (1 <= i <= parts[0]) counts the parts >= i: one count per
    part size, then a suffix sum, in linear time.  On any tuple of ints,
    parts above parts[0] count as parts[0] and parts <= 0 are ignored; a
    part that is not a plain int is refused with ValueError.
    """
    parts = _plain_ints(parts, "part", "position")
    top = parts[0] if parts else 0
    if top < 1:
        return ()
    counts = [0] * top
    for p in parts:
        if p >= 1:
            counts[min(p, top) - 1] += 1
    return tuple(accumulate(reversed(counts)))[::-1]


def distinct_parts(parts) -> tuple:
    """The distinct part sizes, largest first."""
    out = []
    for p in parts:
        if not out or out[-1] != p:
            out.append(p)
    return tuple(out)


def multiplicity(parts, size: int) -> int:
    return sum(1 for p in parts if p == size)


# -- counting --------------------------------------------------------------


def count_paths_with_bounce_path(n: int, alpha) -> int:
    """Number of paths whose bounce path is the block path of alpha.

    Product over consecutive parts of C(a_{j-1} + a_j - 1, a_j); the
    one-part composition gives the empty product 1.
    """
    _semilength(n)
    alpha = _plain_ints(alpha, "part", "position")
    if sum(alpha) != n or any(a < 1 for a in alpha):
        raise ValueError(f"{alpha!r} is not a composition of {n}")
    out = 1
    for j in range(1, len(alpha)):
        out *= math.comb(alpha[j - 1] + alpha[j] - 1, alpha[j])
    return out
