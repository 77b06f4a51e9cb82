"""Extremal paths for a fixed area + bounce total.

Within one level (all paths sharing s = area + bounce) the bounce-minimal
paths are those of least bounce and the area-minimal those of least area.
The flip map restricts to a bijection between the two sets.  Walking one
trade at a time (down: area + 1 / bounce - 1, up: the reverse) through
path classes realizes every intermediate split of s, which settles which
(area, bounce) pairs are populated.

Two tables hold the levels.  `ab_level_map`, s -> the realized (area,
bounce) keys of level s, reads Haglund's recurrence (`qbell`) and
enumerates nothing, up to _LEVEL_MAP_CAP; what needs only the keys
reads it (the level-end tests `is_bounce_minimal` and `is_area_minimal`,
`nonemptiness_symmetry`, `bounce_interval_conjecture`).  What needs the
paths reads the exhaustive table `level_sets`, capped at
ENUMERATION_CAP.  It is filled from runs of paths that share all but
their last TAIL_ROWS rows, each run one bytes join per group of tails
that land on one level; during the build a level is one int, its id
``area * stride + bounce``, and becomes an (area, bounce) key once at
the end.  The minimal sets are the level ends: the first key of a level
(by area) is area-minimal, the last bounce-minimal.  The shape
conditions the theory attaches to them are kept as separate predicates
and compared in the verification suite.  Both are necessary but not
sufficient: the area-side one admits a non-minimal path at n = 6, the
bounce-side one from n = 13 on.  Classes (shared area and bounce path)
come from one index over the levels, `_class_index`.

The cached tables are read-only: `level_sets`, `ab_level_map`,
`_class_index` and the walk witnesses `_witnesses` return mapping
proxies, whose values are tuples of keys, `paths.PathSequence`s or
frozen paths.  A sequence stores the row starts of its members as one
bytes blob, n bytes per path, and builds each path object as it is read,
so a level table holds no path object and no row-start tuple of its own:
`level_sets(12)` keeps 208,012 paths in 2.5 MB of bytes.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import lru_cache
from types import MappingProxyType

from .paths import (
    DyckPath,
    PathSequence,
    _composition,
    _iter_runs,
    _packed,
    _path,
    _plain_ints,
    _semilength,
    _size_cache,
    _sweep_bounce_points,
    _tail_levels,
)
from .ops import BOTTOM, add_column_cell, down, up
from .bijection import phi, phi_inverse
from .qbell import _realized_pairs, ab_interval_width, minimizing_composition

# Largest n `level_sets`, and so everything that reads it, accepts.  The
# table keeps the row starts of every path, one byte each: n = 12 (208,012
# paths) takes about 0.028 s of CPU in process, and 0.083 s with a peak RSS
# of 18 MB for a whole fresh process with its start-up (medians of 7 fresh
# processes, 2-core Xeon, Python 3.11).  Each further n holds about 3.5
# times as many paths (Catalan numbers), and n = 11 to 12 took 2.3 times
# the CPU.
ENUMERATION_CAP = 12

# Largest n `ab_level_map` accepts.  The map keeps one key per realized
# pair, and the pairs grow about as n**4: n = 40 (265,787 pairs) takes
# 0.23 s of CPU with a peak of 50 MB for a whole fresh process, and n = 50
# (669,074 pairs) 0.94 s and 125 MB (2-core Xeon, Python 3.11).
_LEVEL_MAP_CAP = 40

# Rows of each path that `level_sets` appends from a memoized tail table
# rather than steps through the enumerator.  At n = 12 (CPU of the build
# in a fresh process, medians of 9 alternated runs, 2-core Xeon, Python
# 3.11) three rows took 0.033 s, four 0.028, five 0.032 and six 0.045.
# More rows mean fewer runs but many more tails to list and join.
TAIL_ROWS = 4


@_size_cache
def level_sets(n: int) -> MappingProxyType:
    """Read-only (area, bounce) -> `PathSequence` of the paths at that
    pair, in word order, for n <= ENUMERATION_CAP.  Each level is one
    bytes blob of row starts; members are built as they are read.  The
    blobs are filled from runs of the enumerator (`paths._iter_runs`), the
    paths that share all but their last TAIL_ROWS rows.  The tails of a
    run depend only on where its last prefix row starts and on its last
    bounce point, so `paths._tail_levels` lists them once per such pair
    for the call, grouped by one int per group; each group is one
    ``head.join`` onto its level, with no tuple per path.  During the
    build a level is its id ``area * stride + bounce``, with ``stride`` =
    C(n, 2) + 1 above any bounce, and its bytes sit at that index of a
    list of stride**2 slots, None until first seen.  A group of tails that
    takes ``drop`` from the area and adds ``gain`` to the bounce lands at
    the run's id less ``drop * stride - gain``.  At the end the seen ids
    become (area, bounce) keys in first-seen order, each slot freed as
    its level is packed.

    The keys are the enumerator's carried stats, while the rest of this
    module reads the `DyckPath` methods; the first path of each enumerated
    level is checked against the methods, so the two routes cannot drift
    apart.  Below n = 2 no path is enumerated and none is checked."""
    if _semilength(n) > ENUMERATION_CAP:
        raise ValueError(
            f"semilength {n} is above {ENUMERATION_CAP}, the largest the "
            "level table enumerates (ENUMERATION_CAP)"
        )
    if n < 2:
        return MappingProxyType({(0, 0): PathSequence([(0,) * n])})
    stride = n * (n - 1) // 2 + 1  # above any bounce, so a level id decodes
    blobs = [None] * (stride * stride)  # level id -> its bytes, once seen
    seen = []  # the level ids in first-seen order
    rows = min(TAIL_ROWS, n - 1)
    tails = {}  # (prefix[-1], last) -> the _tail_levels of such a prefix
    # one bytes object per tail across all lasts: 15,414 tails are 1,261
    # distinct at n = 12, and sharing them cuts what the memo holds by a third
    shared = {}
    for prefix, area, bounce, last in _iter_runs(n, rows):
        groups = tails.get((prefix[-1], last))
        if groups is None:
            groups = tails[prefix[-1], last] = _tail_levels(
                n, n - rows, prefix[-1], last, stride
            )
            for _, parts in groups:
                parts[:] = [shared.setdefault(t, t) for t in parts]
        head = bytes(prefix)
        base = area * stride + bounce
        for off, parts in groups:
            blob = blobs[base - off]
            if blob is None:
                blob = blobs[base - off] = bytearray()
                seen.append(base - off)
            blob += head.join(parts)
    out = {}
    for level in seen:
        # one level's bytes at a time, so the table is never held twice
        blob = bytes(blobs[level])
        blobs[level] = None
        key = divmod(level, stride)
        first = _path(tuple(blob[:n]))
        if (first.area(), first.bounce()) != key:
            raise AssertionError(f"level {key} holds {first.word}, whose methods disagree")
        out[key] = _packed(blob, n, len(blob) // n)
    return MappingProxyType(out)


@_size_cache
def ab_level_map(n: int) -> MappingProxyType:
    """Read-only s -> sorted tuple of realized (area, bounce) with
    area + bounce = s, largest s first, for n <= _LEVEL_MAP_CAP.  No path
    is enumerated: the pairs are the set bits of `qbell._realized_pairs`,
    bit bounce * (C(n,2)+1) + area, read a byte at a time."""
    if _semilength(n) > _LEVEL_MAP_CAP:
        raise ValueError(
            f"semilength {n} is above {_LEVEL_MAP_CAP}, the largest the level map accepts"
        )
    size = math.comb(n, 2) + 1
    bits = _realized_pairs(n)
    out = defaultdict(list)
    for i, byte in enumerate(bits.to_bytes((bits.bit_length() + 7) // 8, "little")):
        while byte:  # each set bit, lowest first
            bounce, area = divmod(8 * i + (byte & -byte).bit_length() - 1, size)
            out[area + bounce].append((area, bounce))
            byte &= byte - 1
    return MappingProxyType({s: tuple(sorted(out[s])) for s in sorted(out, reverse=True)})


@lru_cache(maxsize=None)
def _class_index(n: int) -> MappingProxyType:
    """Read-only (area, bounce composition) -> `PathSequence` of the class
    members in word order, split out of the levels (a class lies inside
    one level).  Members are grouped by their bounce points, each swept
    once from the member's slice of the level's blob, with no path object
    built; each class is the join of its slices."""
    out = {}
    for (area, _), members in level_sets(n).items():
        blob = members._blob
        by_points = defaultdict(list)
        for k in range(len(members)):
            x = blob[k * n : (k + 1) * n]
            by_points[_sweep_bounce_points(x)].append(x)
        for pts, rows in by_points.items():
            out[(area, _composition(pts))] = _packed(b"".join(rows), n, len(rows))
    return MappingProxyType(out)


def equivalence_class(path):
    """Paths sharing the area and the bounce path of ``path``, in word
    order, from `_class_index`; n above ENUMERATION_CAP is refused."""
    return iter(_class_index(path.n)[(path.area(), path.bounce_composition())])


def min_ab(n: int) -> int:
    return math.comb(_semilength(n), 2) - ab_interval_width(n)


def max_ab(n: int) -> int:
    return math.comb(_semilength(n), 2)


# -- minimal sets ------------------------------------------------------------


def bounce_minimal(n: int) -> list:
    """Paths of least bounce within their level, in word order."""
    return _level_ends(n, -1)


def area_minimal(n: int) -> list:
    """Paths of least area within their level, in word order."""
    return _level_ends(n, 0)


def is_bounce_minimal(path) -> bool:
    return _is_level_end(path, -1)


def is_area_minimal(path) -> bool:
    return _is_level_end(path, 0)


def _level_ends(n: int, end: int) -> list:
    """The paths of key ``end`` (0 or -1) of every level, in word order."""
    lv = level_sets(n)
    return sorted(p for keys in ab_level_map(n).values() for p in lv[keys[end]])


def _is_level_end(path, end: int) -> bool:
    key = (path.area(), path.bounce())
    return ab_level_map(path.n)[sum(key)][end] == key


def satisfies_bounce_minimal_conditions(path) -> bool:
    """Strict-partition bounce composition, floating cells at most one
    below the smallest consecutive-part gap.  Necessary for
    bounce-minimality, not sufficient: it selects exactly
    `bounce_minimal(n)` for n <= 12 (the verification suite checks
    n <= 9), but admits the non-minimal block path of (7, 3, 2, 1) at
    n = 13."""
    alpha = path.bounce_composition()
    if any(alpha[i] <= alpha[i + 1] for i in range(len(alpha) - 1)):
        return False
    if len(alpha) >= 2:
        slack = min(alpha[i] - alpha[i + 1] - 1 for i in range(len(alpha) - 1))
        if path.floating_cell_count() > slack:
            return False
    return True


def satisfies_area_minimal_conditions(path) -> bool:
    """No floating cells, gapless steps ending in a part 1, and no strictly
    increasing triple of parts.  Necessary for area-minimality, not
    sufficient."""
    alpha = path.bounce_composition()
    if not path.is_minimal():
        return False
    if alpha[-1] != 1:
        return False
    if any(abs(alpha[i] - alpha[i + 1]) > 1 for i in range(len(alpha) - 1)):
        return False
    ln = len(alpha)
    for i in range(ln):
        for j in range(i + 1, ln):
            if alpha[i] < alpha[j]:
                if any(alpha[k] > alpha[j] for k in range(j + 1, ln)):
                    return False
    return True


def phi_on_minimal(n: int) -> list:
    """The flip pairing of bounce-minimal against area-minimal paths."""
    return [(p, phi(p)) for p in bounce_minimal(n)]


# -- constructing a representative at (a, b) ---------------------------------


def _first_class_step(path, operator):
    """First class member (word order) and bounce index admitting the
    operator; None when the whole class refuses."""
    for member in equivalence_class(path):
        for j in range(1, len(member.bounce_points())):
            result = operator(member, j)
            if result is not BOTTOM:
                return result
    return None


@lru_cache(maxsize=None)
def _witnesses(n: int, s: int) -> MappingProxyType:
    """(area, bounce) -> witness, read-only, for every pair two walks
    through level s reach.  Down moves (area + 1) start at the first
    area-minimal path of the level and go on while area < bounce; up
    moves (bounce + 1) start at its flip preimage, a bounce-minimal path,
    and go on while area >= bounce.  Each walk stops early where a whole
    class refuses."""
    start = level_sets(n)[ab_level_map(n)[s][0]][0]
    found = {}
    cur = start
    while cur is not None and cur.area() < cur.bounce():
        found[(cur.area(), cur.bounce())] = cur
        cur = _first_class_step(cur, down)
    cur = phi_inverse(start)
    while cur is not None and cur.area() >= cur.bounce():
        found[(cur.area(), cur.bounce())] = cur
        cur = _first_class_step(cur, up)
    return MappingProxyType(found)


def construct_path(n: int, a: int, b: int):
    """A member of P_n(a, b), or None when no path has these statistics
    or the walks through level a + b (see `_witnesses`) do not reach
    (a, b).  An a or b that is not a plain int is refused with
    ValueError, and n above ENUMERATION_CAP by the level table."""
    _semilength(n)
    _plain_ints((a, b), "statistic", "position")
    if a < 0 or b < 0 or (a, b) not in level_sets(n):
        return None
    return _witnesses(n, a + b).get((a, b))


# -- reports -------------------------------------------------------------------


def nonemptiness_symmetry(n: int) -> dict:
    """Check that (a, b) is realized exactly when (b, a) is."""
    realized = {key for keys in ab_level_map(n).values() for key in keys}
    failures = [key for key in realized if (key[1], key[0]) not in realized]
    return {
        "n": n,
        "symmetric": not failures,
        "levels": len(realized),
        "failures": failures,
    }


def interpolation_report(n: int) -> dict:
    """For every bounce-minimal path with stats (a, b), the whole segment
    (a - i, b + i), 0 <= i <= a - b, is realized."""
    realized = set(level_sets(n))
    failures = []
    for p in bounce_minimal(n):
        a, b = p.area(), p.bounce()
        for i in range(0, a - b + 1):
            if (a - i, b + i) not in realized:
                failures.append({"word": p.word, "a": a - i, "b": b + i})
    return {"n": n, "holds": not failures, "failures": failures}


def bounce_interval_conjecture(n: int) -> dict:
    """Empirical check only, not a theorem: within each level the realized
    bounce values fill [b_min, s - b_min] with no holes."""
    failures = []
    for s, keys in ab_level_map(n).items():
        bmin = keys[-1][1]
        have = {b for (_, b) in keys}
        want = set(range(bmin, s - bmin + 1))
        if have != want:
            failures.append({"s": s, "missing": sorted(want - have)})
    return {"n": n, "holds": not failures, "failures": failures}


def top_levels(n: int) -> dict:
    """Structure of the two largest levels: the top one holds one path per
    split of C(n, 2); every realized split one below is unique."""
    s = max_ab(n)
    lv = level_sets(n)
    top_keys = ab_level_map(n).get(s, ())
    second_keys = ab_level_map(n).get(s - 1, ())
    top_expected = [(s - i, i) for i in range(s + 1)]
    return {
        "n": n,
        "max_ab": s,
        "min_ab": min_ab(n),
        "observed_min_ab": min(ab_level_map(n)) if ab_level_map(n) else None,
        "top_count": sum(len(lv[k]) for k in top_keys),
        "top_expected": s + 1,
        "top_full_split": sorted(top_keys) == sorted(top_expected),
        "top_singletons": all(len(lv[k]) == 1 for k in top_keys),
        "second_count": sum(len(lv[k]) for k in second_keys),
        "second_singletons": all(len(lv[k]) == 1 for k in second_keys),
    }


def ab_ladder(n: int, x: int) -> DyckPath:
    """A path with area + bounce exactly x.

    Starts at the block path minimizing area + bounce and repeatedly adds
    a cell to the rightmost column that accepts one; each addition raises
    the total by one or leaves it unchanged, so every value in
    [min_ab(n), C(n, 2)] is hit."""
    lo, hi = min_ab(n), max_ab(n)
    if not lo <= x <= hi:
        raise ValueError(f"no path of semilength {n} has area+bounce {x}")
    cur = DyckPath.from_composition(n, minimizing_composition(n))
    while cur.ab() < x:
        heights = cur.column_heights()
        col = None
        for c in range(n - 1, 0, -1):
            if heights[c - 1] + 1 <= heights[c]:
                col = c
                break
        if col is None:
            raise AssertionError("ladder stuck below target")
        cur = add_column_cell(cur, col)
        assert cur is not BOTTOM
    return cur
