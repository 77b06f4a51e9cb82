"""Benchmark inputs and reference values, computed without dyckab.

Nothing here imports the library: the query stream and every value the
workloads compare against come from this file, so a defect in a layer
under test cannot also corrupt the answer it is checked against.
"""

from __future__ import annotations

import hashlib
import math
import random

# Seeds 1..10 are the default run set; claims are confirmed on 1001..1010,
# which were not used while the benchmark or a change was being tuned.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1001

# Workload sizes.  "full" is what the benchmark measures; "tiny" serves the
# self-test.  tables: (qt_catalan n, level n, q_bell n); queries: (queries
# per child, lowest and highest semilength); verify: the --n cap.  8000
# queries leave 80 samples beyond the 99th percentile of every child, and
# make the tail of one seed's stream differ little from another's.
SIZES = {
    "full": {"tables": (13, 12, 45), "queries": (8000, 12, 24), "verify": 10},
    "tiny": {"tables": (7, 6, 10), "queries": (60, 4, 7), "verify": 4},
}


def uniform_dyck_word(rng: random.Random, n: int) -> str:
    """A uniform random Dyck word of semilength n, by the cycle lemma.

    A shuffle of n N steps (+1) and n + 1 E steps (-1) sums to -1; exactly
    one of its 2n + 1 rotations keeps every proper prefix sum >= 0, namely
    the one that starts just after the first minimum of the prefix sums.
    Dropping that rotation's final E leaves a Dyck word, and every Dyck
    word arises from exactly 2n + 1 shuffles.
    """
    steps = ["N"] * n + ["E"] * (n + 1)
    rng.shuffle(steps)
    height = lowest = cut = 0
    for k, step in enumerate(steps, 1):
        height += 1 if step == "N" else -1
        if height < lowest:
            lowest, cut = height, k
    rotated = steps[cut:] + steps[:cut]
    return "".join(rotated[:-1])


def random_composition(rng: random.Random, n: int) -> tuple:
    """A uniform random composition of n: each of the n - 1 gaps between
    unit cells is a cut with probability 1/2."""
    parts = []
    run = 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(run)
            run = 1
        else:
            run += 1
    parts.append(run)
    return tuple(parts)


def block_word(parts) -> str:
    """The block path N^a1 E^a1 N^a2 E^a2 ... of a composition."""
    return "".join("N" * a + "E" * a for a in parts)


def query_words(seed: int, count: int, lo: int, hi: int) -> list:
    """The seeded query stream: even positions are uniform Dyck words, odd
    positions block words of uniform random compositions.  Each of the two
    kinds takes every semilength of lo..hi equally often (up to one), in
    shuffled order, so that the streams of all seeds carry the same mix of
    sizes, on which a query's cost mostly depends."""
    rng = random.Random(seed)

    def semilengths(m):
        ns = [lo + j % (hi - lo + 1) for j in range(m)]
        rng.shuffle(ns)
        return ns

    uniform_ns, block_ns = semilengths((count + 1) // 2), semilengths(count // 2)
    words = []
    for k in range(count):
        if k % 2 == 0:
            words.append(uniform_dyck_word(rng, uniform_ns[k // 2]))
        else:
            words.append(block_word(random_composition(rng, block_ns[k // 2])))
    return words


def digest(words) -> str:
    """sha256 of the inputs, one per line, so two runs can be shown to
    have received identical inputs."""
    return hashlib.sha256("\n".join(words).encode()).hexdigest()


# -- statistics from the step word -------------------------------------------


def area_bounce(word: str) -> tuple:
    """(area, bounce) of a Dyck word, straight from its steps.

    Area counts whole cells between the path and the diagonal row by row.
    Bounce follows the bounce path: from diagonal point b go north to the
    height of column b + 1, which is the number of N steps before the
    (b + 1)-th E step, and add n minus each point reached.
    """
    n = word.count("N")
    area = 0
    easts = 0
    rows = 0
    heights = []
    for step in word:
        if step == "N":
            area += rows - easts
            rows += 1
        else:
            easts += 1
            heights.append(rows)
    bounce = 0
    point = 0
    while point < n:
        point = heights[point]
        bounce += n - point
    return area, bounce


# -- closed forms and independent recurrences ----------------------------------


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def bell(n: int) -> int:
    """Bell number from the Bell (Aitken) triangle: each row starts with
    the last entry of the row above, each later entry adds its left
    neighbour and the entry above that neighbour."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def interval_width(n: int) -> int:
    """Width of the interval of area + bounce totals at semilength n:
    w(0) = 0, w(m) = max over first block k of (k - 1)(m - k) + w(m - k),
    filled bottom-up."""
    width = [0] * (n + 1)
    for m in range(1, n + 1):
        width[m] = max((k - 1) * (m - k) + width[m - k] for k in range(1, m + 1))
    return width[n]


# -- classify tallies ----------------------------------------------------------

CLASSIFY_KINDS = ("both", "area-side", "bounce-side", "neither")

# How many queries of each seed's stream fall in each classify kind, in
# the order of CLASSIFY_KINDS.  The queries workload fails queries when its
# tally differs, so a classify that puts members in the wrong flip set is
# caught from outside even where the flip round trip never runs.  Pinned
# for seeds 0..99 and the held-out 1001..1010 from the library as of the
# benchmark's first commit, whose test suite checks classify against the
# certificate enumeration by brute force; other seeds run without the
# tally.
CLASSIFY_TALLY = {
    "full": {
        0: (29, 1, 648, 7322), 1: (31, 4, 610, 7355), 2: (40, 2, 573, 7385), 3: (36, 2, 620, 7342),
        4: (35, 1, 611, 7353), 5: (34, 1, 672, 7293), 6: (41, 2, 626, 7331), 7: (36, 2, 679, 7283),
        8: (28, 1, 597, 7374), 9: (38, 3, 630, 7329), 10: (20, 4, 646, 7330), 11: (36, 1, 625, 7338),
        12: (30, 1, 650, 7319), 13: (38, 1, 653, 7308), 14: (32, 3, 602, 7363), 15: (28, 2, 644, 7326),
        16: (24, 2, 602, 7372), 17: (27, 1, 644, 7328), 18: (39, 2, 604, 7355), 19: (30, 1, 637, 7332),
        20: (29, 2, 609, 7360), 21: (30, 5, 645, 7320), 22: (33, 1, 612, 7354), 23: (32, 0, 594, 7374),
        24: (30, 1, 635, 7334), 25: (39, 0, 638, 7323), 26: (38, 2, 619, 7341), 27: (28, 1, 595, 7376),
        28: (45, 2, 619, 7334), 29: (29, 1, 651, 7319), 30: (29, 2, 621, 7348), 31: (31, 2, 621, 7346),
        32: (28, 2, 646, 7324), 33: (36, 3, 613, 7348), 34: (33, 3, 598, 7366), 35: (34, 1, 603, 7362),
        36: (32, 5, 649, 7314), 37: (38, 3, 601, 7358), 38: (34, 1, 632, 7333), 39: (32, 2, 618, 7348),
        40: (37, 1, 655, 7307), 41: (37, 1, 633, 7329), 42: (40, 2, 610, 7348), 43: (34, 2, 620, 7344),
        44: (40, 1, 596, 7363), 45: (32, 4, 648, 7316), 46: (31, 0, 639, 7330), 47: (31, 2, 633, 7334),
        48: (34, 1, 637, 7328), 49: (32, 6, 611, 7351), 50: (29, 2, 599, 7370), 51: (34, 3, 607, 7356),
        52: (30, 3, 634, 7333), 53: (34, 5, 613, 7348), 54: (28, 2, 623, 7347), 55: (17, 3, 622, 7358),
        56: (38, 2, 629, 7331), 57: (33, 3, 643, 7321), 58: (27, 1, 658, 7314), 59: (38, 2, 655, 7305),
        60: (33, 2, 673, 7292), 61: (34, 2, 612, 7352), 62: (33, 0, 626, 7341), 63: (21, 3, 618, 7358),
        64: (34, 2, 613, 7351), 65: (34, 4, 633, 7329), 66: (33, 2, 660, 7305), 67: (25, 1, 620, 7354),
        68: (36, 2, 631, 7331), 69: (31, 4, 657, 7308), 70: (34, 2, 648, 7316), 71: (26, 0, 653, 7321),
        72: (32, 1, 616, 7351), 73: (36, 1, 608, 7355), 74: (32, 1, 643, 7324), 75: (33, 0, 626, 7341),
        76: (28, 4, 623, 7345), 77: (37, 1, 640, 7322), 78: (25, 1, 689, 7285), 79: (47, 0, 615, 7338),
        80: (36, 1, 627, 7336), 81: (39, 2, 657, 7302), 82: (32, 3, 586, 7379), 83: (38, 2, 610, 7350),
        84: (31, 2, 603, 7364), 85: (41, 2, 618, 7339), 86: (34, 0, 651, 7315), 87: (43, 1, 613, 7343),
        88: (33, 2, 661, 7304), 89: (36, 1, 619, 7344), 90: (34, 1, 599, 7366), 91: (38, 4, 627, 7331),
        92: (27, 2, 600, 7371), 93: (28, 2, 632, 7338), 94: (21, 2, 649, 7328), 95: (37, 3, 679, 7281),
        96: (27, 4, 611, 7358), 97: (35, 2, 637, 7326), 98: (33, 2, 625, 7340), 99: (34, 0, 624, 7342),
        1001: (44, 1, 581, 7374), 1002: (37, 2, 633, 7328), 1003: (35, 3, 618, 7344), 1004: (29, 2, 637, 7332),
        1005: (31, 1, 692, 7276), 1006: (35, 3, 621, 7341), 1007: (32, 2, 672, 7294), 1008: (33, 1, 592, 7374),
        1009: (36, 2, 670, 7292), 1010: (35, 2, 631, 7332),
    },
    "tiny": {1: (13, 2, 20, 25)},
}
