"""Exact polynomial arithmetic: Gaussian binomials, the q-Bell numbers,
and the joint area/bounce distribution tables.

Univariate polynomials are tuples of arbitrary-precision integer
coefficients in the variable q, constant term first, no trailing zeros.
The empty tuple is the zero polynomial.

One kernel does the heavy arithmetic: Kronecker substitution.  A
polynomial is evaluated at q = 2**w, which packs its coefficients into
the w-bit digits of one integer; a product of polynomials is then a
single big-integer product, read back digit by digit, and exact as long
as no coefficient outgrows w bits.  `poly_mul` is this kernel for tuples.
`q_binomial` evaluates the Gaussian product formula at q = 2**w,
`q_bell` fills a q-Bell triangle (a q-analogue of Aitken's array) with
shifts and additions alone, at 2**w above Bell(n), the largest
coefficient it meets.  Each result is unpacked once, at the end.

Haglund's bounce formula has one loop, `_haglund`, over (remaining size,
first part), with t = 2**(w * (C(n,2) + 1)) so a whole (area, bounce)
table is one integer.  It takes its two steps as arguments.
`qt_catalan` multiplies by packed Gaussian binomials and adds, and
`_realized_pairs` runs it at q = 2 on support bitsets: it smears a
bitset over the degrees of each Gaussian and ORs, so a bit is set
exactly where a cell of the table is nonzero.  Enumerating paths
(`paths.iter_area_bounce`) serves only as the oracle for these tables.

The width function here drives everything downstream: width(n) is both the
degree of the q-Bell polynomial and the length of the interval of realized
area + bounce totals on paths of semilength n, so width(n) + 1 counts the
distinct totals as well as the nonzero q-Bell coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, reduce
from operator import or_
from typing import NamedTuple

from .paths import _plain_ints, _semilength, _size_cache, catalan


# Reference values for the distinct-total count at n = 0..19.
DISTINCT_AB_FIRST_TWENTY = (
    1, 1, 1, 2, 3, 5, 8, 11, 15, 20,
    26, 32, 39, 47, 56, 66, 76, 87, 99, 112,
)


def _pack(digits, nbytes: int) -> int:
    """The sum of digits[i] * 2**(8 * nbytes * i); each digit must lie in
    [0, 2**(8 * nbytes))."""
    return int.from_bytes(
        b"".join(d.to_bytes(nbytes, "little") for d in digits), "little"
    )


def _unpack(value: int, nbytes: int, count: int) -> list:
    """The first `count` digits of a nonnegative value in base
    2**(8 * nbytes), lowest first; inverse of `_pack`."""
    data = value.to_bytes(nbytes * count, "little")
    return [
        int.from_bytes(data[i : i + nbytes], "little")
        for i in range(0, len(data), nbytes)
    ]


def poly_mul(a, b) -> tuple:
    """Exact product for any integer coefficients, by one big-integer
    product.  Every input and product coefficient c has |c| < 2**(w-1) for
    the byte width w chosen here, so adding 2**(w-1) to each digit (the
    bias) makes them all nonnegative without carries; it is added on
    packing and removed on unpacking."""
    if not a or not b:
        return ()
    size = len(a) + len(b) - 1
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
    )
    nbytes = bits // 8 + 1
    half = 1 << (8 * nbytes - 1)
    half_digit = half.to_bytes(nbytes, "little")

    def bias(count):
        return int.from_bytes(half_digit * count, "little")

    packed = (
        (_pack([x + half for x in a], nbytes) - bias(len(a)))
        * (_pack([y + half for y in b], nbytes) - bias(len(b)))
    )
    out = [d - half for d in _unpack(packed + bias(size), nbytes, size)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(a, q):
    out = 0
    for c in reversed(a):
        out = out * q + c
    return out


def poly_to_string(a, var="q") -> str:
    if not a:
        return "0"
    terms = []
    for d, c in enumerate(a):
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        elif d == 1:
            terms.append(f"{var}" if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{d}" if c == 1 else f"{c}*{var}^{d}")
    return " + ".join(terms)


def _q_binomial_at(m: int, k: int, w: int) -> int:
    """[m choose k]_q at q = 2**w, for 0 <= k <= m: the exact quotient of
    prod (q**(m-k+i) - 1) by prod (q**i - 1) over i = 1..k, with k taken
    as the smaller of k and m - k."""
    k = min(k, m - k)
    num = den = 1
    for i in range(1, k + 1):
        num *= (1 << (w * (m - k + i))) - 1
        den *= (1 << (w * i)) - 1
    return num // den


@_size_cache
def q_binomial(m: int, k: int) -> tuple:
    """Gaussian polynomial, from the product formula evaluated at one
    power of two and read back by digits (coefficients never exceed
    C(m, k)).  k and m - k share one cache entry.  Out-of-range k gives
    the zero polynomial.  Degree is k(m - k) and every coefficient in
    between is positive.  An m or k that is not a plain int (4.0, True)
    misses the typed cache and is refused with ValueError."""
    _plain_ints((m, k), "argument", "position")
    if k < 0 or k > m:
        return ()
    if 2 * k > m:
        return q_binomial(m, m - k)
    nbytes = math.comb(m, k).bit_length() // 8 + 1
    value = _q_binomial_at(m, k, 8 * nbytes)
    return tuple(_unpack(value, nbytes, k * (m - k) + 1))


@_size_cache
def q_bell(n: int) -> tuple:
    """Johnson's q-analog of the Bell numbers, B_0 = 1 and

        B_n(q) = sum over k < n of [n-1 choose k]_q B_k(q),

    summed by a q-Bell triangle, the q-analogue of Aitken's array.  Let

        W(m, j) = sum over k of q**(j(m-k)) [m choose k]_q B_(k+j),

    so W(0, j) = B_j and W(m, 0) = B_(m+1).  The q-Pascal rule
    [m choose k] = [m-1 choose k] + q**(m-k) [m-1 choose k-1] splits
    W(m, j) into q**j W(m-1, j) and, with k - 1 for k, W(m-1, j+1):

        W(m, j) = q**j W(m-1, j) + W(m-1, j+1).

    The entries do not depend on n.  Diagonal d holds W(m, d-m) for
    m = 0..d; it opens with B_d, the last entry of diagonal d-1, and
    each further entry is one shift and one add of the diagonal before,
    so one list holds the diagonal, rewritten in place.  Diagonals 0..n-1
    end with B_n, after about n**2/2 shift-adds of integers packed at
    q = 2**w, w = 8 * (bits(Bell(n)) // 8 + 1), and B_n is read back
    once, every digit of it.  No digit carries: every coefficient of
    W(m, j) is nonnegative, and at q = 1 W(m, j) counts the set
    partitions of m+j+1 elements in which the last element's block avoids
    j fixed others, so each is at most Bell(m+j+1) <= Bell(n) < 2**w.
    The weight-1 specialization is the Bell number, and the nonzero
    coefficients sit in degrees 0..width(n) with no gaps."""
    nbytes = bell_number(n).bit_length() // 8 + 1
    w = 8 * nbytes
    diagonal = [1]  # diagonal 0: W(0, 0) = B_0
    for d in range(1, n):
        # Overwrite diagonal d-1 with diagonal d, left to right: carry
        # holds the old entry m-1 once its slot holds the new one.
        carry = diagonal[0]
        diagonal[0] = diagonal[-1]
        diagonal.append(0)
        for m in range(1, d + 1):
            carry, diagonal[m] = diagonal[m], (carry << (w * (d - m))) + diagonal[m - 1]
    value = diagonal[-1]
    return tuple(_unpack(value, nbytes, -(-value.bit_length() // w)))


def bell_number(n: int) -> int:
    """Classical Bell number by the binomial recursion; kept independent
    of q_bell as its cross-check."""
    _semilength(n)
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(math.comb(m - 1, k) * values[k] for k in range(m)))
    return values[n]


# The last table only: `ab_interval_width(n)` and `minimizing_composition(n)`
# ask for the same n in turn, and each build is quadratic in n, so one
# entry shares it without keeping a table per n.
@lru_cache(maxsize=1)
def _width_table(n: int) -> tuple:
    """(widths, leads) for m = 0..n, bottom-up: widths[m] is the max over
    splits m = k + rest of (k-1)(m-k) + widths[rest], and leads[m] the
    smallest k attaining it; n is checked by its callers."""
    widths = [0]
    leads = [0]
    for m in range(1, n + 1):
        values = [(k - 1) * (m - k) + widths[m - k] for k in range(1, m + 1)]
        best = max(values)
        widths.append(best)
        leads.append(values.index(best) + 1)
    return tuple(widths), tuple(leads)


@_size_cache
def ab_interval_width(n: int) -> int:
    """max over splits n = k + rest of (k-1)(n-k) + width(rest)."""
    return _width_table(_semilength(n))[0][n]


@_size_cache
def minimizing_composition(n: int) -> tuple:
    """A composition attaining ab_interval_width(n); smallest leading part
    on ties, so the result is deterministic."""
    leads = _width_table(_semilength(n))[1]
    parts = []
    while n:
        parts.append(leads[n])
        n -= leads[n]
    return tuple(parts)


def distinct_ab_count(n: int) -> int:
    """Number of distinct area + bounce totals on paths of semilength n;
    equals the nonzero coefficient count of the q-Bell polynomial."""
    return ab_interval_width(n) + 1


# -- bivariate tables ------------------------------------------------------


class BivariateTable(NamedTuple):
    """Dense square table of counts, rows indexed by area, columns by
    bounce, both 0..C(n,2).  A named tuple (n, rows): immutable, compared
    and hashed by its fields."""

    n: int
    rows: tuple  # tuple of tuples of ints

    @staticmethod
    def from_pairs(n: int, pairs) -> "BivariateTable":
        size = math.comb(n, 2) + 1
        grid = [[0] * size for _ in range(size)]
        for a, b in pairs:
            grid[a][b] += 1
        return BivariateTable(n, tuple(tuple(row) for row in grid))

    def at(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def total(self) -> int:
        return sum(map(sum, self.rows))

    def is_symmetric(self) -> bool:
        size = len(self.rows)
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(size)
            for j in range(i + 1, size)
        )

    def support_totals(self):
        """(min, max) of a + b over nonzero entries; None when empty."""
        totals = [
            i + j
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
            if v
        ]
        if not totals:
            return None
        return min(totals), max(totals)

    def to_csv(self) -> str:
        size = len(self.rows)
        lines = ["area\\bounce," + ",".join(str(j) for j in range(size))]
        for i, row in enumerate(self.rows):
            lines.append(f"{i}," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def _haglund(n: int, w: int, times, total) -> int:
    """Haglund's bounce formula (Adv. Math. 175, 2003) for semilength n,
    packed at q = 2**w and t = 2**(w * (C(n,2)+1)):

        C_n(q, t) = sum over compositions alpha of n of
                    q^(sum C(alpha_i, 2)) t^(sum (i-1) alpha_i)
                    prod_i [alpha_i + alpha_(i+1) - 1 choose alpha_(i+1)]_q,

    q marking area and t bounce.  G(m, a), the sum over compositions of m
    with first part a, satisfies G(a, a) = q^C(a,2) and

        G(m, a) = q^C(a,2) t^(m-a) sum_b [a+b-1 choose b]_q G(m-a, b),

    since prepending a part raises every later part's index by one.  The
    loop runs over (remaining size m, first part a); ``times(a, b, g)``
    stands for the product of g by [a+b-1 choose b]_q and ``total`` for
    the sum, so the caller picks the arithmetic.  No area exceeds C(n,2),
    so no power of q reaches the next power of t."""
    size = math.comb(n, 2) + 1
    # tails[m][a] = G(m, a) for 1 <= a <= m; index 0 is unused.
    tails = [[0]]
    for m in range(1, n + 1):
        row = [0]
        for a in range(1, m + 1):
            rest = m - a
            inner = total(
                times(a, b, tails[rest][b]) for b in range(1, rest + 1)
            ) if rest else 1
            row.append(inner << (w * (math.comb(a, 2) + size * rest)))
        tails.append(row)
    return total(tails[n][1:]) if n else 1


def qt_catalan(n: int) -> BivariateTable:
    """Joint distribution of (area, bounce) over all paths of semilength n,
    from Haglund's bounce formula (`_haglund`) with each G(m, a) one packed
    integer and each Gaussian factor packed at the same q = 2**w.  Every
    coefficient counts paths, so none exceeds Catalan(n) < 2**w and no
    digit carries.  The table is read back from the digits."""
    _semilength(n)
    size = math.comb(n, 2) + 1
    nbytes = catalan(n).bit_length() // 8 + 1
    w = 8 * nbytes
    gauss = {
        (a, b): _q_binomial_at(a + b - 1, b, w)
        for a in range(1, n + 1)
        for b in range(1, n - a + 1)
    }
    packed = _haglund(n, w, lambda a, b, g: gauss[a, b] * g, sum)
    digits = _unpack(packed, nbytes, size * size)
    by_bounce = [digits[j * size : (j + 1) * size] for j in range(size)]
    return BivariateTable(n, tuple(zip(*by_bounce)))


def _smear(bits: int, span: int) -> int:
    """The OR of bits << k over k = 0..span, by doubling: the shifts
    covered grow 1, 2, 4, ... until they reach span + 1."""
    covered = 1
    while covered <= span:
        step = min(covered, span + 1 - covered)
        bits |= bits << step
        covered += step
    return bits


def _realized_pairs(n: int) -> int:
    """The support of `qt_catalan(n)` as one bitset: bit
    bounce * (C(n,2)+1) + area is set when some path of semilength n has
    that area and bounce.  It is `_haglund` at q = 2 (w = 1) on support
    bitsets: every coefficient of [a+b-1 choose b]_q in degrees
    0..b(a-1) is positive, so a product is the smear over those shifts,
    and a sum of nonnegative terms is the OR."""
    return _haglund(n, 1, lambda a, b, g: _smear(g, b * (a - 1)), partial(reduce, or_))


def qt_flip_closure(n: int) -> BivariateTable:
    """Joint distribution over the union of both flip sides; symmetric by
    the flip bijection."""
    from .bijection import _certified

    union = {p for _, area, image in _certified(n) for p in (area, image)}
    return BivariateTable.from_pairs(n, ((p.area(), p.bounce()) for p in union))
