"""The area-bounce exchanging bijection and its two-stage extension.

For a partition lam of n there are two index sets: bounce indices (i, r)
naming movable bounce points of the block path of lam, and row indices
naming rows where area cells can be stacked.  A count map assigns a
nonnegative integer to each index.  The same count map f, read through the
row map of lam on one side and through the bounce map of the conjugate
lam' on the other, produces a pair of paths whose area and bounce
statistics are exchanged.  Two edits of a start path build every side:
`_stack` stacks area cells in rows, `_boost` boosts bounce points.  Each
builds one path; `_boost` makes one `ops._boost_run`, a sequence of unit
shifts, per count, carrying one list copied from the start path's bounce
points (`paths._points`, swept once per path object), so it sweeps none;
the path it builds takes none of that list, and sweeps its own points on
its first read.  Both, like every decode, read one cached layout per
partition (`_layout`): its conjugate, block widths, index -> bounce point
and index -> row tables, and its block path.  The public helpers that
take a lam (the index sets, the two maps and the two `apply_*_map`s)
refuse with ValueError any lam that `is_partition` rejects, before they
read a layout: a part 5.0 or True equals an int as a cache key, and
would otherwise read its int twin's layout once that is cached.

A certificate (lam, f) is valid when f is supported on the bounce index
set of lam', each block of values is weakly decreasing and strictly
bounded by the matching distinct part of lam, and the bounce-side image is
a minimal path.  One rule, `_rule`, checks all of this and returns that
image (None when the pair is no certificate); `is_certificate` and
`extended_pair_valid` run it uncached on the caller's map.  Only the two
flip decoders read its memo of 256 images (`_memo_image`), keyed by the
certificate they decode, so a flip round trip (`classify`, the map, the
inverse on its image) builds its image once.  They build their count
maps from row starts, dicts from pairs of plain ints to plain ints, so
the key is exact: the rule reads such a map only through its nonzero
entries, in sorted order.  The flip map sends the area-side path of a
certificate to its bounce-side path, which the area-side decode already
built; `classify` decides membership of an arbitrary path and returns
certificates.

`classify`, `phi` and `phi_inverse` decode each side of a path once per
round trip: they share one cache entry (`_decodes`), keyed by the last
path handed to any of them, which a miss fills with the decodes of both
sides from one read of the path's bounce composition.  So `classify(p)`
then `phi(p)` or `phi_inverse(p)` decodes p once per side, while the
inverse on the image decodes that fresh path against the rule again, so
a round-trip check still compares two routes.  The bound is one entry,
since a round trip reads one path at a time, so memory stays O(1).

The bounce-side decode refuses a minimal path before it builds lam and
its layouts when the path's count map breaks the rule's bound clause,
which it reads off the sorted bounce composition (`_breaks_bound`): the
rule refuses exactly those maps at that clause, before any image, and
stays the last word on every other map.  The certificates of one n are
built once, as an immutable stream of (certificate, area-side path,
bounce-side path) that `iter_certificates`, `flip_sets`, the extended
pairing and `qbell.qt_flip_closure` read (`_certified`).

The extended flip composes both directions: area cells via f on top of
bounce moves via g (and vice versa), for pairs of certificates whose
touched row ranges do not interfere.  The pairing, its decode and the
two-stage flip reuse the bounce-side images of f and g from the rule.

`Certificate`, `Classification` and `ExtendedCertificate` are named
tuples, like every record of the package: immutable (assignment raises
AttributeError), compared and hashed by their fields, and, being tuples,
also equal to the plain tuple of their fields, iterable and indexable.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from typing import NamedTuple

from .paths import (
    DyckPath,
    conjugate,
    distinct_parts,
    is_partition,
    partitions,
    _blocks,
    _path,
    _plain_ints,
    _points,
    _row_starts_ok,
    _size_cache,
)
from .ops import BOTTOM, _boost_run, _check_amount


class NotInDomainError(ValueError):
    """Raised when a path is fed to a flip map it does not belong to."""


class Certificate(NamedTuple):
    """A valid (partition, count map) pair; count map stored canonically."""

    partition: tuple
    counts: tuple  # sorted ((i, r, v)) triples, v > 0

    @staticmethod
    def make(partition, count_map) -> "Certificate":
        items = tuple(
            (i, r, v) for (i, r), v in sorted(count_map.items()) if v
        )
        return Certificate(tuple(partition), items)

    @property
    def count_map(self) -> dict:
        return {(i, r): v for (i, r, v) in self.counts}

    @property
    def total(self) -> int:
        return sum(v for (_, _, v) in self.counts)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.partition),
            "f": [[i, r, v] for (i, r, v) in self.counts],
        }


# -- per-partition layout ---------------------------------------------------


class _Layout(NamedTuple):
    """What the maps of one lam read, built once per lam.  Block i of the
    bounce index set is (i, 1 .. widths[i-1]), at bounce points tops[i-1],
    tops[i-1] - 1, ...; block i of the row index set is (i, 1 .. bounds[i]),
    at rows offsets[i-1] + 1, ...."""

    conjugate: tuple
    bounds: tuple  # distinct parts, largest first
    widths: tuple  # multiplicity of the (i+1)-th smallest distinct part
    tops: tuple
    offsets: tuple
    block: DyckPath  # block path of lam


# Bounded, since callers may meet any number of partitions (about 0.4 KB
# each); 1,024 holds every partition of n <= 16.  The 8,000 random paths
# at n = 12..24 of the benchmark's seed 1, each classified and round
# tripped through the flip, reach 888 partitions: only certificates and
# area-side candidates build a layout, since the bounce-side decode
# refuses most count maps before it builds lam (`_breaks_bound`).  A miss
# costs about 10 us for partitions of 12..24 (2-core Xeon, Python 3.11):
# one Counter for the multiplicities, a linear conjugate and the block
# path.
@lru_cache(maxsize=1024)
def _layout(lam: tuple) -> _Layout:
    bar = distinct_parts(lam)
    counts = Counter(lam)
    sizes = [counts[p] for p in bar]
    tops = tuple(reversed(list(accumulate(sizes))[:-1]))
    offsets = tuple(accumulate(m * p for m, p in zip(sizes[:-1], bar)))
    widths = tuple(reversed(sizes[:-1]))
    return _Layout(conjugate(lam), bar, widths, tops, offsets, _path(_blocks(lam)))


def _point(layout, lam, i, r) -> int:
    """bounce_map(lam, i, r) read off the layout of lam."""
    widths = layout.widths
    if (
        type(i) is int
        and type(r) is int
        and 1 <= i <= len(widths)
        and 1 <= r <= widths[i - 1]
    ):
        return layout.tops[i - 1] + 1 - r
    raise ValueError(f"({i}, {r}) outside the bounce index set of {lam!r}")


def _row(layout, lam, i, r) -> int:
    """row_map(lam, i, r) read off the layout of lam."""
    bounds = layout.bounds
    if (
        type(i) is int
        and type(r) is int
        and 1 <= i < len(bounds)
        and 1 <= r <= bounds[i]
    ):
        return layout.offsets[i - 1] + r
    raise ValueError(f"({i}, {r}) outside the row index set of {lam!r}")


def _partition(lam) -> tuple:
    """``lam`` as a tuple, refused with ValueError unless `is_partition`
    holds, so a float or bool part never reads the layout of its int twin."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam!r} is not a partition")
    return lam


# -- index sets and maps ---------------------------------------------------


def bounce_index_set(lam) -> list:
    """(i, r) with 1 <= i <= l-1 and r up to the multiplicity of the
    (i+1)-th smallest distinct part (l = number of distinct parts)."""
    widths = _layout(_partition(lam)).widths
    return [(i, r) for i, width in enumerate(widths, 1) for r in range(1, width + 1)]


def row_index_set(lam) -> list:
    """(i, r) with 1 <= i <= l-1 and r up to the (i+1)-th distinct part."""
    bar = _layout(_partition(lam)).bounds
    return [(i, r) for i in range(1, len(bar)) for r in range(1, bar[i] + 1)]


def bounce_map(lam, i, r) -> int:
    """Bounce-point index of the r-th last part of the (i+1)-th smallest
    distinct size in the block path of lam."""
    lam = _partition(lam)
    return _point(_layout(lam), lam, i, r)


def row_map(lam, i, r) -> int:
    """Row r of the first block of the (i+1)-th distinct size in the block
    path of lam."""
    lam = _partition(lam)
    return _row(_layout(lam), lam, i, r)


# -- the two operator bundles ----------------------------------------------


def _checked(x):
    """The path with row starts ``x``, or BOTTOM when they are invalid."""
    x = tuple(x)
    return _path(x) if _row_starts_ok(x)[0] else BOTTOM


def _stack(path, lam, count_map):
    """Stack count_map(i, r) cells in row row_map(lam, i, r) of ``path``.

    Each count, a nonnegative plain int, is subtracted from that row's
    start; the result is checked once.  Stacking cell by cell in ascending
    rows gives the same answer, since each added cell is checked only
    against the row below it.
    """
    if path is BOTTOM:
        return BOTTOM
    layout = _layout(lam)
    x = list(path.row_starts)
    for (i, r), v in count_map.items():
        row = _row(layout, lam, i, r)
        if type(v) is not int or v < 0:
            raise ValueError(f"count {v!r} at ({i}, {r}) must be a nonnegative int")
        x[row - 1] -= v
    return _checked(x)


def _boost(path, lam, count_map):
    """Boost bounce point bounce_map(lam, i, r) of ``path`` by
    count_map(i, r), indices ordered by i then r: the chain of
    `ops.bounce_boost` calls, as one `_boost_run` per nonzero count with
    one list of bounce points carried along."""
    if path is BOTTOM:
        return BOTTOM
    layout = _layout(lam)
    x = path.row_starts
    b = list(_points(path))
    for (i, r) in sorted(count_map):
        k = count_map[(i, r)]
        _check_amount(k)  # a zero too: 0.0 and False equal 0
        if k:
            x = _boost_run(x, b, _point(layout, lam, i, r), k)
            if x is None:
                return BOTTOM
    return _path(x)


def apply_area_map(lam, count_map):
    """Stack count_map(i, r) cells in row row_map(lam, i, r) of the block
    path of lam."""
    lam = _partition(lam)
    return _stack(_layout(lam).block, lam, count_map)


def apply_bounce_map(lam, count_map):
    """Boost bounce point bounce_map(lam, i, r) by count_map(i, r), indices
    ordered by i then r, starting from the block path of lam."""
    lam = _partition(lam)
    return _boost(_layout(lam).block, lam, count_map)


# -- certificates -----------------------------------------------------------


# Bounded, since callers may decode any number of pairs (about 0.7 KB an
# entry at n = 12..24: the key, the image and its row starts; 0.18 MB
# full).  A flip round trip decodes one pair twice: `classify` and the map
# share their decodes of the path (`_decodes`), and the inverse decodes
# the image afresh.  So it needs its entry for one more call only: the
# benchmark's 8,000 seed 1 queries build 682 images here, 678 with no
# bound and 1,483 uncached (2,041 when each call decoded the path
# afresh).  256 also keeps repeats across the checks of `verify --suite
# all --n 10`, which builds 4,592 images here, 5,438 at 64 entries and
# 8,170 uncached.  The value is an immutable path or None.
@lru_cache(maxsize=256)
def _memo_image(cert: Certificate):
    """`_rule` on the count map whose canonical certificate is ``cert``,
    for the two flip decoders, which build such maps of plain ints only."""
    return _rule(cert.partition, cert.count_map)


def _rule(lam, count_map):
    """The certificate rule, uncached, on a lam already known to be a
    partition: count_map must be supported on the bounce index set of
    lam', with nonnegative values, weakly decreasing in each block and the
    first below the matching distinct part of lam; the image, built once,
    must be a minimal path."""
    if any(v < 0 for v in count_map.values()):
        return None
    layout = _layout(lam)
    lamp = layout.conjugate
    support = 0
    for i, (width, bound) in enumerate(zip(_layout(lamp).widths, layout.bounds), 1):
        values = [count_map.get((i, r), 0) for r in range(1, width + 1)]
        if values[0] >= bound or any(u < v for u, v in zip(values, values[1:])):
            return None
        support += sum(1 for v in values if v)
    # every nonzero value sits on the bounce index set of lam'
    if support != sum(1 for v in count_map.values() if v):
        return None
    return _minimal_image(lamp, count_map)


def _minimal_image(lamp, count_map):
    """The rule's last clause: apply_bounce_map(lamp, count_map) when it
    is a minimal path, else None."""
    image = apply_bounce_map(lamp, count_map)
    return image if image is not BOTTOM and image.is_minimal() else None


def is_certificate(lam, count_map) -> bool:
    """Membership test for the certificate set of n = |lam|; a count that
    is not a plain int is refused with ValueError."""
    lam = tuple(lam)
    _plain_ints(count_map.values(), "count", "entry")
    return is_partition(lam) and _rule(lam, count_map) is not None


@_size_cache
def _certified(n: int) -> tuple:
    """(certificate, area-side path, bounce-side path) for every
    certificate with |lam| = n, built once per n: partitions of n, then
    per block the weakly decreasing values below its bound, largest first,
    earlier blocks outermost.  These maps meet the rule's bounds by
    construction, so only the image is checked, by `_minimal_image`
    directly: the stream is cached per n, and passing it through the
    rule's memo would only evict the entries of round trips."""
    out = []
    for lam in partitions(n):
        layout = _layout(lam)
        lamp = layout.conjugate
        blocks = [
            combinations_with_replacement(range(bound - 1, -1, -1), width)
            for width, bound in zip(_layout(lamp).widths, layout.bounds)
        ]
        for values in product(*blocks):
            f = {
                (i, r): v
                for i, block in enumerate(values, 1)
                for r, v in enumerate(block, 1)
                if v
            }
            image = _minimal_image(lamp, f)
            if image is not None:
                area = _stack(layout.block, lam, f)
                out.append((Certificate.make(lam, f), area, image))
    return tuple(out)


def iter_certificates(n: int):
    """All valid certificates (lam, f) with |lam| = n, one Certificate each.

    Iterates partitions of n, then count maps within the stated bounds,
    keeping those whose bounce-side image is a minimal path.
    """
    for cert, _, _ in _certified(n):
        yield cert


def flip_sets(n: int):
    """(area side, bounce side) of the flip map as path -> Certificate maps,
    fresh dicts on every call."""
    stream = _certified(n)
    return (
        {area: cert for cert, area, _ in stream},
        {image: cert for cert, _, image in stream},
    )


# -- classification -----------------------------------------------------------


class Classification(NamedTuple):
    """The certificates of a path on each side of the flip, None where it
    is no member."""

    area_certificate: Certificate | None
    bounce_certificate: Certificate | None

    @property
    def kind(self) -> str:
        if self.area_certificate is not None and self.bounce_certificate is not None:
            return "both"
        if self.area_certificate is not None:
            return "area-side"
        if self.bounce_certificate is not None:
            return "bounce-side"
        return "neither"


def _decode_area_side(path, lam):
    """(certificate, bounce-side image), or None; ``lam`` is the path's
    bounce composition.

    Bounce composition must be a partition lam; floating cells must sit
    exactly in the rows named by the bounce index set of lam', with
    per-row counts forming a valid certificate.  The counts are the path's
    area sequence minus that of the block path of lam, so stacking them
    on the block path rebuilds the path.
    """
    if not is_partition(lam):
        return None
    layout = _layout(lam)
    base, x = layout.block.row_starts, path.row_starts
    if any(u < v for u, v in zip(base, x)):
        return None
    f = {}
    named = 0
    for i, width in enumerate(_layout(layout.conjugate).widths, 1):
        start = layout.offsets[i - 1]
        for r in range(1, width + 1):
            extra = base[start + r - 1] - x[start + r - 1]
            if extra:
                f[(i, r)] = extra
                named += extra
    if named != sum(base) - sum(x):  # a floating cell outside the named rows
        return None
    cert = Certificate.make(lam, f)
    image = _memo_image(cert)
    return None if image is None else (cert, image)


def _shortfall_counts(alpha, bar) -> dict:
    """The bounce-side count map of the composition ``alpha``, whose
    distinct part sizes, largest first, are ``bar``: block i holds the
    parts of the (i+1)-th smallest size, numbered r = 1, 2, ... from the
    right, and the part at position j gets sum(max(0, size - alpha_k)
    for k < j), the shortfall of the parts left of it (zeros omitted).
    One left-to-right pass per size keeps that sum running."""
    l = len(bar)
    f = {}
    for i in range(1, l):
        size = bar[l - i - 1]
        shortfalls = []
        short = 0
        for a in alpha:
            if a == size:
                shortfalls.append(short)
            elif a < size:
                short += size - a
        for r, v in enumerate(reversed(shortfalls), 1):
            if v:
                f[(i, r)] = v
    return f


def _breaks_bound(mu, f) -> bool:
    """Whether the count map f = `_shortfall_counts` of a composition
    sorted to ``mu`` breaks the rule's bound clause on lam = mu': the
    count before the rightmost part of some size s_j, j <= l - 1, is at
    least N_{j+1}, the number of parts of mu of size s_{j+1} or more.

    With s_1 > ... > s_l the distinct sizes of mu, N_k counts the parts
    >= s_k, so the distinct parts of lam, largest first, are
    (N_l, ..., N_1): the rule pairs the block of size s_j (block
    i = l - j of mu's bounce index set) with the bound N_{j+1}.  That
    block's counts, r = 1, 2, ... from the right, are running shortfalls
    read right to left, so they are weakly decreasing and nonnegative, and
    every nonzero one sits on the index set.  Its first count is the
    largest, and the rule refuses the pair at its bound clause exactly
    when that count reaches the bound."""
    at_least = [k for k in range(1, len(mu)) if mu[k] != mu[k - 1]]
    at_least.append(len(mu))  # at_least[k - 1] = N_k
    l = len(at_least)
    return any(f.get((l - j, 1), 0) >= at_least[j] for j in range(1, l))


def _decode_bounce_side(path, alpha) -> Certificate | None:
    """Minimal paths only, ``alpha`` being the path's bounce composition:
    sort it to mu, then each count is the total shortfall of the parts
    passed over by a moved part (`_shortfall_counts`); the certificate's
    bounce-side image must be the path itself.  A count map that breaks
    the rule's bound clause (`_breaks_bound`) is refused before lam = mu'
    and its layouts are built: `_rule` would refuse it at that clause,
    before any image, so the refusal is exact."""
    if not path.is_minimal():
        return None
    mu = tuple(sorted(alpha, reverse=True))
    f = _shortfall_counts(alpha, distinct_parts(mu))
    if _breaks_bound(mu, f):
        return None
    cert = Certificate.make(conjugate(mu), f)
    return cert if _memo_image(cert) == path else None


# A miss decodes both sides, each of which refuses a path off its side at
# once.  The key is the path's value, its row starts, which are plain ints
# on every path (`DyckPath`, `_stack`), so equal paths share one answer.
@lru_cache(maxsize=1)
def _decodes(path):
    alpha = path.bounce_composition()
    return _decode_area_side(path, alpha), _decode_bounce_side(path, alpha)


def classify(path) -> Classification:
    """Decide flip membership of a path, with certificates.

    Three branches: a partition bounce composition is tested on the area
    side; a minimal path with a non-partition composition on the bounce
    side; anything else is in neither.  Minimal block paths of partitions
    belong to both sides (zero count map each way).
    """
    area, bounce = _decodes(path)
    return Classification(area[0] if area else None, bounce)


def phi(path) -> DyckPath:
    """The area-bounce flip: area-side path of a certificate to its
    bounce-side path."""
    decoded = _decodes(path)[0]
    if decoded is None:
        raise NotInDomainError(f"{path.word} is not an area-side flip member")
    return decoded[1]


def phi_inverse(path) -> DyckPath:
    cert = _decodes(path)[1]
    if cert is None:
        raise NotInDomainError(f"{path.word} is not a bounce-side flip member")
    image = apply_area_map(cert.partition, cert.count_map)
    assert image is not BOTTOM
    return image


# -- extended pairs ------------------------------------------------------------


class ExtendedCertificate(NamedTuple):
    """A pair of certificates (f on lam, g on lam') driving the two-stage
    flip; g rides strictly below the rows the f-moves disturb and vice
    versa, and |f| >= |g|."""

    partition: tuple
    f_counts: tuple
    g_counts: tuple

    @property
    def f_map(self) -> dict:
        return {(i, r): v for (i, r, v) in self.f_counts}

    @property
    def g_map(self) -> dict:
        return {(i, r): v for (i, r, v) in self.g_counts}


def _rows_clear(lam, count_map, image) -> bool:
    """Every row the nonzero count_map stacks in (rows of lam) lies
    strictly below every row where ``image`` differs from the block path
    of lam; False when it does not differ."""
    layout = _layout(lam)
    base = layout.block.row_starts
    changed = [r for r, (u, v) in enumerate(zip(base, image.row_starts), 1) if u != v]
    touched = [layout.offsets[i - 1] + r for (i, r), v in count_map.items() if v]
    return bool(changed) and max(touched) < min(changed)


def _pair_clear(lam, f, g, f_image, g_image) -> bool:
    """For certificates f on lam and g on lam' with bounce-side images
    f_image and g_image: |f| >= |g| and, when g is nonzero, the row ranges
    clear both ways."""
    if sum(f.values()) < sum(g.values()):
        return False
    if not any(g.values()):
        return True
    return _rows_clear(_layout(lam).conjugate, g, f_image) and _rows_clear(lam, f, g_image)


def extended_pair_valid(lam, f, g) -> bool:
    """Both certificates valid, |f| >= |g|, and row ranges clear both ways;
    a count that is not a plain int is refused with ValueError."""
    lam = tuple(lam)
    for counts in (f, g):
        _plain_ints(counts.values(), "count", "entry")
    if not is_partition(lam):
        return False
    f_image = _rule(lam, f)
    if f_image is None:
        return False
    g_image = _rule(conjugate(lam), g)
    return g_image is not None and _pair_clear(lam, f, g, f_image, g_image)


def _extended(n: int):
    """(extended certificate, area-side and bounce-side paths of its f)
    for |lam| = n: each certificate on lam against each on lam', in the
    order of the certificate stream."""
    by_partition = {}
    for cert, area, image in _certified(n):
        entry = (cert, cert.count_map, area, image)
        by_partition.setdefault(cert.partition, []).append(entry)
    for lam, firsts in by_partition.items():
        seconds = by_partition.get(_layout(lam).conjugate, [])
        for fc, f, f_area, f_image in firsts:
            for gc, g, _, g_image in seconds:
                if _pair_clear(lam, f, g, f_image, g_image):
                    yield ExtendedCertificate(lam, fc.counts, gc.counts), f_area, f_image


def iter_extended_certificates(n: int):
    for cert, _, _ in _extended(n):
        yield cert


def _pair_paths(cert: ExtendedCertificate, f_area, f_image):
    """(sigma, tau) given the area-side and bounce-side paths of f: sigma
    boosts f_area by g, tau stacks g on f_image.  With g nonzero, a
    BOTTOM on either side is BOTTOM on both."""
    lam, g = tuple(cert.partition), cert.g_map
    sigma = _boost(f_area, lam, g)
    tau = _stack(f_image, _layout(lam).conjugate, g)
    if g and (sigma is BOTTOM or tau is BOTTOM):
        return BOTTOM, BOTTOM
    return sigma, tau


def build_extended_pair(cert: ExtendedCertificate):
    """(sigma, tau): area map then bounce moves on one side, bounce moves
    then area map on the other."""
    lam, f = cert.partition, cert.f_map
    f_image = apply_bounce_map(conjugate(lam), f)
    return _pair_paths(cert, apply_area_map(lam, f), f_image)


def _transplant_floating(path, target_partition):
    """Carry the floating cells of ``path`` row by row onto the block path
    of the sorted composition."""
    target = _layout(target_partition).block.row_starts
    base = path.bounce_path().row_starts
    x = [t + (u - v) for t, u, v in zip(target, path.row_starts, base)]
    carrier = _checked(x)
    return None if carrier is BOTTOM else carrier


def _decode_extended(path, bounce_stage_first):
    """(sigma, tau) of the extended certificate decoded from a two-stage
    path, or None.

    The floating cells transplanted onto the sorted block path isolate the
    area-map stage; dropping them isolates the bounce stage, whose
    certificate lives on the conjugate of the sorted parts and whose
    bounce-side image is the stripped path itself.
    """
    alpha = path.bounce_composition()
    sorted_parts = tuple(sorted(alpha, reverse=True))
    carrier = _transplant_floating(path, sorted_parts)
    if carrier is None:
        return None
    area = _decode_area_side(carrier, carrier.bounce_composition())
    if area is None or area[0].partition != sorted_parts:
        return None
    stripped = path.bounce_path()  # the block path of alpha
    bounce_cert = _decode_bounce_side(stripped, alpha)
    if bounce_cert is None:
        return None
    if bounce_stage_first:
        # path = block(lam') . B_f A^g: area stage carries g, bounce stage f
        (fc, f_image), (gc, g_image) = (bounce_cert, stripped), area
    else:
        # path = block(lam) . A^f B_g
        (fc, f_image), (gc, g_image) = area, (bounce_cert, stripped)
    lam, f = fc.partition, fc.count_map
    if not _pair_clear(lam, f, gc.count_map, f_image, g_image):
        return None
    # stacking the decoded f on the block path rebuilds the carrier
    f_area = apply_area_map(lam, f) if bounce_stage_first else carrier
    return _pair_paths(ExtendedCertificate(lam, fc.counts, gc.counts), f_area, f_image)


def gamma(path) -> DyckPath:
    """Two-stage area-bounce flip on extended area-side paths; reduces to
    the plain flip when the second stage is empty."""
    sigma, tau = _decode_extended(path, bounce_stage_first=False) or (BOTTOM, BOTTOM)
    if sigma != path or tau is BOTTOM:
        raise NotInDomainError(f"{path.word} is not an extended area-side member")
    return tau


def gamma_inverse(path) -> DyckPath:
    sigma, tau = _decode_extended(path, bounce_stage_first=True) or (BOTTOM, BOTTOM)
    if tau != path or sigma is BOTTOM:
        raise NotInDomainError(
            f"{path.word} is not an extended bounce-side member"
        )
    return sigma


def extended_flip_sets(n: int):
    """(extended area side, extended bounce side) path -> certificate maps."""
    left, right = {}, {}
    for cert, f_area, f_image in _extended(n):
        sigma, tau = _pair_paths(cert, f_area, f_image)
        if sigma is BOTTOM or tau is BOTTOM:
            raise AssertionError(f"extended pair failed to build: {cert}")
        left[sigma] = cert
        right[tau] = cert
    return left, right
