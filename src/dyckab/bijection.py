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
shifts, per count, carrying one list of bounce points, so it sweeps them
once.  Both, like every decode, read one cached layout per partition
(`_layout`): its conjugate, block widths, index -> bounce point and
index -> row tables, and its block path.

A certificate (lam, f) is valid when f is supported on the bounce index
set of lam', each block of values is weakly decreasing and strictly
bounded by the matching distinct part of lam, and the bounce-side image is
a minimal path.  One rule, `_certified_image`, checks all of this and
returns that image (None when the pair is no certificate).  A flip round
trip decodes one pair three times (`classify`, the map, the inverse on
its image), so the rule keeps a memo of 256 images keyed by the
certificate the pair would be, `Certificate.make`'s canonical form, and
builds each image once.  That key is exact for plain count maps, dicts
from pairs of plain ints to plain ints, since the rule reads them
through their nonzero entries in sorted order; any other map runs the
rule uncached.  The flip map
sends the area-side path of a certificate to its bounce-side path, which
the area-side decode already built; `classify` decides membership of an
arbitrary path and returns certificates.  Its bounce-side decode refuses
a minimal path before it builds lam and its layouts when the path's count
map breaks the rule's bound clause, which it reads off the sorted bounce
composition (`_breaks_bound`): the rule refuses exactly those maps at
that clause, before any image, and stays the last word on every other
map.  The certificates of one n are built once, as an immutable stream of
(certificate, area-side path, bounce-side path) that `iter_certificates`,
`flip_sets`, the extended pairing and `qbell.qt_flip_closure` read
(`_certified`).

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
    _bounce_points,
    _path,
)
from .ops import BOTTOM, _boost_run, _check_amount, _checked


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
    block: DyckPath | None  # block path of lam; None unless parts are >= 1


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
    composition = all(isinstance(a, int) and a >= 1 for a in lam)
    block = _path(_blocks(lam)) if composition else None
    widths = tuple(reversed(sizes[:-1]))
    return _Layout(conjugate(lam), bar, widths, tops, offsets, block)


def _point(layout, lam, i, r) -> int:
    """bounce_map(lam, i, r) read off the layout of lam."""
    widths = layout.widths
    if (
        isinstance(i, int)
        and isinstance(r, int)
        and 1 <= i <= len(widths)
        and 1 <= r <= widths[i - 1]
    ):
        return layout.tops[i - 1] + 1 - r
    raise ValueError(f"({i}, {r}) outside the bounce index set of {lam!r}")


def _row(layout, lam, i, r) -> int:
    """row_map(lam, i, r) read off the layout of lam."""
    bounds = layout.bounds
    if (
        isinstance(i, int)
        and isinstance(r, int)
        and 1 <= i < len(bounds)
        and 1 <= r <= bounds[i]
    ):
        return layout.offsets[i - 1] + r
    raise ValueError(f"({i}, {r}) outside the row index set of {lam!r}")


def _block_path(lam):
    """The block path of lam from the layout; from_composition raises for
    anything that is not a composition."""
    block = _layout(lam).block
    return DyckPath.from_composition(sum(lam), lam) if block is None else block


# -- index sets and maps ---------------------------------------------------


def bounce_index_set(lam) -> list:
    """(i, r) with 1 <= i <= l-1 and r up to the multiplicity of the
    (i+1)-th smallest distinct part (l = number of distinct parts)."""
    widths = _layout(tuple(lam)).widths
    return [(i, r) for i, width in enumerate(widths, 1) for r in range(1, width + 1)]


def row_index_set(lam) -> list:
    """(i, r) with 1 <= i <= l-1 and r up to the (i+1)-th distinct part."""
    bar = _layout(tuple(lam)).bounds
    return [(i, r) for i in range(1, len(bar)) for r in range(1, bar[i] + 1)]


def bounce_map(lam, i, r) -> int:
    """Bounce-point index of the r-th last part of the (i+1)-th smallest
    distinct size in the block path of lam."""
    return _point(_layout(tuple(lam)), lam, i, r)


def row_map(lam, i, r) -> int:
    """Row r of the first block of the (i+1)-th distinct size in the block
    path of lam."""
    return _row(_layout(tuple(lam)), lam, i, r)


# -- the two operator bundles ----------------------------------------------


def _stack(path, lam, count_map):
    """Stack count_map(i, r) cells in row row_map(lam, i, r) of ``path``.

    Each count is subtracted from that row's start; the result is checked
    once.  Stacking cell by cell in ascending rows gives the same answer,
    since each added cell is checked only against the row below it.
    """
    if path is BOTTOM:
        return BOTTOM
    layout = _layout(lam)
    x = list(path.row_starts)
    for (i, r), v in count_map.items():
        row = _row(layout, lam, i, r)
        if v < 0:
            raise ValueError(f"count {v} at ({i}, {r}) must be nonnegative")
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
    b = list(_bounce_points(x))
    for (i, r) in sorted(count_map):
        k = count_map[(i, r)]
        if k:
            point = _point(layout, lam, i, r)
            _check_amount(k)
            x = _boost_run(x, b, point, k)
            if x is None:
                return BOTTOM
    return _path(x)


def apply_area_map(lam, count_map):
    """Stack count_map(i, r) cells in row row_map(lam, i, r) of the block
    path of lam."""
    lam = tuple(lam)
    return _stack(_block_path(lam), lam, count_map)


def apply_bounce_map(lam, count_map):
    """Boost bounce point bounce_map(lam, i, r) by count_map(i, r), indices
    ordered by i then r, starting from the block path of lam."""
    lam = tuple(lam)
    return _boost(_block_path(lam), lam, count_map)


# -- certificates -----------------------------------------------------------


def _certified_image(lam, count_map):
    """The bounce-side image of (lam, count_map) when the pair is a
    certificate, else None.

    lam must already be known to be a partition: the callers test it
    (`is_certificate`, `extended_pair_valid`) or built it as one (the two
    decoders).  A plain count map (`_plain`) is answered from
    `_memo_image`, which holds the 256 images last used, keyed by the
    certificate the pair would be.  The rule reads a plain map only
    through its nonzero entries, in sorted order, so that key is exact.
    Any other map runs the rule uncached (`_rule`): a value 4.0 or True,
    or an index (1.0, 1), equals an int twin as a key, yet the rule raises
    on it.
    """
    if _plain(count_map):
        return _memo_image(Certificate.make(lam, count_map))
    return _rule(lam, count_map)


def _plain(count_map) -> bool:
    """Whether count_map is a dict from pairs of plain ints to plain ints
    (no bool, float or subclass anywhere)."""
    return type(count_map) is dict and all(
        type(v) is int
        and type(index) is tuple
        and len(index) == 2
        and type(index[0]) is int
        and type(index[1]) is int
        for index, v in count_map.items()
    )


# Bounded, since callers may decode any number of pairs (about 0.7 KB an
# entry at n = 12..24: the key, the image and its row starts; 0.18 MB
# full).  A flip round trip decodes one pair three times (`classify`, the
# map, the inverse on its image), so it needs its entry for a few calls
# only: the benchmark's 8,000 seed 1 queries build 682 images here, 678
# with no bound and 2,041 uncached.  256 also keeps repeats across the
# checks of `verify --suite all --n 10`, which builds 4,582 images here,
# 5,314 at 64 entries and 7,609 uncached.  The value is an immutable
# path or None.
@lru_cache(maxsize=256)
def _memo_image(cert: Certificate):
    """`_rule` on the plain count map whose canonical certificate is
    ``cert``: zeros, wherever they sat, and the dict's order change
    nothing the rule reads."""
    return _rule(cert.partition, cert.count_map)


def _rule(lam, count_map):
    """The certificate rule, uncached: count_map must be supported on the
    bounce index set of lam', with nonnegative values, weakly decreasing
    in each block and the first below the matching distinct part of lam;
    the image, built once, must be a minimal path."""
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
    """Membership test for the certificate set of n = |lam|."""
    lam = tuple(lam)
    return is_partition(lam) and _certified_image(lam, count_map) is not None


@lru_cache(maxsize=None)
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


def _decode_area_side(path):
    """(certificate, bounce-side image), or None.

    Bounce composition must be a partition lam; floating cells must sit
    exactly in the rows named by the bounce index set of lam', with
    per-row counts forming a valid certificate.  The counts are the path's
    area sequence minus that of the block path of lam, so stacking them
    on the block path rebuilds the path.
    """
    lam = path.bounce_composition()
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
    image = _certified_image(lam, f)
    if image is None:
        return None
    return Certificate.make(lam, f), image


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


def _decode_bounce_side(path) -> Certificate | None:
    """Minimal paths only: sort the bounce composition to mu, then each
    count is the total shortfall of the parts passed over by a moved part
    (`_shortfall_counts`); the certificate's bounce-side image must be the
    path itself.  A count map that breaks the rule's bound clause
    (`_breaks_bound`) is refused before lam = mu' and its layouts are
    built: `_certified_image` would refuse it at that clause, before any
    image, so the refusal is exact."""
    if not path.is_minimal():
        return None
    alpha = path.bounce_composition()
    mu = tuple(sorted(alpha, reverse=True))
    f = _shortfall_counts(alpha, distinct_parts(mu))
    if _breaks_bound(mu, f):
        return None
    lam = conjugate(mu)
    if _certified_image(lam, f) != path:
        return None
    return Certificate.make(lam, f)


def classify(path) -> Classification:
    """Decide flip membership of a path, with certificates.

    Three branches: a partition bounce composition is tested on the area
    side; a minimal path with a non-partition composition on the bounce
    side; anything else is in neither.  Minimal block paths of partitions
    belong to both sides (zero count map each way).
    """
    area = _decode_area_side(path)
    return Classification(area[0] if area else None, _decode_bounce_side(path))


def phi(path) -> DyckPath:
    """The area-bounce flip: area-side path of a certificate to its
    bounce-side path."""
    decoded = _decode_area_side(path)
    if decoded is None:
        raise NotInDomainError(f"{path.word} is not an area-side flip member")
    return decoded[1]


def phi_inverse(path) -> DyckPath:
    cert = _decode_bounce_side(path)
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
    """Both certificates valid, |f| >= |g|, and row ranges clear both ways."""
    lam = tuple(lam)
    if not is_partition(lam):
        return False
    f_image = _certified_image(lam, f)
    if f_image is None:
        return False
    g_image = _certified_image(conjugate(lam), g)
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
    sorted_parts = tuple(sorted(path.bounce_composition(), reverse=True))
    carrier = _transplant_floating(path, sorted_parts)
    if carrier is None:
        return None
    area = _decode_area_side(carrier)
    if area is None or area[0].partition != sorted_parts:
        return None
    stripped = path.bounce_path()
    bounce_cert = _decode_bounce_side(stripped)
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
