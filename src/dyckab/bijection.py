"""The area-bounce exchanging bijection and its two-stage extension.

For a partition lam of n there are two index sets: bounce indices (i, r)
naming movable bounce points of the block path of lam, and row indices
naming rows where area cells can be stacked.  A count map assigns a
nonnegative integer to each index.  The same count map f, read through the
row map of lam on one side and through the bounce map of the conjugate
lam' on the other, produces a pair of paths whose area and bounce
statistics are exchanged.

A certificate (lam, f) is valid when f is supported on the bounce index
set of lam', each block of values is weakly decreasing and strictly
bounded by the matching distinct part of lam, and the bounce-side image is
a minimal path.  The flip map sends the area-side path of a certificate to
its bounce-side path; `classify` decides membership of an arbitrary path
and returns certificates.

The extended flip composes both directions: area cells via f on top of
bounce moves via g (and vice versa), for pairs of certificates whose
touched row ranges do not interfere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .paths import (
    DyckPath,
    conjugate,
    distinct_parts,
    is_partition,
    multiplicity,
    partitions,
)
from .ops import BOTTOM, _checked, add_area_cell, bounce_boost


class NotInDomainError(ValueError):
    """Raised when a path is fed to a flip map it does not belong to."""


@dataclass(frozen=True)
class Certificate:
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


# -- index sets and maps ---------------------------------------------------


def bounce_index_set(lam) -> list:
    """(i, r) with 1 <= i <= l-1 and r up to the multiplicity of the
    (i+1)-th smallest distinct part (l = number of distinct parts)."""
    bar = distinct_parts(lam)
    l = len(bar)
    return [
        (i, r)
        for i in range(1, l)
        for r in range(1, multiplicity(lam, bar[l - i - 1]) + 1)
    ]


def row_index_set(lam) -> list:
    """(i, r) with 1 <= i <= l-1 and r up to the (i+1)-th distinct part."""
    bar = distinct_parts(lam)
    l = len(bar)
    return [(i, r) for i in range(1, l) for r in range(1, bar[i] + 1)]


def bounce_map(lam, i, r) -> int:
    """Bounce-point index of the r-th last part of the (i+1)-th smallest
    distinct size in the block path of lam."""
    if (i, r) not in bounce_index_set(lam):
        raise ValueError(f"({i}, {r}) outside the bounce index set of {lam!r}")
    bar = distinct_parts(lam)
    l = len(bar)
    return 1 - r + sum(multiplicity(lam, bar[j - 1]) for j in range(1, l - i + 1))


def row_map(lam, i, r) -> int:
    """Row r of the first block of the (i+1)-th distinct size in the block
    path of lam."""
    if (i, r) not in row_index_set(lam):
        raise ValueError(f"({i}, {r}) outside the row index set of {lam!r}")
    bar = distinct_parts(lam)
    return r + sum(
        multiplicity(lam, bar[j - 1]) * bar[j - 1] for j in range(1, i + 1)
    )


# -- the two operator bundles ----------------------------------------------


def apply_area_map(lam, count_map):
    """Stack count_map(i, r) cells in row row_map(lam, i, r) of the block
    path of lam.

    Each count is subtracted from that row's start; the result is checked
    once.  Stacking cell by cell in ascending rows gives the same answer,
    since each added cell is checked only against the row below it.
    """
    lam = tuple(lam)
    x = list(DyckPath.from_composition(sum(lam), lam).row_starts)
    for (i, r), v in count_map.items():
        row = row_map(lam, i, r)
        if v < 0:
            raise ValueError(f"count {v} at ({i}, {r}) must be nonnegative")
        x[row - 1] -= v
    return _checked(x)


def apply_bounce_map(lam, count_map):
    """Boost bounce point bounce_map(lam, i, r) by count_map(i, r), indices
    ordered by i then r, starting from the block path of lam."""
    lam = tuple(lam)
    n = sum(lam)
    cur = DyckPath.from_composition(n, lam)
    for (i, r) in sorted(count_map):
        k = count_map[(i, r)]
        if k:
            cur = bounce_boost(cur, bounce_map(lam, i, r), k)
            if cur is BOTTOM:
                return BOTTOM
    return cur


# -- certificates -----------------------------------------------------------


def _count_map_conditions(lam, count_map) -> bool:
    """Support on the bounce index set of lam', per-block weakly decreasing
    values, first value strictly below the matching distinct part of lam."""
    lamp = conjugate(lam)
    bar = distinct_parts(lam)
    barp = distinct_parts(lamp)
    l = len(barp)
    allowed = set(bounce_index_set(lamp))
    if any(count_map[k] and k not in allowed for k in count_map):
        return False
    if any(v < 0 for v in count_map.values()):
        return False
    for i in range(1, l):
        width = multiplicity(lamp, barp[l - i - 1])
        prev = None
        for r in range(1, width + 1):
            v = count_map.get((i, r), 0)
            if r == 1 and v >= bar[i - 1]:
                return False
            if prev is not None and v > prev:
                return False
            prev = v
    return True


def is_certificate(lam, count_map) -> bool:
    """Membership test for the certificate set of n = |lam|."""
    lam = tuple(lam)
    if not is_partition(lam):
        return False
    if not _count_map_conditions(lam, count_map):
        return False
    image = apply_bounce_map(conjugate(lam), count_map)
    return image is not BOTTOM and image.is_minimal()


def iter_certificates(n: int):
    """All valid certificates (lam, f) with |lam| = n, one Certificate each.

    Iterates partitions of n, then count maps within the stated bounds,
    keeping those whose bounce-side image is a minimal path.
    """
    for lam in partitions(n):
        lamp = conjugate(lam)
        bar = distinct_parts(lam)
        barp = distinct_parts(lamp)
        l = len(barp)
        blocks = []
        for i in range(1, l):
            width = multiplicity(lamp, barp[l - i - 1])
            blocks.append((i, width, bar[i - 1]))

        def weakly_decreasing(width, bound):
            def rec(r, mx):
                if r == width:
                    yield ()
                    return
                for v in range(mx, -1, -1):
                    for rest in rec(r + 1, v):
                        yield (v,) + rest

            yield from rec(0, bound - 1)

        def combos(idx):
            if idx == len(blocks):
                yield {}
                return
            i, width, bound = blocks[idx]
            for values in weakly_decreasing(width, bound):
                for rest in combos(idx + 1):
                    d = dict(rest)
                    for r, v in enumerate(values, 1):
                        if v:
                            d[(i, r)] = v
                    yield d

        for f in combos(0):
            image = apply_bounce_map(lamp, f)
            if image is BOTTOM or not image.is_minimal():
                continue
            yield Certificate.make(lam, f)


def flip_sets(n: int):
    """(area side, bounce side) of the flip map as path -> Certificate maps."""
    area_side, bounce_side = {}, {}
    for cert in iter_certificates(n):
        lam, f = cert.partition, cert.count_map
        left = apply_area_map(lam, f)
        right = apply_bounce_map(conjugate(lam), f)
        area_side[left] = cert
        bounce_side[right] = cert
    return area_side, bounce_side


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class Classification:
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


def _decode_area_side(path) -> Certificate | None:
    """Bounce composition must be a partition lam; floating cells must sit
    exactly in the rows named by the bounce index set of lam', with
    per-row counts forming a valid certificate that rebuilds the path."""
    alpha = path.bounce_composition()
    if not is_partition(alpha):
        return None
    lam = alpha
    lamp = conjugate(lam)
    base = DyckPath.from_composition(path.n, lam).area_sequence()
    a = path.area_sequence()
    named = {row_map(lam, i, r): (i, r) for (i, r) in bounce_index_set(lamp)}
    f = {}
    for row in range(1, path.n + 1):
        extra = a[row - 1] - base[row - 1]
        if extra < 0:
            return None
        if extra:
            if row not in named:
                return None
            f[named[row]] = extra
    if not is_certificate(lam, f):
        return None
    if apply_area_map(lam, f) != path:
        return None
    return Certificate.make(lam, f)


def _decode_bounce_side(path) -> Certificate | None:
    """Minimal paths only: sort the bounce composition to mu, then each
    count is the total shortfall of the parts passed over by a moved part;
    the certificate must rebuild the path."""
    if not path.is_minimal():
        return None
    alpha = path.bounce_composition()
    mu = tuple(sorted(alpha, reverse=True))
    bar = distinct_parts(mu)
    l = len(bar)
    f = {}
    for i in range(1, l):
        size = bar[l - i - 1]
        positions = [j for j in range(len(alpha), 0, -1) if alpha[j - 1] == size]
        for r, jr in enumerate(positions, 1):
            v = sum(max(0, size - alpha[j - 1]) for j in range(1, jr))
            if v:
                f[(i, r)] = v
    lam = conjugate(mu)
    if not is_certificate(lam, f):
        return None
    if apply_bounce_map(mu, f) != path:
        return None
    return Certificate.make(lam, f)


def classify(path) -> Classification:
    """Decide flip membership of a path, with certificates.

    Three branches: a partition bounce composition is tested on the area
    side; a minimal path with a non-partition composition on the bounce
    side; anything else is in neither.  Minimal block paths of partitions
    belong to both sides (zero count map each way).
    """
    alpha = path.bounce_composition()
    af = _decode_area_side(path) if is_partition(alpha) else None
    bf = _decode_bounce_side(path)
    return Classification(af, bf)


def phi(path) -> DyckPath:
    """The area-bounce flip: area-side path of a certificate to its
    bounce-side path."""
    cert = _decode_area_side(path)
    if cert is None:
        raise NotInDomainError(f"{path.word} is not an area-side flip member")
    image = apply_bounce_map(conjugate(cert.partition), cert.count_map)
    assert image is not BOTTOM
    return image


def phi_inverse(path) -> DyckPath:
    cert = _decode_bounce_side(path)
    if cert is None:
        raise NotInDomainError(f"{path.word} is not a bounce-side flip member")
    image = apply_area_map(cert.partition, cert.count_map)
    assert image is not BOTTOM
    return image


# -- extended pairs ------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedCertificate:
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


def _changed_rows(base, other):
    return [
        r
        for r in range(1, base.n + 1)
        if base.row_starts[r - 1] != other.row_starts[r - 1]
    ]


def _rows_clear(lam_for_rows, count_map, image_base, image):
    """Every row touched by count_map lies strictly below every row the
    bounce moves changed."""
    touched = [
        row_map(lam_for_rows, i, r) for (i, r) in count_map if count_map[(i, r)]
    ]
    if not touched:
        return True
    changed = _changed_rows(image_base, image)
    if not changed:
        return False
    return max(touched) < min(changed)


def extended_pair_valid(lam, f, g) -> bool:
    """Both certificates valid, |f| >= |g|, and row ranges clear both ways."""
    lam = tuple(lam)
    lamp = conjugate(lam)
    if not (is_certificate(lam, f) and is_certificate(lamp, g)):
        return False
    if sum(f.values()) < sum(g.values()):
        return False
    n = sum(lam)
    f_image = apply_bounce_map(lamp, f)
    g_image = apply_bounce_map(lam, g)
    base_lamp = DyckPath.from_composition(n, lamp)
    base_lam = DyckPath.from_composition(n, lam)
    if any(g.values()) and not _rows_clear(lamp, g, base_lamp, f_image):
        return False
    if any(f.values()) and any(g.values()) and not _rows_clear(
        lam, f, base_lam, g_image
    ):
        return False
    return True


def iter_extended_certificates(n: int):
    by_partition = {}
    for cert in iter_certificates(n):
        by_partition.setdefault(cert.partition, []).append(cert)
    for lam, certs in by_partition.items():
        lamp = conjugate(lam)
        for fc in certs:
            for gc in by_partition.get(lamp, []):
                if extended_pair_valid(lam, fc.count_map, gc.count_map):
                    yield ExtendedCertificate(lam, fc.counts, gc.counts)


def build_extended_pair(cert: ExtendedCertificate):
    """(sigma, tau): area map then bounce moves on one side, bounce moves
    then area map on the other."""
    lam = cert.partition
    lamp = conjugate(lam)
    f, g = cert.f_map, cert.g_map
    sigma = apply_area_map(lam, f)
    for (i, r) in sorted(g):
        if g[(i, r)]:
            sigma = bounce_boost(sigma, bounce_map(lam, i, r), g[(i, r)])
            if sigma is BOTTOM:
                return BOTTOM, BOTTOM
    tau = apply_bounce_map(lamp, f)
    for (i, r) in sorted(g):
        for _ in range(g[(i, r)]):
            tau = add_area_cell(tau, row_map(lamp, i, r))
            if tau is BOTTOM:
                return BOTTOM, BOTTOM
    return sigma, tau


def _transplant_floating(path, target_partition):
    """Carry the floating cells of ``path`` row by row onto the block path
    of the sorted composition."""
    n = path.n
    base = path.bounce_path().area_sequence()
    a = path.area_sequence()
    t = DyckPath.from_composition(n, target_partition).area_sequence()
    seq = [t[r] + (a[r] - base[r]) for r in range(n)]
    try:
        return DyckPath.from_area_sequence(seq)
    except ValueError:
        return None


def _decode_extended(path, bounce_stage_first):
    """Recover (lam, f, g) from a two-stage path.

    The floating cells transplanted onto the sorted block path isolate the
    area-map stage; dropping them isolates the bounce stage.
    """
    alpha = path.bounce_composition()
    sorted_parts = tuple(sorted(alpha, reverse=True))
    carrier = _transplant_floating(path, sorted_parts)
    if carrier is None:
        return None
    area_cert = _decode_area_side(carrier)
    if area_cert is None or area_cert.partition != sorted_parts:
        return None
    stripped = path.bounce_path()
    bounce_cert = _decode_bounce_side(stripped)
    if bounce_cert is None:
        return None
    if bounce_cert.partition != conjugate(sorted_parts):
        return None
    if bounce_stage_first:
        # path = block(lam') . B_f A^g: area stage carries g, bounce stage f
        lam = conjugate(sorted_parts)
        f, g = bounce_cert.count_map, area_cert.count_map
    else:
        # path = block(lam) . A^f B_g
        lam = sorted_parts
        f, g = area_cert.count_map, bounce_cert.count_map
    if not extended_pair_valid(lam, f, g):
        return None
    return ExtendedCertificate(
        lam, Certificate.make(lam, f).counts, Certificate.make(lam, g).counts
    )


def gamma(path) -> DyckPath:
    """Two-stage area-bounce flip on extended area-side paths; reduces to
    the plain flip when the second stage is empty."""
    cert = _decode_extended(path, bounce_stage_first=False)
    if cert is None:
        raise NotInDomainError(f"{path.word} is not an extended area-side member")
    sigma, tau = build_extended_pair(cert)
    if sigma != path or tau is BOTTOM:
        raise NotInDomainError(f"{path.word} is not an extended area-side member")
    return tau


def gamma_inverse(path) -> DyckPath:
    cert = _decode_extended(path, bounce_stage_first=True)
    if cert is None:
        raise NotInDomainError(
            f"{path.word} is not an extended bounce-side member"
        )
    sigma, tau = build_extended_pair(cert)
    if tau != path or sigma is BOTTOM:
        raise NotInDomainError(
            f"{path.word} is not an extended bounce-side member"
        )
    return sigma


def extended_flip_sets(n: int):
    """(extended area side, extended bounce side) path -> certificate maps."""
    left, right = {}, {}
    for cert in iter_extended_certificates(n):
        sigma, tau = build_extended_pair(cert)
        if sigma is BOTTOM or tau is BOTTOM:
            raise AssertionError(f"extended pair failed to build: {cert}")
        left[sigma] = cert
        right[tau] = cert
    return left, right
