"""Brute-force verification harness.

Each named check re-derives everything it asserts from path words and
exhaustive enumeration, never trusting the fast paths it is checking.
Failures always carry a replayable counterexample (path words, index,
certificate).  Each check is declared once in SUITES with the semilengths
it examines, a `range`, or None for a check of fixed objects.  The runner
cuts the range at the cap and calls the check once with it; a check whose
cut range is empty is reported as skipped, which counts as passed.  A
check returns None when it holds and a counterexample dict when it fails.
Suites bundle the checks by module; `all` runs everything.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from typing import NamedTuple

from . import bijection, extremal, ops, paths, qbell
from .ops import BOTTOM


class CheckReport(NamedTuple):
    """One check's verdict; a named tuple, immutable like every record of
    the package."""

    name: str
    n_range: str
    passed: bool
    counterexample: dict | None = None
    seconds: float = 0.0
    skipped: bool = False  # examined nothing at this cap; passed stays True

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "n_range": self.n_range,
                "passed": self.passed,
                "skipped": self.skipped,
                "counterexample": self.counterexample,
                "seconds": round(self.seconds, 4),
            }
        )


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------- statistics


def check_figure_one(sizes):
    """The paper's figure, one path of semilength 7."""
    p = paths.DyckPath.from_word("NNNEENENEENNEE")
    expected = {
        "n": 7,
        "word": "NNNEENENEENNEE",
        "area": 6,
        "bounce": 6,
        "alpha": [3, 2, 2],
        "bounce_points": [0, 3, 5, 7],
        "area_seq": [0, 1, 2, 1, 1, 0, 1],
        "floating": 1,
    }
    got = p.to_record()
    if got != expected:
        return {"got": got, "expected": expected}


def check_word_round_trip(sizes):
    """Every path survives its word, and the enumerator's carried
    (area, bounce) equal the methods' path by path, in order."""
    for n in sizes:
        carried = paths.iter_area_bounce(n)
        for p in paths.enumerate_paths(n):
            q = paths.DyckPath.from_word(p.word)
            if q != p:
                return {"path": p.to_record()}
            stats = next(carried, None)
            if stats != (p.area(), p.bounce()):
                return {"path": p.to_record(), "carried": stats}
        if next(carried, None) is not None:
            return {"n": n, "reason": "carried stats outnumber paths"}


def check_product_formula(sizes):
    for n in sizes:
        counts = {}
        for p in paths.enumerate_paths(n):
            key = p.bounce_composition()
            counts[key] = counts.get(key, 0) + 1
        total = 0
        for alpha in paths.compositions(n):
            want = paths.count_paths_with_bounce_path(n, alpha)
            got = counts.get(alpha, 0)
            total += got
            if want != got:
                return {"n": n, "alpha": alpha, "formula": want, "brute": got}
        if total != paths.catalan(n):
            return {"n": n, "sum": total, "catalan": paths.catalan(n)}


def check_conjugate_pairs(sizes):
    for n in sizes:
        for lam in paths.partitions(n):
            lamp = paths.conjugate(lam)
            p = paths.DyckPath.from_composition(n, lam)
            q = paths.DyckPath.from_composition(n, lamp)
            if p.area() != q.bounce() or p.bounce() != q.area():
                return {"lambda": lam}
            if paths.conjugate(lamp) != lam:
                return {"lambda": lam, "reason": "conjugation not involutive"}
            if len(paths.distinct_parts(lam)) != len(paths.distinct_parts(lamp)):
                return {"lambda": lam, "reason": "distinct part counts differ"}


def check_bounce_path_fixed_point(sizes):
    for n in sizes:
        for p in paths.enumerate_paths(n):
            bp = p.bounce_path()
            if bp.bounce() != p.bounce() or bp.bounce_path() != bp:
                return {"path": p.to_record()}
            if bp.area() > p.area():
                return {"path": p.to_record(), "reason": "bounce path above path"}


# ---------------------------------------------------------------- operators


def _bounce_indices(p):
    return range(1, len(p.bounce_points()))


def check_operator_deltas(sizes):
    for n in sizes:
        for p in paths.enumerate_paths(n):
            a0, b0 = p.area(), p.bounce()
            pts = p.bounce_points()
            m = len(pts) - 1
            for i in range(1, m + 1):
                q = ops.shift(p, i)
                if q is not BOTTOM:
                    want = pts[:i] + (pts[i] - 1,) + pts[i + 1 :]
                    if (
                        q.area() != a0
                        or q.bounce() != b0 + 1
                        or q.bounce_points() != want
                    ):
                        return {"op": "shift", "path": p.to_record(), "i": i}
                q = ops.up(p, i)
                if q is not BOTTOM and (q.area() != a0 - 1 or q.bounce() != b0 + 1):
                    return {"op": "up", "path": p.to_record(), "i": i}
                q = ops.down(p, i)
                if q is not BOTTOM and (q.area() != a0 + 1 or q.bounce() != b0 - 1):
                    return {"op": "down", "path": p.to_record(), "i": i}


def check_inverse_pairs(sizes):
    for n in sizes:
        for p in paths.enumerate_paths(n):
            m = len(p.bounce_points()) - 1
            for i in range(1, m + 1):
                q = ops.shift(p, i)
                if q is not BOTTOM and ops.unshift(q, i) != p:
                    return {"op": "unshift.shift", "path": p.to_record(), "i": i}
                q = ops.unshift(p, i)
                if q is not BOTTOM and ops.shift(q, i) != p:
                    return {"op": "shift.unshift", "path": p.to_record(), "i": i}
                q = ops.up(p, i)
                if q is not BOTTOM and ops.down(q, i) != p:
                    return {"op": "down.up", "path": p.to_record(), "i": i}
                q = ops.down(p, i)
                if q is not BOTTOM and ops.up(q, i) != p:
                    return {"op": "up.down", "path": p.to_record(), "i": i}


def check_bottom_absorption(sizes):
    operators = [
        lambda: ops.add_area_cell(BOTTOM, 1),
        lambda: ops.remove_area_cell(BOTTOM, 1),
        lambda: ops.add_column_cell(BOTTOM, 1),
        lambda: ops.remove_column_cell(BOTTOM, 1),
        lambda: ops.shift(BOTTOM, 1),
        lambda: ops.unshift(BOTTOM, 1),
        lambda: ops.bounce_boost(BOTTOM, 1, 1),
        lambda: ops.up(BOTTOM, 1),
        lambda: ops.down(BOTTOM, 1),
    ]
    for k, op in enumerate(operators):
        if op() is not BOTTOM:
            return {"operator_index": k}


def check_shape_lemmas(sizes):
    """Classes refusing every down have strict-partition compositions and
    area >= bounce; classes refusing every up consist of minimal gapless
    paths ending in a part 1 and have area <= bounce."""
    for n in sizes:
        classes = {}
        for p in paths.enumerate_paths(n):
            classes.setdefault((p.area(), p.bounce_composition()), []).append(p)
        for (area, alpha), members in classes.items():
            bounce = members[0].bounce()
            no_down = not any(
                ops.down(t, j) is not BOTTOM
                for t in members
                for j in _bounce_indices(t)
            )
            no_up = not any(
                ops.up(t, j) is not BOTTOM
                for t in members
                for j in _bounce_indices(t)
            )
            if no_down:
                strict = all(
                    alpha[i] > alpha[i + 1] for i in range(len(alpha) - 1)
                )
                if not strict:
                    return {"n": n, "alpha": alpha, "lemma": "no-down shape"}
                if area < bounce:
                    return {"n": n, "alpha": alpha, "lemma": "no-down a>=b"}
            if no_up:
                ok = (
                    all(t.is_minimal() for t in members)
                    and alpha[-1] == 1
                    and all(
                        alpha[i] - alpha[i + 1] <= 1 for i in range(len(alpha) - 1)
                    )
                )
                if not ok:
                    return {"n": n, "alpha": alpha, "lemma": "no-up shape"}
                if area > bounce:
                    return {"n": n, "alpha": alpha, "lemma": "no-up a<=b"}


def check_existence_scans(sizes):
    for n in sizes:
        for p in paths.enumerate_paths(n):
            pts = p.bounce_points()
            m = len(pts) - 1
            a = p.area_sequence()
            h = p.column_heights()
            for i in range(1, m):
                if a[pts[i]] == pts[i] - pts[i - 1] - 1:
                    j = ops.existence_scan_down(p, i)
                    if j is None or not (i <= j <= m - 1):
                        return {"scan": "down", "path": p.to_record(), "i": i, "j": j}
                    if ops.down(p, j) is BOTTOM:
                        return {"scan": "down", "path": p.to_record(), "i": i, "j": j}
                if h[pts[i] - 1] == pts[i + 1]:
                    j = ops.existence_scan_up(p, i)
                    if j is None or not (1 <= j <= i):
                        return {"scan": "up", "path": p.to_record(), "i": i, "j": j}
                    if ops.up(p, j) is BOTTOM:
                        return {"scan": "up", "path": p.to_record(), "i": i, "j": j}


# ---------------------------------------------------------------- bijection


def check_certificate_pairs(sizes):
    for n in sizes:
        for cert in bijection.iter_certificates(n):
            lam, f = cert.partition, cert.count_map
            left = bijection.apply_area_map(lam, f)
            right = bijection.apply_bounce_map(paths.conjugate(lam), f)
            if left is BOTTOM or right is BOTTOM:
                return {"certificate": cert.to_json_dict()}
            if left.area() != right.bounce() or left.bounce() != right.area():
                return {
                    "certificate": cert.to_json_dict(),
                    "left": left.to_record(),
                    "right": right.to_record(),
                }
            delta = cert.total
            base = paths.DyckPath.from_composition(n, lam)
            if left.area() != base.area() + delta or left.bounce() != base.bounce():
                return {
                    "certificate": cert.to_json_dict(),
                    "reason": "area side stats",
                }


def check_flip_round_trip(sizes):
    for n in sizes:
        area_side, bounce_side = bijection.flip_sets(n)
        if len(area_side) != len(bounce_side):
            return {"n": n, "reason": "side sizes differ"}
        for p, cert in area_side.items():
            q = bijection.phi(p)
            if bounce_side.get(q) != cert or bijection.phi_inverse(q) != p:
                return {"n": n, "path": p.to_record()}
            if q.area() != p.bounce() or q.bounce() != p.area():
                return {"n": n, "path": p.to_record(), "reason": "stats not flipped"}
        for q in bounce_side:
            p = bijection.phi_inverse(q)
            if p not in area_side or bijection.phi(p) != q:
                return {"n": n, "path": q.to_record()}


def check_classify_consistency(sizes):
    """`classify` of every enumerated path agrees with `flip_sets`, side
    and certificate.  It alone checks that the certificate stream holds
    every flip member (no other check meets every path of its size), so
    the stream's completeness is checked over this declared range alone,
    n <= 9."""
    for n in sizes:
        area_side, bounce_side = bijection.flip_sets(n)
        for p in paths.enumerate_paths(n):
            cls = bijection.classify(p)
            in_af = p in area_side
            in_bf = p in bounce_side
            if (cls.area_certificate is not None) != in_af:
                return {"n": n, "path": p.to_record(), "side": "area"}
            if (cls.bounce_certificate is not None) != in_bf:
                return {"n": n, "path": p.to_record(), "side": "bounce"}
            if in_af and cls.area_certificate != area_side[p]:
                return {"n": n, "path": p.to_record(), "reason": "area certificate"}
            if in_bf and cls.bounce_certificate != bounce_side[p]:
                return {"n": n, "path": p.to_record(), "reason": "bounce certificate"}


def check_count_bounds(sizes):
    for n in sizes:
        area_side, bounce_side = bijection.flip_sets(n)
        size = len(set(area_side) | set(bounce_side))
        if not 2 * _fib(n + 1) <= size <= 2**n:
            return {"n": n, "size": size, "fib_bound": 2 * _fib(n + 1)}


def check_flip_closure_symmetry(sizes):
    for n in sizes:
        table = qbell.qt_flip_closure(n)
        if not table.is_symmetric():
            return {"n": n}


# ---------------------------------------------------------------- gamma


def check_extended_pairs(sizes):
    for n in sizes:
        for cert in bijection.iter_extended_certificates(n):
            sigma, tau = bijection.build_extended_pair(cert)
            if sigma is BOTTOM or tau is BOTTOM:
                return {"n": n, "partition": cert.partition}
            if sigma.area() != tau.bounce() or sigma.bounce() != tau.area():
                return {"n": n, "sigma": sigma.to_record(), "tau": tau.to_record()}


def check_commutation(sizes):
    for n in sizes:
        for cert in bijection.iter_extended_certificates(n):
            lam = cert.partition
            lamp = paths.conjugate(lam)
            f, g = cert.f_map, cert.g_map
            sigma, tau = bijection.build_extended_pair(cert)
            other = bijection.apply_bounce_map(lam, g)
            for (i, r) in sorted(f):
                for _ in range(f[(i, r)]):
                    other = ops.add_area_cell(other, bijection.row_map(lam, i, r))
            if other != sigma:
                return {"n": n, "partition": lam, "side": "area"}
            other = bijection.apply_area_map(lamp, g)
            for (i, r) in sorted(f):
                if f[(i, r)]:
                    other = ops.bounce_boost(
                        other, bijection.bounce_map(lamp, i, r), f[(i, r)]
                    )
            if other != tau:
                return {"n": n, "partition": lam, "side": "bounce"}


def check_extended_round_trip(sizes):
    for n in sizes:
        left, right = bijection.extended_flip_sets(n)
        if len(left) != len(right):
            return {"n": n, "reason": "side sizes differ"}
        for sigma, cert in left.items():
            tau = bijection.gamma(sigma)
            if right.get(tau) != cert or bijection.gamma_inverse(tau) != sigma:
                return {"n": n, "path": sigma.to_record()}
            if tau.area() != sigma.bounce() or tau.bounce() != sigma.area():
                return {"n": n, "path": sigma.to_record(), "reason": "stats not flipped"}


# ---------------------------------------------------------------- minimal


def check_minimal_sets(sizes):
    """Both minimal sets equal the brute-force minima of each level, taken
    from the `area()`/`bounce()` of every path, and each side meets its
    shape conditions.  The bounce-side conditions are necessary only: they
    select exactly the bounce-minimal paths through n = 12, and the check
    asserts that equality on its range, but from n = 13 on they admit a
    non-minimal path."""
    for n in sizes:
        bmin = extremal.bounce_minimal(n)
        amin = extremal.area_minimal(n)
        characterized = []
        least_bounce, least_area = {}, {}
        for p in paths.enumerate_paths(n):
            if extremal.satisfies_bounce_minimal_conditions(p):
                characterized.append(p)
            a, b = p.area(), p.bounce()
            _keep_least(least_bounce, a + b, b, p)
            _keep_least(least_area, a + b, a, p)
        for side, got, least in (
            ("bounce", bmin, least_bounce),
            ("area", amin, least_area),
        ):
            brute = sorted(p for _, members in least.values() for p in members)
            if sorted(got) != brute:
                return {"n": n, "side": f"{side} brute force"}
        if sorted(bmin) != characterized:
            return {"n": n, "side": "bounce characterization"}
        for p in amin:
            if not extremal.satisfies_area_minimal_conditions(p):
                return {"n": n, "path": p.to_record(), "side": "area necessity"}


def _keep_least(least, level, value, path):
    """Keep in least[level] the least value seen so far and its paths."""
    kept = least.get(level)
    if kept is None or value < kept[0]:
        least[level] = (value, [path])
    elif value == kept[0]:
        kept[1].append(path)


def check_flip_minimal(sizes):
    for n in sizes:
        bmin = extremal.bounce_minimal(n)
        amin = set(extremal.area_minimal(n))
        image = set()
        for p in bmin:
            q = bijection.phi(p)
            if q.area() != p.bounce() or q.bounce() != p.area():
                return {"n": n, "path": p.to_record(), "reason": "stats"}
            image.add(q)
        if image != amin:
            return {"n": n, "reason": "image differs from area-minimal set"}


def check_minimal_figures(sizes):
    """The paper's counts at n = 7, the one size in its range."""
    for n in sizes:
        lv = extremal.level_sets(n)
        bmin = extremal.bounce_minimal(n)
        values = {p.ab() for p in bmin}
        facts = {
            "distinct ab over minimal": (len(values), 11),
            "P7(2,13)": (len(lv.get((2, 13), [])), 2),
            "P7(13,2)": (len(lv.get((13, 2), [])), 2),
            "size B(7)": (len(bmin), 12),
            "size A(7)": (len(extremal.area_minimal(n)), 12),
        }
        for key, (got, want) in facts.items():
            if got != want:
                return {"fact": key, "got": got, "expected": want}


# ---------------------------------------------------------------- levels


def check_symmetry(sizes):
    for n in sizes:
        report = extremal.nonemptiness_symmetry(n)
        if not report["symmetric"]:
            return report


def check_construct(sizes):
    for n in sizes:
        realized = set(extremal.level_sets(n))
        top = math.comb(n, 2)
        for a in range(top + 1):
            for b in range(top + 1 - a):
                built = extremal.construct_path(n, a, b)
                if ((a, b) in realized) != (built is not None):
                    return {"n": n, "a": a, "b": b}
                if built is None:
                    continue
                if (built.n, built.area(), built.bounce()) != (n, a, b):
                    return {"n": n, "a": a, "b": b, "path": built.to_record()}


def check_interpolation(sizes):
    for n in sizes:
        report = extremal.interpolation_report(n)
        if not report["holds"]:
            return report


def check_top_levels(sizes):
    for n in sizes:
        report = extremal.top_levels(n)
        ok = (
            report["top_count"] == report["top_expected"]
            and report["top_full_split"]
            and report["top_singletons"]
            and report["second_singletons"]
            and report["observed_min_ab"] == report["min_ab"]
        )
        if not ok:
            return report


def check_ab_interval(sizes):
    for n in sizes:
        want = list(range(extremal.min_ab(n), extremal.max_ab(n) + 1))
        have = sorted(extremal.ab_level_map(n))
        if have != want:
            return {"n": n, "have": have}
        for x in want:
            p = extremal.ab_ladder(n, x)
            if p.ab() != x:
                return {"n": n, "x": x, "path": p.to_record()}


def check_bounce_interval_conjecture(sizes):
    """Empirical support for an open conjecture; not a theorem."""
    for n in sizes:
        report = extremal.bounce_interval_conjecture(n)
        if not report["holds"]:
            return report


# ---------------------------------------------------------------- qbell


def check_distinct_ab_reference(sizes):
    """The published counts for n <= 19, whatever the cap."""
    got = tuple(qbell.distinct_ab_count(n) for n in range(20))
    if got != qbell.DISTINCT_AB_FIRST_TWENTY:
        return {"got": list(got)}


def check_qbell_support(sizes):
    """q_bell(n) has no zero coefficient in degrees 0..width(n), and as
    many nonzero coefficients as the realized (area, bounce) pairs have
    distinct totals: the paper's count theorem, read off Haglund's formula
    (`extremal.ab_level_map`) instead of enumerated paths."""
    for n in sizes:
        coeffs = qbell.q_bell(n)
        width = qbell.ab_interval_width(n)
        if len(coeffs) != width + 1 or any(c <= 0 for c in coeffs):
            return {"n": n, "coeffs": list(coeffs)}
        totals = set(extremal.ab_level_map(n))
        nonzero = sum(1 for c in coeffs if c)
        if len(totals) != nonzero:
            return {"n": n, "distinct_totals": len(totals), "nonzero_coeffs": nonzero}


def check_bell_evaluation(sizes):
    for n in sizes:
        if qbell.poly_eval(qbell.q_bell(n), 1) != qbell.bell_number(n):
            return {"n": n}


def check_q_binomial_lattice(sizes):
    """Gaussian polynomial == area generating function of monotone lattice
    paths in a k x (m-k) box, for every m <= 8."""
    for m in range(9):
        for k in range(m + 1):
            # a path is its k weakly increasing column heights in 0..m-k
            want = [0] * (k * (m - k) + 1)
            for heights in itertools.combinations_with_replacement(range(m - k + 1), k):
                want[sum(heights)] += 1
            if tuple(want) != qbell.q_binomial(m, k):
                return {"m": m, "k": k}


def check_distinct_ab_brute(sizes):
    """The enumerated (area, bounce) pairs are the keys `ab_level_map`
    files under their totals, and their totals span the width interval."""
    for n in sizes:
        pairs = set(paths.iter_area_bounce(n))
        # a key filed under the wrong total counts as missing
        listed = {k for s, ks in extremal.ab_level_map(n).items() for k in ks if sum(k) == s}
        if listed != pairs:
            return {"n": n, "missing": sorted(pairs - listed), "extra": sorted(listed - pairs)}
        totals = {a + b for a, b in pairs}
        if len(totals) != qbell.distinct_ab_count(n):
            return {"n": n, "brute": len(totals)}
        if n >= 1 and (
            min(totals) != math.comb(n, 2) - qbell.ab_interval_width(n)
            or max(totals) != math.comb(n, 2)
        ):
            return {"n": n, "min": min(totals), "max": max(totals)}


def check_f_symmetry(sizes):
    for n in sizes:
        table = qbell.qt_catalan(n)
        brute = qbell.BivariateTable.from_pairs(n, paths.iter_area_bounce(n))
        if table.rows != brute.rows:
            return {"n": n, "reason": "table differs from enumeration"}
        if not table.is_symmetric():
            return {"n": n}
        if table.total() != paths.catalan(n):
            return {"n": n, "total": table.total()}
        support = table.support_totals()
        if n >= 1 and support != (extremal.min_ab(n), extremal.max_ab(n)):
            return {"n": n, "support": support}


# ---------------------------------------------------------------- suites


SUITES = {
    "statistics": [
        ("figure-one-exact", None, check_figure_one),
        ("word-round-trip", range(10), check_word_round_trip),
        ("product-formula", range(1, 11), check_product_formula),
        ("conjugate-ab-pairs", range(1, 13), check_conjugate_pairs),
        ("bounce-path-fixed-point", range(1, 10), check_bounce_path_fixed_point),
    ],
    "operators": [
        ("operator-deltas", range(1, 9), check_operator_deltas),
        ("inverse-pairs", range(1, 9), check_inverse_pairs),
        ("bottom-absorption", None, check_bottom_absorption),
        ("shape-lemmas", range(1, 9), check_shape_lemmas),
        ("existence-scans", range(1, 9), check_existence_scans),
    ],
    "bijection": [
        ("certificate-ab-pairs", range(1, 11), check_certificate_pairs),
        ("flip-round-trip", range(1, 11), check_flip_round_trip),
        ("classify-consistency", range(1, 10), check_classify_consistency),
        ("count-bounds", range(5, 13), check_count_bounds),
        ("flip-closure-symmetry", range(1, 11), check_flip_closure_symmetry),
    ],
    "gamma": [
        ("extended-pairs-build", range(1, 10), check_extended_pairs),
        ("commutation", range(1, 10), check_commutation),
        ("extended-round-trip", range(1, 10), check_extended_round_trip),
    ],
    "minimal": [
        ("minimal-sets", range(1, 10), check_minimal_sets),
        ("flip-minimal-bijection", range(1, 10), check_flip_minimal),
        ("minimal-figure-counts", range(7, 8), check_minimal_figures),
    ],
    "levels": [
        ("nonemptiness-symmetry", range(1, 11), check_symmetry),
        ("construct-exact", range(1, 10), check_construct),
        ("interpolation", range(1, 10), check_interpolation),
        ("top-levels", range(3, 10), check_top_levels),
        ("ab-interval", range(1, 11), check_ab_interval),
        ("bounce-interval-conjecture", range(1, 10), check_bounce_interval_conjecture),
    ],
    "qbell": [
        ("distinct-ab-reference", None, check_distinct_ab_reference),
        ("qbell-support", range(31), check_qbell_support),
        ("bell-evaluation", range(21), check_bell_evaluation),
        ("q-binomial-lattice", None, check_q_binomial_lattice),
        ("distinct-ab-brute", range(13), check_distinct_ab_brute),
        ("f-symmetry", range(12), check_f_symmetry),
    ],
}


def _describe(sizes) -> str:
    if sizes is None:
        return "fixed"
    if not sizes:
        return f"n>={sizes.start}"
    first, last = sizes[0], sizes[-1]
    return f"n={first}" if first == last else f"{first}<=n<={last}"


def run_suite(name: str, n_max: int) -> list:
    """Run one suite (or `all`) capped at n_max; deterministic order.

    Each check's declared semilengths are cut to n_max.  A check whose cut
    range is empty is reported as skipped without being called; a fixed
    check (sizes None) runs at every cap."""
    if n_max < 0:
        raise ValueError(f"cap {n_max} is negative")
    if name == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif name in SUITES:
        checks = SUITES[name]
    else:
        known = ", ".join(sorted(SUITES) + ["all"])
        raise ValueError(f"unknown suite {name!r}; expected one of: {known}")
    reports = []
    for check_name, sizes, fn in checks:
        if sizes is not None:
            # cap the stop, not a slice: a slice length goes negative below start
            sizes = range(sizes.start, min(sizes.stop, n_max + 1))
        skipped = sizes is not None and not sizes
        start = time.perf_counter()
        counterexample = None if skipped else fn(sizes)
        elapsed = time.perf_counter() - start
        reports.append(
            CheckReport(
                name=check_name,
                n_range=f"{_describe(sizes)} (cap {n_max})",
                passed=counterexample is None,
                counterexample=counterexample,
                seconds=elapsed,
                skipped=skipped,
            )
        )
    return reports


def format_table(reports) -> str:
    width = max(len(r.name) for r in reports)
    lines = []
    for r in reports:
        status = "skip" if r.skipped else "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.seconds:8.3f}s  {r.n_range}")
        if not r.passed and r.counterexample is not None:
            lines.append(f"{'':<{width}}  counterexample: {r.counterexample}")
    total = sum(r.seconds for r in reports)
    failed = sum(1 for r in reports if not r.passed)
    skipped = sum(1 for r in reports if r.skipped)
    lines.append(
        f"{len(reports)} checks, {failed} failed, {skipped} skipped, {total:.3f}s total"
    )
    return "\n".join(lines)
