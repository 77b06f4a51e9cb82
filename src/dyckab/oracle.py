"""Brute-force verification harness.

Each named check re-derives everything it asserts from path words and
exhaustive enumeration, never trusting the fast paths it is checking.
Failures always carry a replayable counterexample (path words, index,
certificate).  A check returns (passed, counterexample), or None when its
range holds nothing below the cap: it is reported as skipped, which counts
as passed.  Suites bundle the checks by module; `all` runs everything.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

from . import bijection, extremal, ops, paths, qbell
from .ops import BOTTOM


@dataclass
class CheckReport:
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


def _record(path):
    return path.to_record()


# ---------------------------------------------------------------- statistics


def check_figure_one(n_max):
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
    got = _record(p)
    if got != expected:
        return False, {"got": got, "expected": expected}
    return True, None


def check_word_round_trip(n_max):
    """Every path survives its word, and the enumerator's carried
    (area, bounce) equal the methods' path by path, in order."""
    for n in range(min(n_max, 9) + 1):
        carried = paths.iter_area_bounce(n)
        for p in paths.enumerate_paths(n):
            q = paths.DyckPath.from_word(p.word)
            if q != p:
                return False, {"path": _record(p)}
            stats = next(carried, None)
            if stats != (p.area(), p.bounce()):
                return False, {"path": _record(p), "carried": stats}
        if next(carried, None) is not None:
            return False, {"n": n, "reason": "carried stats outnumber paths"}
    return True, None


def check_product_formula(n_max):
    for n in range(1, min(n_max, 10) + 1):
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
                return False, {"n": n, "alpha": alpha, "formula": want, "brute": got}
        if total != paths.catalan(n):
            return False, {"n": n, "sum": total, "catalan": paths.catalan(n)}
    return True, None


def check_conjugate_pairs(n_max):
    for n in range(1, min(n_max, 12) + 1):
        for lam in paths.partitions(n):
            lamp = paths.conjugate(lam)
            p = paths.DyckPath.from_composition(n, lam)
            q = paths.DyckPath.from_composition(n, lamp)
            if p.area() != q.bounce() or p.bounce() != q.area():
                return False, {"lambda": lam}
            if paths.conjugate(lamp) != lam:
                return False, {"lambda": lam, "reason": "conjugation not involutive"}
            if len(paths.distinct_parts(lam)) != len(paths.distinct_parts(lamp)):
                return False, {"lambda": lam, "reason": "distinct part counts differ"}
    return True, None


def check_bounce_path_fixed_point(n_max):
    for n in range(1, min(n_max, 9) + 1):
        for p in paths.enumerate_paths(n):
            bp = p.bounce_path()
            if bp.bounce() != p.bounce() or bp.bounce_path() != bp:
                return False, {"path": _record(p)}
            if bp.area() > p.area():
                return False, {"path": _record(p), "reason": "bounce path above path"}
    return True, None


# ---------------------------------------------------------------- operators


def _bounce_indices(p):
    return range(1, len(p.bounce_points()))


def check_operator_deltas(n_max):
    for n in range(1, min(n_max, 8) + 1):
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
                        return False, {"op": "shift", "path": _record(p), "i": i}
                q = ops.up(p, i)
                if q is not BOTTOM and (q.area() != a0 - 1 or q.bounce() != b0 + 1):
                    return False, {"op": "up", "path": _record(p), "i": i}
                q = ops.down(p, i)
                if q is not BOTTOM and (q.area() != a0 + 1 or q.bounce() != b0 - 1):
                    return False, {"op": "down", "path": _record(p), "i": i}
    return True, None


def check_inverse_pairs(n_max):
    for n in range(1, min(n_max, 8) + 1):
        for p in paths.enumerate_paths(n):
            m = len(p.bounce_points()) - 1
            for i in range(1, m + 1):
                q = ops.shift(p, i)
                if q is not BOTTOM and ops.unshift(q, i) != p:
                    return False, {"op": "unshift.shift", "path": _record(p), "i": i}
                q = ops.unshift(p, i)
                if q is not BOTTOM and ops.shift(q, i) != p:
                    return False, {"op": "shift.unshift", "path": _record(p), "i": i}
                q = ops.up(p, i)
                if q is not BOTTOM and ops.down(q, i) != p:
                    return False, {"op": "down.up", "path": _record(p), "i": i}
                q = ops.down(p, i)
                if q is not BOTTOM and ops.up(q, i) != p:
                    return False, {"op": "up.down", "path": _record(p), "i": i}
    return True, None


def check_bottom_absorption(n_max):
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
            return False, {"operator_index": k}
    return True, None


def check_shape_lemmas(n_max):
    """Classes refusing every down have strict-partition compositions and
    area >= bounce; classes refusing every up consist of minimal gapless
    paths ending in a part 1 and have area <= bounce."""
    for n in range(1, min(n_max, 8) + 1):
        for (area, alpha), members in extremal._class_index(n).items():
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
                    return False, {"n": n, "alpha": alpha, "lemma": "no-down shape"}
                if area < bounce:
                    return False, {"n": n, "alpha": alpha, "lemma": "no-down a>=b"}
            if no_up:
                p = members[0]
                ok = (
                    all(t.is_minimal() for t in members)
                    and alpha[-1] == 1
                    and all(
                        alpha[i] - alpha[i + 1] <= 1 for i in range(len(alpha) - 1)
                    )
                )
                if not ok:
                    return False, {"n": n, "alpha": alpha, "lemma": "no-up shape"}
                if area > bounce:
                    return False, {"n": n, "alpha": alpha, "lemma": "no-up a<=b"}
    return True, None


def check_existence_scans(n_max):
    for n in range(1, min(n_max, 8) + 1):
        for p in paths.enumerate_paths(n):
            pts = p.bounce_points()
            m = len(pts) - 1
            a = p.area_sequence()
            h = p.column_heights()
            for i in range(1, m):
                if a[pts[i]] == pts[i] - pts[i - 1] - 1:
                    j = ops.existence_scan_down(p, i)
                    if j is None or not (i <= j <= m - 1):
                        return False, {"scan": "down", "path": _record(p), "i": i, "j": j}
                    if ops.down(p, j) is BOTTOM:
                        return False, {"scan": "down", "path": _record(p), "i": i, "j": j}
                if h[pts[i] - 1] == pts[i + 1]:
                    j = ops.existence_scan_up(p, i)
                    if j is None or not (1 <= j <= i):
                        return False, {"scan": "up", "path": _record(p), "i": i, "j": j}
                    if ops.up(p, j) is BOTTOM:
                        return False, {"scan": "up", "path": _record(p), "i": i, "j": j}
    return True, None


# ---------------------------------------------------------------- bijection


def check_certificate_pairs(n_max):
    for n in range(1, min(n_max, 10) + 1):
        for cert in bijection.iter_certificates(n):
            lam, f = cert.partition, cert.count_map
            left = bijection.apply_area_map(lam, f)
            right = bijection.apply_bounce_map(paths.conjugate(lam), f)
            if left is BOTTOM or right is BOTTOM:
                return False, {"certificate": cert.to_json_dict()}
            if left.area() != right.bounce() or left.bounce() != right.area():
                return False, {
                    "certificate": cert.to_json_dict(),
                    "left": _record(left),
                    "right": _record(right),
                }
            delta = cert.total
            base = paths.DyckPath.from_composition(n, lam)
            if left.area() != base.area() + delta or left.bounce() != base.bounce():
                return False, {
                    "certificate": cert.to_json_dict(),
                    "reason": "area side stats",
                }
    return True, None


def check_flip_round_trip(n_max):
    for n in range(1, min(n_max, 10) + 1):
        area_side, bounce_side = bijection.flip_sets(n)
        if len(area_side) != len(bounce_side):
            return False, {"n": n, "reason": "side sizes differ"}
        for p in area_side:
            q = bijection.phi(p)
            if q not in bounce_side or bijection.phi_inverse(q) != p:
                return False, {"n": n, "path": _record(p)}
            if q.area() != p.bounce() or q.bounce() != p.area():
                return False, {"n": n, "path": _record(p), "reason": "stats not flipped"}
        for q in bounce_side:
            p = bijection.phi_inverse(q)
            if p not in area_side or bijection.phi(p) != q:
                return False, {"n": n, "path": _record(q)}
    return True, None


def check_classify_consistency(n_max):
    for n in range(1, min(n_max, 9) + 1):
        area_side, bounce_side = bijection.flip_sets(n)
        for p in paths.enumerate_paths(n):
            cls = bijection.classify(p)
            in_af = p in area_side
            in_bf = p in bounce_side
            if (cls.area_certificate is not None) != in_af:
                return False, {"n": n, "path": _record(p), "side": "area"}
            if (cls.bounce_certificate is not None) != in_bf:
                return False, {"n": n, "path": _record(p), "side": "bounce"}
            if in_af and cls.area_certificate != area_side[p]:
                return False, {"n": n, "path": _record(p), "reason": "area certificate"}
            if in_bf and cls.bounce_certificate != bounce_side[p]:
                return False, {"n": n, "path": _record(p), "reason": "bounce certificate"}
    return True, None


def check_count_bounds(n_max):
    if n_max < 5:
        return None
    for n in range(5, min(n_max, 12) + 1):
        area_side, bounce_side = bijection.flip_sets(n)
        size = len(set(area_side) | set(bounce_side))
        if not 2 * _fib(n + 1) <= size <= 2**n:
            return False, {"n": n, "size": size, "fib_bound": 2 * _fib(n + 1)}
    return True, None


def check_flip_closure_symmetry(n_max):
    for n in range(1, min(n_max, 10) + 1):
        table = qbell.qt_flip_closure(n)
        if not table.is_symmetric():
            return False, {"n": n}
    return True, None


# ---------------------------------------------------------------- gamma


def check_extended_pairs(n_max):
    for n in range(1, min(n_max, 9) + 1):
        for cert in bijection.iter_extended_certificates(n):
            sigma, tau = bijection.build_extended_pair(cert)
            if sigma is BOTTOM or tau is BOTTOM:
                return False, {"n": n, "partition": cert.partition}
            if sigma.area() != tau.bounce() or sigma.bounce() != tau.area():
                return False, {"n": n, "sigma": _record(sigma), "tau": _record(tau)}
    return True, None


def check_commutation(n_max):
    for n in range(1, min(n_max, 9) + 1):
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
                return False, {"n": n, "partition": lam, "side": "area"}
            other = bijection.apply_area_map(lamp, g)
            for (i, r) in sorted(f):
                if f[(i, r)]:
                    other = ops.bounce_boost(
                        other, bijection.bounce_map(lamp, i, r), f[(i, r)]
                    )
            if other != tau:
                return False, {"n": n, "partition": lam, "side": "bounce"}
    return True, None


def check_extended_round_trip(n_max):
    for n in range(1, min(n_max, 9) + 1):
        left, right = bijection.extended_flip_sets(n)
        if len(left) != len(right):
            return False, {"n": n, "reason": "side sizes differ"}
        for sigma, cert in left.items():
            tau = bijection.gamma(sigma)
            if right.get(tau) != cert or bijection.gamma_inverse(tau) != sigma:
                return False, {"n": n, "path": _record(sigma)}
    return True, None


# ---------------------------------------------------------------- minimal


def check_minimal_sets(n_max):
    """Both minimal sets equal the brute-force minima of each level, taken
    from the `area()`/`bounce()` of every path; the bounce side equals its
    shape characterization, and the area side meets its necessary
    conditions."""
    for n in range(1, min(n_max, 9) + 1):
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
                return False, {"n": n, "side": f"{side} brute force"}
        if sorted(bmin) != characterized:
            return False, {"n": n, "side": "bounce characterization"}
        for p in amin:
            if not extremal.satisfies_area_minimal_conditions(p):
                return False, {"n": n, "path": _record(p), "side": "area necessity"}
    return True, None


def _keep_least(least, level, value, path):
    """Keep in least[level] the least value seen so far and its paths."""
    kept = least.get(level)
    if kept is None or value < kept[0]:
        least[level] = (value, [path])
    elif value == kept[0]:
        kept[1].append(path)


def check_flip_minimal(n_max):
    for n in range(1, min(n_max, 9) + 1):
        bmin = extremal.bounce_minimal(n)
        amin = set(extremal.area_minimal(n))
        image = set()
        for p in bmin:
            q = bijection.phi(p)
            if q.area() != p.bounce() or q.bounce() != p.area():
                return False, {"n": n, "path": _record(p), "reason": "stats"}
            image.add(q)
        if image != amin:
            return False, {"n": n, "reason": "image differs from area-minimal set"}
    return True, None


def check_minimal_figures(n_max):
    if n_max < 7:
        return None
    lv = extremal.level_sets(7)
    bmin = extremal.bounce_minimal(7)
    values = {p.ab() for p in bmin}
    facts = {
        "distinct ab over minimal": (len(values), 11),
        "P7(2,13)": (len(lv.get((2, 13), [])), 2),
        "P7(13,2)": (len(lv.get((13, 2), [])), 2),
        "size B(7)": (len(bmin), 12),
        "size A(7)": (len(extremal.area_minimal(7)), 12),
    }
    for key, (got, want) in facts.items():
        if got != want:
            return False, {"fact": key, "got": got, "expected": want}
    return True, None


# ---------------------------------------------------------------- levels


def check_symmetry(n_max):
    for n in range(1, min(n_max, 10) + 1):
        report = extremal.nonemptiness_symmetry(n)
        if not report["symmetric"]:
            return False, report
    return True, None


def check_construct(n_max):
    for n in range(1, min(n_max, 9) + 1):
        realized = set(extremal.level_sets(n))
        top = math.comb(n, 2)
        for a in range(top + 1):
            for b in range(top + 1 - a):
                built = extremal.construct_path(n, a, b)
                if ((a, b) in realized) != (built is not None):
                    return False, {"n": n, "a": a, "b": b}
                if built is not None and (built.area(), built.bounce()) != (a, b):
                    return False, {"n": n, "a": a, "b": b, "path": _record(built)}
    return True, None


def check_interpolation(n_max):
    for n in range(1, min(n_max, 9) + 1):
        report = extremal.interpolation_report(n)
        if not report["holds"]:
            return False, report
    return True, None


def check_top_levels(n_max):
    if n_max < 3:
        return None
    for n in range(3, min(n_max, 9) + 1):
        report = extremal.top_levels(n)
        ok = (
            report["top_count"] == report["top_expected"]
            and report["top_full_split"]
            and report["top_singletons"]
            and report["second_singletons"]
            and report["observed_min_ab"] == report["min_ab"]
        )
        if not ok:
            return False, report
    return True, None


def check_ab_interval(n_max):
    for n in range(1, min(n_max, 10) + 1):
        want = list(range(extremal.min_ab(n), extremal.max_ab(n) + 1))
        have = sorted(extremal.ab_level_map(n))
        if have != want:
            return False, {"n": n, "have": have}
        for x in want:
            p = extremal.ab_ladder(n, x)
            if p.ab() != x:
                return False, {"n": n, "x": x, "path": _record(p)}
    return True, None


def check_bounce_interval_conjecture(n_max):
    """Empirical support for an open conjecture; not a theorem."""
    for n in range(1, min(n_max, 9) + 1):
        report = extremal.bounce_interval_conjecture(n)
        if not report["holds"]:
            return False, report
    return True, None


# ---------------------------------------------------------------- qbell


def check_distinct_ab_reference(n_max):
    got = tuple(qbell.distinct_ab_count(n) for n in range(20))
    if got != qbell.DISTINCT_AB_FIRST_TWENTY:
        return False, {"got": list(got)}
    return True, None


def check_qbell_support(n_max):
    for n in range(min(n_max, 20) + 1):
        coeffs = qbell.q_bell(n)
        width = qbell.ab_interval_width(n)
        if len(coeffs) != width + 1 or any(c <= 0 for c in coeffs):
            return False, {"n": n, "coeffs": list(coeffs)}
    return True, None


def check_bell_evaluation(n_max):
    for n in range(min(n_max, 20) + 1):
        if qbell.poly_eval(qbell.q_bell(n), 1) != qbell.bell_number(n):
            return False, {"n": n}
    return True, None


def check_q_binomial_lattice(n_max):
    """Gaussian polynomial == area generating function of monotone lattice
    paths in a k x (m-k) box."""
    for m in range(0, 9):
        for k in range(0, m + 1):
            boxes = {}
            rows, cols = k, m - k

            def walk(r, used):
                if r == rows:
                    boxes[used] = boxes.get(used, 0) + 1
                    return
                lo = 0 if r == 0 else heights[r - 1]
                for v in range(lo, cols + 1):
                    heights[r] = v
                    walk(r + 1, used + v)

            heights = [0] * max(rows, 1)
            if rows == 0:
                boxes[0] = 1
            else:
                walk(0, 0)
            want = [0] * (rows * cols + 1)
            for deg, c in boxes.items():
                want[deg] += c
            while want and want[-1] == 0:
                want.pop()
            if tuple(want) != qbell.q_binomial(m, k):
                return False, {"m": m, "k": k}
    return True, None


def check_distinct_ab_brute(n_max):
    for n in range(min(n_max, 12) + 1):
        totals = {a + b for a, b in paths.iter_area_bounce(n)}
        if len(totals) != qbell.distinct_ab_count(n):
            return False, {"n": n, "brute": len(totals)}
        if n >= 1 and (
            min(totals) != math.comb(n, 2) - qbell.ab_interval_width(n)
            or max(totals) != math.comb(n, 2)
        ):
            return False, {"n": n, "min": min(totals), "max": max(totals)}
    return True, None


def check_f_symmetry(n_max):
    for n in range(min(n_max, 11) + 1):
        table = qbell.qt_catalan(n)
        brute = qbell.BivariateTable.from_pairs(n, paths.iter_area_bounce(n))
        if table.rows != brute.rows:
            return False, {"n": n, "reason": "table differs from enumeration"}
        if not table.is_symmetric():
            return False, {"n": n}
        if table.total() != paths.catalan(n):
            return False, {"n": n, "total": table.total()}
        support = table.support_totals()
        if n >= 1 and support != (extremal.min_ab(n), extremal.max_ab(n)):
            return False, {"n": n, "support": support}
    return True, None


# ---------------------------------------------------------------- suites


SUITES = {
    "statistics": [
        ("figure-one-exact", "n=7", check_figure_one),
        ("word-round-trip", "n<=9", check_word_round_trip),
        ("product-formula", "n<=10", check_product_formula),
        ("conjugate-ab-pairs", "n<=12", check_conjugate_pairs),
        ("bounce-path-fixed-point", "n<=9", check_bounce_path_fixed_point),
    ],
    "operators": [
        ("operator-deltas", "n<=8", check_operator_deltas),
        ("inverse-pairs", "n<=8", check_inverse_pairs),
        ("bottom-absorption", "-", check_bottom_absorption),
        ("shape-lemmas", "n<=8", check_shape_lemmas),
        ("existence-scans", "n<=8", check_existence_scans),
    ],
    "bijection": [
        ("certificate-ab-pairs", "n<=10", check_certificate_pairs),
        ("flip-round-trip", "n<=10", check_flip_round_trip),
        ("classify-consistency", "n<=9", check_classify_consistency),
        ("count-bounds", "4<n<=12", check_count_bounds),
        ("flip-closure-symmetry", "n<=10", check_flip_closure_symmetry),
    ],
    "gamma": [
        ("extended-pairs-build", "n<=9", check_extended_pairs),
        ("commutation", "n<=9", check_commutation),
        ("extended-round-trip", "n<=9", check_extended_round_trip),
    ],
    "minimal": [
        ("minimal-sets", "n<=9", check_minimal_sets),
        ("flip-minimal-bijection", "n<=9", check_flip_minimal),
        ("minimal-figure-counts", "n=7", check_minimal_figures),
    ],
    "levels": [
        ("nonemptiness-symmetry", "n<=10", check_symmetry),
        ("construct-exact", "n<=9", check_construct),
        ("interpolation", "n<=9", check_interpolation),
        ("top-levels", "3<=n<=9", check_top_levels),
        ("ab-interval", "n<=10", check_ab_interval),
        ("bounce-interval-conjecture", "n<=9", check_bounce_interval_conjecture),
    ],
    "qbell": [
        ("distinct-ab-reference", "n<=19", check_distinct_ab_reference),
        ("qbell-support", "n<=20", check_qbell_support),
        ("bell-evaluation", "n<=20", check_bell_evaluation),
        ("q-binomial-lattice", "m<=8", check_q_binomial_lattice),
        ("distinct-ab-brute", "n<=12", check_distinct_ab_brute),
        ("f-symmetry", "n<=11", check_f_symmetry),
    ],
}


def run_suite(name: str, n_max: int) -> list:
    """Run one suite (or `all`) capped at n_max; deterministic order."""
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
    for check_name, declared_range, fn in checks:
        start = time.perf_counter()
        outcome = fn(n_max)
        elapsed = time.perf_counter() - start
        passed, counterexample = (True, None) if outcome is None else outcome
        reports.append(
            CheckReport(
                name=check_name,
                n_range=f"{declared_range} (cap {n_max})",
                passed=passed,
                counterexample=counterexample,
                seconds=elapsed,
                skipped=outcome is None,
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
