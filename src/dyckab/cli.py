"""Command-line front end.

Every verb is a thin shell over one library call.  Semantic bottom results
print "bottom" and exit 0 (a defined outcome scripts can probe); usage
errors, and inputs that exhaust memory or the stack, print one
"error: ..." line on stderr and exit 2, with no traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import bijection, extremal, ops, oracle, qbell
from .ops import BOTTOM
from .paths import DyckPath, enumerate_paths

# Largest semilength `minimal` and `construct` accept: both read the level
# table, which refuses larger n with a ValueError (exit 2 here).
ENUMERATION_CAP = extremal.ENUMERATION_CAP


def render(path, show_bounce=False, show_floating=False) -> str:
    """ASCII picture: row n first, one glyph per cell.

    '#' marks an area cell, 'o' a floating one when requested, '.'
    everything else; a stats footer follows, plus the bounce path data
    when requested.
    """
    n = path.n
    x = path.row_starts
    floating = set(path.floating_cells()) if show_floating else set()
    lines = []
    for r in range(n, 0, -1):
        row = []
        for c in range(1, n + 1):
            if x[r - 1] < c <= r - 1:
                row.append("o" if (r, c) in floating else "#")
            else:
                row.append(".")
        lines.append("".join(row))
    lines.append(f"a={path.area()} b={path.bounce()}")
    if show_bounce:
        alpha = ",".join(map(str, path.bounce_composition()))
        points = ",".join(map(str, path.bounce_points()))
        lines.append(f"bounce alpha=({alpha}) points=({points})")
    return "\n".join(lines)


_OP_TOKEN = re.compile(r"^([ACSUDB])(\d+)(?::(\d+))?(?:\^(-?\d+))?$")

# Operator letter -> names of (forward, inverse) in `ops`, looked up at
# call time so that a rebound module name (a tracer's wrapper) is the one
# called; B, the boost, has no inverse.
_OPERATORS = {
    "A": ("add_area_cell", "remove_area_cell"),
    "C": ("add_column_cell", "remove_column_cell"),
    "S": ("shift", "unshift"),
    "U": ("up", "down"),
    "D": ("down", "up"),
}


def apply_operator_string(path, spec: str):
    """Apply a comma-separated operator word left to right.

    Tokens: A4, C3^-1, S1, S2^-1, U2, D1, B1:2 (bounce boost i=1, k=2);
    ^p repeats, ^-p applies the inverse p times (A/C/S only).
    """
    cur = path
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        m = _OP_TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse operator token {token!r}")
        letter, idx, boost, power = m.groups()
        idx = int(idx)
        power = int(power) if power is not None else 1
        if letter == "B":
            if boost is None:
                raise ValueError(f"B token needs a boost amount: {token!r}")
            if power != 1:
                raise ValueError(f"B token takes no power: {token!r}")
            cur = ops.bounce_boost(cur, idx, int(boost))
        else:
            if boost is not None:
                raise ValueError(f"only B tokens take ':k': {token!r}")
            forward, inverse = _OPERATORS[letter]
            fn = getattr(ops, forward if power > 0 else inverse)
            for _ in range(abs(power)):
                cur = fn(cur, idx)
                if cur is BOTTOM:
                    return BOTTOM
        if cur is BOTTOM:
            return BOTTOM
    return cur


def _print_path_or_bottom(result):
    print("bottom" if result is BOTTOM else result.word)


def _cert_json(cert):
    return json.dumps(cert.to_json_dict())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyckab",
        description="Dyck path area/bounce toolkit: statistics, operators, "
        "flip bijections, extremal reports, polynomial tables, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="list all paths of semilength n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["words", "json"], default="words")

    p = sub.add_parser("stats", help="statistics of one path")
    p.add_argument("--path", required=True)

    p = sub.add_parser("render", help="ASCII picture of one path")
    p.add_argument("--path", required=True)
    p.add_argument("--bounce", action="store_true")
    p.add_argument("--floating", action="store_true")

    p = sub.add_parser("op", help="apply an operator word")
    p.add_argument("--path", required=True)
    p.add_argument("--apply", required=True, metavar="SPEC")

    p = sub.add_parser("phi", help="area-bounce flip")
    p.add_argument("--path", required=True)
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser("classify", help="flip membership with certificates")
    p.add_argument("--path", required=True)

    p = sub.add_parser("gamma", help="two-stage area-bounce flip")
    p.add_argument("--path", required=True)
    p.add_argument("--inverse", action="store_true")

    p = sub.add_parser(
        "minimal", help=f"area- or bounce-minimal paths (n <= {ENUMERATION_CAP})"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["area", "bounce"], required=True)

    p = sub.add_parser(
        "construct", help=f"find a path with given statistics (n <= {ENUMERATION_CAP})"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--area", type=int, required=True)
    p.add_argument("--bounce", type=int, required=True)

    p = sub.add_parser("levels", help="(area, bounce) level counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("fqt", help="joint area/bounce coefficient table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("qbell", help="q-Bell polynomial")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("sequence", help="distinct-total or width sequence")
    p.add_argument("--name", choices=["d", "g"], required=True)
    p.add_argument("--count", type=int, required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true", help="JSON lines output")

    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (ValueError, bijection.NotInDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        # an input too large for this process: one line, no traceback
        reason = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"error: {reason}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "enum":
        for path in enumerate_paths(args.n):
            if args.format == "json":
                print(json.dumps(path.to_record()))
            else:
                print(path.word)
        return 0

    if args.command == "stats":
        record = DyckPath.from_word(args.path).to_record()
        for key in (
            "n", "word", "area", "bounce", "alpha",
            "bounce_points", "area_seq", "floating",
        ):
            print(f"{key}: {record[key]}")
        return 0

    if args.command == "render":
        print(render(DyckPath.from_word(args.path), args.bounce, args.floating))
        return 0

    if args.command == "op":
        result = apply_operator_string(DyckPath.from_word(args.path), args.apply)
        _print_path_or_bottom(result)
        return 0

    if args.command == "phi":
        path = DyckPath.from_word(args.path)
        image = bijection.phi_inverse(path) if args.inverse else bijection.phi(path)
        print(image.word)
        return 0

    if args.command == "classify":
        cls = bijection.classify(DyckPath.from_word(args.path))
        print(f"kind: {cls.kind}")
        if cls.area_certificate:
            print(f"area-side certificate: {_cert_json(cls.area_certificate)}")
        if cls.bounce_certificate:
            print(f"bounce-side certificate: {_cert_json(cls.bounce_certificate)}")
        return 0

    if args.command == "gamma":
        path = DyckPath.from_word(args.path)
        image = (
            bijection.gamma_inverse(path) if args.inverse else bijection.gamma(path)
        )
        print(image.word)
        return 0

    if args.command == "minimal":
        fn = extremal.area_minimal if args.kind == "area" else extremal.bounce_minimal
        for path in fn(args.n):
            print(f"{path.word} a={path.area()} b={path.bounce()}")
        return 0

    if args.command == "construct":
        built = extremal.construct_path(args.n, args.area, args.bounce)
        print(built.word if built is not None else "none exists")
        return 0

    if args.command == "levels":
        rows = qbell.qt_catalan(args.n).rows
        line = "{},{},{}" if args.csv else "a={} b={} count={}"
        if args.csv:
            print("area,bounce,count")
        for a, row in enumerate(rows):
            for b, count in enumerate(row):
                if count:
                    print(line.format(a, b, count))
        return 0

    if args.command == "fqt":
        table = qbell.qt_catalan(args.n)
        if args.csv:
            sys.stdout.write(table.to_csv())
        else:
            support = table.support_totals()
            print(f"n={args.n} paths={table.total()} symmetric={table.is_symmetric()}")
            print(f"support totals: {support}")
        return 0

    if args.command == "qbell":
        coeffs = qbell.q_bell(args.n)
        print(qbell.poly_to_string(coeffs))
        return 0

    if args.command == "sequence":
        if args.count < 0:
            raise ValueError("count must be nonnegative")
        fn = (
            qbell.distinct_ab_count
            if args.name == "d"
            else qbell.ab_interval_width
        )
        print(" ".join(str(fn(k)) for k in range(args.count)))
        return 0

    if args.command == "verify":
        reports = oracle.run_suite(args.suite, args.n)
        if args.json:
            for report in reports:
                print(report.to_json())
        else:
            print(oracle.format_table(reports))
        return 0 if all(r.passed for r in reports) else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
