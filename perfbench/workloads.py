"""The three workloads, run inside a fresh child interpreter.

tables   the bulk exact build a researcher runs once per n: paths
         enumeration, the extremal level build and q-Bell do the work; ops
         and bijection do none.
queries  one closed-loop caller sending path words beyond enumeration
         reach: ops and bijection do the work, with no enumeration and no
         shared cache.
verify   `dyckab verify --suite all --n 10` in process: every layer, with
         the level caches filled once and re-read across checks.

Library calls go through module attributes at call time, so the tracer's
wrappers see them.  Every operation checks its answer against values from
`reference`, never against the layer under test.

Work is timed on the child's work clock (workclock.py): the thread's CPU
time without the calibration slices, scaled to a reference core speed.
The library is single-threaded and does no I/O, so CPU time covers its
work.  Elapsed time is kept too.
"""

from __future__ import annotations

import collections
import io
import math
import time
from contextlib import nullcontext, redirect_stdout

from dyckab import bijection, cli, extremal, oracle, ops, qbell
from dyckab.paths import DyckPath

import reference

EXPECTED_CHECKS = 33


class WrongAnswer(Exception):
    pass


def expect(ok, what):
    if not ok:
        raise WrongAnswer(what)


def run(job, tracer, clock) -> dict:
    """Run one workload: work-clock and elapsed time, per-operation
    work-clock latencies and failures."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if job["workload"] == "verify":
        result = _verify(job["sizes"], span, clock)
    elif job["workload"] == "tables":
        result = _run_ops(_tables(job), span, clock)
    else:
        kinds = collections.Counter()
        result = _run_ops(_queries(job, kinds), span, clock)
        _check_tally(result, kinds, job["tally"])
    result["failures"] = result["failures"][:5]
    return result


def _run_ops(operations, span, clock) -> dict:
    latencies, failures = [], []
    wall, start = time.perf_counter(), clock.now()
    for name, op in operations:
        t0 = clock.now()
        try:
            with span(name):
                op()
        except Exception as exc:  # a wrong answer or a crash fails this operation only
            failures.append(f"{name}: {exc!r}")
        latencies.append(clock.now() - t0)
    return {
        "cpu_s": clock.now() - start,
        "wall_s": time.perf_counter() - wall,
        "latencies_s": latencies,
        "attempted": len(operations),
        "failed": len(failures),
        "failures": failures,
    }


# -- tables --------------------------------------------------------------------


def _tables(job) -> list:
    n_qt, n_lv, n_bell = job["sizes"]
    top = math.comb(n_lv, 2)
    lv_min_ab = top - reference.interval_width(n_lv)
    qt_total = reference.catalan(n_qt)
    lv_total = reference.catalan(n_lv)
    bell = reference.bell(n_bell)
    bell_terms = reference.interval_width(n_bell) + 1

    def qt_catalan():
        rows = qbell.qt_catalan(n_qt).rows
        expect(sum(map(sum, rows)) == qt_total, "total is not the Catalan number")
        expect(
            all(rows[i][j] == rows[j][i] for i in range(len(rows)) for j in range(i)),
            "table is not symmetric",
        )

    def levels():
        """level_sets with the reports built on it: one table."""
        level_sets = extremal.level_sets(n_lv)
        keys = set(level_sets)
        expect(sum(map(len, level_sets.values())) == lv_total,
               "level sizes do not sum to the Catalan number")
        by_total = extremal.ab_level_map(n_lv)
        listed = [k for ks in by_total.values() for k in ks]
        expect(sorted(listed) == sorted(keys), "ab_level_map lost or repeated a level")
        expect(all(a + b == s for s, ks in by_total.items() for a, b in ks), "wrong total")
        report = extremal.nonemptiness_symmetry(n_lv)
        expect(all((b, a) in keys for a, b in keys), "realized pairs are not symmetric")
        expect(report["symmetric"] and report["levels"] == len(keys), f"report {report}")
        report = extremal.top_levels(n_lv)
        expect(report["max_ab"] == top and report["top_count"] == top + 1, f"report {report}")
        expect(report["min_ab"] == report["observed_min_ab"] == lv_min_ab, f"report {report}")

    def q_bell():
        coeffs = qbell.q_bell(n_bell)
        expect(sum(coeffs) == bell, "value at q=1 is not the Bell number")
        expect(
            len(coeffs) == bell_terms and all(c > 0 for c in coeffs),
            "positive coefficients do not fill 0..width",
        )

    return [
        ("table.qt_catalan", qt_catalan),
        ("table.levels", levels),
        ("table.q_bell", q_bell),
    ]


# -- queries -------------------------------------------------------------------


def query(word, area, bounce) -> str:
    """Parse, record, every shift/up with its inverse, classify, and the
    flip round trip on members; returns the classify kind."""
    path = DyckPath.from_word(word)
    record = path.to_record()
    expect(
        (record["word"], record["area"], record["bounce"]) == (word, area, bounce),
        f"record of {word}",
    )
    for i in range(1, len(record["bounce_points"])):
        moved = ops.shift(path, i)
        if moved is not ops.BOTTOM:
            expect((moved.area(), moved.bounce()) == (area, bounce + 1), f"shift {i} of {word}")
            expect(ops.unshift(moved, i) == path, f"unshift {i} of {word}")
        moved = ops.up(path, i)
        if moved is not ops.BOTTOM:
            expect((moved.area(), moved.bounce()) == (area - 1, bounce + 1), f"up {i} of {word}")
            expect(ops.down(moved, i) == path, f"down {i} of {word}")
    kind = bijection.classify(path)
    if kind.area_certificate is not None:
        image = bijection.phi(path)
        expect((image.area(), image.bounce()) == (bounce, area), f"phi of {word}")
        expect(bijection.phi_inverse(image) == path, f"phi_inverse of phi of {word}")
    if kind.bounce_certificate is not None:
        image = bijection.phi_inverse(path)
        expect((image.area(), image.bounce()) == (bounce, area), f"phi_inverse of {word}")
        expect(bijection.phi(image) == path, f"phi of phi_inverse of {word}")
    return kind.kind


def _queries(job, kinds) -> list:
    def op(word, ab):
        kinds[query(word, *ab)] += 1

    return [
        ("query", lambda w=word, ab=ab: op(w, ab))
        for word, ab in zip(job["words"], job["refs"])
    ]


def _check_tally(result, kinds, tally):
    """Membership is gated from outside: the classify kinds of the stream
    must add up to the tally pinned in `reference` for this seed.  A failed
    query is not tallied and moves the tally by one; each wrongly
    classified one moves it by two.  So at least half of what the failed
    queries leave of the distance between the tallies is wrongly
    classified queries, and that many fail too."""
    if tally is None:
        return
    got = tuple(kinds[kind] for kind in reference.CLASSIFY_KINDS)
    distance = sum(abs(a - b) for a, b in zip(got, tally))
    wrong = -(-max(0, distance - result["failed"]) // 2)
    if wrong:
        result["failed"] += wrong
        result["failures"].insert(0, f"classify tally {got}, expected {tally}"
                                     f" ({', '.join(reference.CLASSIFY_KINDS)})")


# -- verify --------------------------------------------------------------------


def _verify(n_max, span, clock) -> dict:
    """`cli.main` with stdout captured; one operation per check, its latency
    the work-clock time of the check function."""
    captured, latencies = [], []
    run_suite = oracle.run_suite
    suites = dict(oracle.SUITES)

    def capture(*args, **kwargs):
        reports = run_suite(*args, **kwargs)
        captured.append(reports)
        return reports

    def timed(fn):
        def check(n):
            t0 = clock.now()
            try:
                return fn(n)
            finally:
                latencies.append(clock.now() - t0)
        return check

    argv = ["verify", "--suite", "all", "--n", str(n_max)]
    oracle.run_suite = capture
    for suite, checks in suites.items():
        oracle.SUITES[suite] = [(name, rng, timed(fn)) for name, rng, fn in checks]
    error = None
    wall, start = time.perf_counter(), clock.now()
    try:
        with span("verify"), redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # counted below as every check failing
        code, error = None, repr(exc)
    finally:
        cpu, wall = clock.now() - start, time.perf_counter() - wall
        oracle.run_suite = run_suite
        oracle.SUITES.update(suites)
    reports = captured[0] if captured else []
    failures = [f"{r.name}: {r.counterexample}" for r in reports if not r.passed]
    failed = len(failures)
    if code != 0 or len(reports) != EXPECTED_CHECKS:
        failed = EXPECTED_CHECKS
        failures.insert(0, f"exit code {code}, {len(reports)} checks, {error or 'no exception'}")
    return {
        "cpu_s": cpu,
        "wall_s": wall,
        "latencies_s": latencies or [cpu],
        "attempted": EXPECTED_CHECKS,
        "failed": failed,
        "failures": failures,
    }


def inject_fault(fault):
    """A wrong answer the benchmark must catch (used by the self-test).
    "bounce": DyckPath.bounce reads one too large, on every workload.
    "classify": classify puts every path in neither flip set."""
    if fault == "bounce":
        bounce = DyckPath.bounce
        DyckPath.bounce = lambda self: bounce(self) + 1
    elif fault == "classify":
        bijection.classify = lambda path: bijection.Classification(None, None)
    else:
        raise ValueError(f"unknown fault {fault!r}")
