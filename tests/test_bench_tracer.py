"""The benchmark's tracer (perfbench/tracer.py) names library functions
and DyckPath methods directly, its workloads (perfbench/workloads.py)
expect a fixed number of checks, and BENCHMARK.json names per-layer
metrics that the tracer's counters must yield; removing or renaming one,
or changing that number, must fail here, not in a benchmark run."""

import contextlib
import io
import pathlib
import sys

import dyckab
from dyckab import bijection, cli, extremal, oracle, ops, paths, qbell

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workclock import WorkClock  # noqa: E402


def test_verify_workload_check_count():
    assert len(oracle.run_suite("all", 4)) == workloads.EXPECTED_CHECKS


def test_verify_workload_runs_untraced_and_traced():
    # the workload rewraps each SUITES entry as (name, range, fn) and calls
    # fn with one argument; a change to that protocol fails every check
    job = {"workload": "verify", "sizes": 4}
    untraced = workloads.run(job, None, WorkClock(calibrate=False))
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run(job, tracer, WorkClock(calibrate=False))
    finally:
        tracer.uninstall()
    for result in (untraced, traced):
        assert (result["attempted"], result["failed"]) == (33, 0), result["failures"]


def test_query_workload_runs_untraced_and_traced():
    # a crash or wrong answer on the `queries` path fails here before it
    # fails a benchmark run
    words = reference.query_words(1, 40, 12, 24)

    def kinds():
        return [workloads.query(word, *reference.area_bounce(word)) for word in words]

    untraced = kinds()
    tracer = Tracer()
    tracer.install()
    try:
        traced = kinds()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert set(untraced) <= set(reference.CLASSIFY_KINDS)


def test_tables_workload_runs_untraced_and_traced():
    # a crash on the `tables` path fails here before it fails a benchmark
    # run; the traced pass builds the level table again
    operations = workloads._tables({"sizes": reference.SIZES["tiny"]["tables"]})
    for _, op in operations:
        op()
    extremal.level_sets.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        for _, op in operations:
            op()
    finally:
        tracer.uninstall()
    assert tracer.report()["counters"]["extremal.level_sets.misses"] >= 1


def test_every_declared_per_layer_metric_is_reported():
    # a per-layer name of BENCHMARK.json missing from `run.per_layer`'s
    # result (say, an uncached or removed memo whose hit counters it
    # names) breaks the result line of a traced benchmark run
    declared = [metric["name"] for metric in run.spec()["per_layer"]]
    for workload in run.WORKLOADS:
        job, _ = run.make_inputs(workload, 1, "tiny")
        job["workload"] = workload
        tracer = Tracer()
        tracer.install()
        try:
            result = workloads.run(job, tracer, WorkClock(calibrate=False))
        finally:
            tracer.uninstall()
        assert result["failed"] == 0, result["failures"]
        result["trace"] = tracer.report()
        metrics = run.per_layer([result], [result])
        assert [name for name in declared if name not in metrics] == [], workload


def test_tracer_installs_counts_and_uninstalls():
    bound = (
        (bijection, "iter_certificates"),
        (extremal, "level_sets"),
        (dyckab, "flip_sets"),
    )
    originals = [getattr(module, name) for module, name in bound]
    # the certificate stream is memoized per n; build it inside the trace
    bijection._certified.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        path = paths.DyckPath.from_row_starts((0, 0, 1, 1))
        assert path.area() + path.bounce() == path.ab()
        ops.shift(path, 1)
        assert len(list(paths.enumerate_paths(4))) == 14
        assert sum(1 for _ in bijection.iter_certificates(6)) > 0
        area_side, _ = bijection.flip_sets(5)
        side = next(iter(area_side))
        assert bijection.phi_inverse(bijection.phi(side)) == side
        bijection.classify(side)
        assert len(extremal.level_sets(5)) > 0
        assert extremal.construct_path(5, 3, 3) is not None
        qbell.q_bell(6)  # may come from the cache; poly_mul below always runs
        assert qbell.poly_mul((1, 1), (1, 1)) == (1, 2, 1)
        qbell.qt_catalan(5)
        oracle.run_suite("statistics", 3)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["stats", "--path", "NENE"]) == 0
    finally:
        tracer.uninstall()
    report = tracer.report()
    counters = report["counters"]
    for layer in ("paths", "ops", "bijection", "extremal", "qbell", "oracle", "cli"):
        assert counters[f"{layer}.calls"] > 0, layer
    assert counters["paths.DyckPath.from_row_starts.calls"] >= 1
    assert counters["bijection.candidates"] >= counters["bijection.certificates"] > 0
    kinds = ("both", "area-side")
    assert sum(counters[f"bijection.classify.{kind}"] for kind in kinds) == 1
    assert counters["extremal.construct_calls"] == 1
    assert counters["qbell.poly_mul_calls"] > 0
    assert counters["oracle.checks"] > 0
    assert counters["paths.enumerated"] >= 14
    assert report["inclusive_s"]["bijection.flip_sets_s"] > 0
    assert [getattr(module, name) for module, name in bound] == originals


def test_traced_op_verb_counts_its_operators():
    # `dyckab op` looks its operators up in `ops` at call time, so the
    # tracer's rebound names are the ones it calls
    out = io.StringIO()
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["op", "--path", "NNEENE", "--apply", "S1,S1^-1"]) == 0
    finally:
        tracer.uninstall()
    assert out.getvalue().strip() == "NNEENE"
    counters = tracer.report()["counters"]
    assert (counters["ops.shift.calls"], counters["ops.unshift.calls"]) == (1, 1)
