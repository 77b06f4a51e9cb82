"""dyckab benchmark: one workload, one seed, measured from outside.

    python3 perfbench/run.py --workload tables|queries|verify --seed N \
        --seconds T --trace 0|1

Every measured run is a fresh child interpreter (child.py), started one at
a time by this single process, so caches start cold and nothing competes
for the two cores.  With --trace 0 children run until T seconds have
passed (at least three), each after five set-up probes that only import
the library; each end-to-end metric is the median over children.  Times
are read on the child's work clock, scaled to a reference core speed
(workclock.py); elapsed times are printed beside them.  With --trace 1
untraced and traced children alternate (at least two pairs) and the
per-layer metrics come from the traced ones; their exact counters must
agree or the run is incorrect.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the metrics are those BENCHMARK.json lists.
The lines before it print every metric by name with its unit, median,
quartiles and sample count.  Exit status: 0 correct, 1 a wrong answer,
2 the benchmark could not run (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import reference
from tracer import LAYERS, OPERATORS
from workclock import REFERENCE_SLICE_S, SETUP_SLICES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(HERE, "results", "spans")

WORKLOADS = ("tables", "queries", "verify")
SETUP_PROBES_PER_CHILD = 5
MIN_CHILDREN = 3
MIN_TRACED_PAIRS = 2
BUDGET_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def make_inputs(workload, seed, size) -> tuple:
    """Job fields and the sha256 of the inputs; only queries use the seed."""
    sizes = reference.SIZES[size][workload]
    if workload == "queries":
        count, lo, hi = sizes
        words = reference.query_words(seed, count, lo, hi)
        refs = [reference.area_bounce(w) for w in words]
        tally = reference.CLASSIFY_TALLY[size].get(seed)
        job = {"sizes": sizes, "words": words, "refs": refs, "tally": tally}
        return job, reference.digest(words)
    return {"sizes": sizes}, reference.digest([workload, json.dumps(sizes)])


def child(job, deadline) -> dict:
    """Run one child to completion; its result with its set-up time on the
    CPU clock (setup_s) and elapsed (setup_wall_s)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, CHILD], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{job['workload']} child overran the {BUDGET_S} s budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited with status {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_wall_s"] = result.pop("setup_end") - started
    result["setup_s"] = result.pop("setup_cpu_s")
    return result


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def summarize(values) -> dict:
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def end_to_end(children, probes) -> dict:
    """Medians over children; set-up over the probes and children alike.

    Children time their work scaled already (workclock.py).  Set-up takes
    too little time to hold a calibration slice, so each set-up time is
    scaled by the first slices its process ran after it."""
    setups = [
        c["setup_s"] * REFERENCE_SLICE_S / statistics.fmean(c["calib_slices_s"][:SETUP_SLICES])
        for c in probes + children
    ]
    per_child = {
        "cpu_s": [c["cpu_s"] for c in children],
        "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        "queries_per_s": [c["attempted"] / c["cpu_s"] for c in children],
        "query_p50_us": [percentile(c["latencies_s"], 50) * 1e6 for c in children],
        "query_p99_us": [percentile(c["latencies_s"], 99) * 1e6 for c in children],
        "setup_s": setups,
        "wall_s": [c["wall_s"] for c in children],
        "setup_wall_s": [c["setup_wall_s"] for c in probes + children],
        "cpu_raw_s": [c["cpu_raw_s"] for c in children],
        "setup_raw_s": [c["setup_s"] for c in probes + children],
        "calib_slice_s": [statistics.fmean(c["calib_slices_s"]) for c in children],
    }
    return {name: summarize(values) for name, values in per_child.items()}


def per_layer(plain, traced) -> dict:
    """Exact counters of the first traced child, ratios, and medians of the
    traced times; overhead is traced minus untraced wall time."""
    counters = traced[0]["trace"]["counters"]
    out = {name: {"value": v, "n": 1} for name, v in sorted(counters.items())}

    def ratio(num, den):
        return num / den if den else 0.0

    for op in OPERATORS:
        out[f"ops.{op}.bottom_rate"] = {
            "value": ratio(counters[f"ops.{op}.bottoms"], counters[f"ops.{op}.calls"]), "n": 1,
        }
    out["bijection.accept_ratio"] = {
        "value": ratio(counters["bijection.certificates"], counters["bijection.candidates"]), "n": 1,
    }
    times = {}
    for c in traced:
        trace = c["trace"]
        for layer, seconds in trace["self_s"].items():
            times.setdefault(f"{layer}.self_s", []).append(seconds)
        for name, seconds in trace["inclusive_s"].items():
            times.setdefault(name, []).append(seconds)
        for name, seconds in trace["check_seconds"].items():
            times.setdefault(f"oracle.{name}.s", []).append(seconds)
        times.setdefault("trace.wall_s", []).append(c["wall_s"])
    times["trace.untraced_wall_s"] = [c["wall_s"] for c in plain]
    for name, values in times.items():
        out[name] = summarize(values)
    out["trace.overhead_s"] = {
        "value": out["trace.wall_s"]["value"] - out["trace.untraced_wall_s"]["value"],
        "n": len(traced),
    }
    return out


E2E_UNITS = {
    "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "queries_per_s": "1/s",
    "query_p50_us": "us", "query_p99_us": "us", "failed_frac": "ratio",
}


def unit(name) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_rate") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def execute(workload, seed, seconds, trace, size="full", fault=None) -> dict:
    """Run one workload and return every metric with the result line."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if not os.path.isfile(os.path.join(SRC, "dyckab", "__init__.py")):
        raise BenchError(f"no dyckab sources under {SRC}")
    bench = spec()
    fields, digest = make_inputs(workload, seed, size)
    job = {"workload": workload, "src": SRC, "fault": fault, "trace": False, **fields}
    probe = {"workload": "setup", "src": SRC}
    start = time.monotonic()
    deadline = start + BUDGET_S
    child(probe, deadline)  # writes the byte-code caches; not counted
    probes, plain, traced = [], [], []
    while True:
        if not trace:
            probes += [child(probe, deadline) for _ in range(SETUP_PROBES_PER_CHILD)]
        plain.append(child(job, deadline))
        if trace:
            traced.append(child(dict(job, trace=True), deadline))
        enough = MIN_TRACED_PAIRS if trace else MIN_CHILDREN
        if len(plain) >= enough and time.monotonic() - start >= seconds:
            break

    children = plain + traced
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    problems = []
    if trace:
        metrics = per_layer(plain, traced)
        wanted = bench["per_layer"]
        first = traced[0]["trace"]["counters"]
        if any(c["trace"]["counters"] != first for c in traced[1:]):
            problems.append("exact counters differ between traced runs of the same inputs")
        spans = traced[0]["trace"]["spans"]
    else:
        metrics = end_to_end(plain, probes)
        wanted = bench["end_to_end"]
        spans = None
    metrics["failed_frac"] = {"value": failed / attempted, "n": len(children)}
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in wanted
        },
    }
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "digest": digest, "children": len(children),
        "metrics": metrics, "failures": failures[:10], "problems": problems,
        "spans": spans, "line": line,
    }


def write_spans(result) -> str:
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{result['workload']}-seed{result['seed']}.json")
    with open(path, "w") as fh:
        json.dump(result["spans"], fh)
    return path


def report(result) -> None:
    """Human-readable lines: every metric with its unit, median, quartiles
    and sample count."""
    mode = "traced" if result["trace"] else "timed"
    print(f"# {result['workload']} seed={result['seed']} {mode} children={result['children']}"
          f" input_sha256={result['digest']}")
    for name, m in result["metrics"].items():
        quartiles = f"  q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} {value} {unit(name)}{quartiles}  n={m['n']}")
    for text in result["problems"] + result["failures"]:
        print(f"# FAILED {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    if result["spans"] is not None:
        print(f"# spans written to {os.path.relpath(write_spans(result), ROOT)}")
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
