"""A run set: every workload over ten seeds, a traced run of each, and a
results record.

    python3 perfbench/suite.py                      # seeds 1..10
    python3 perfbench/suite.py --first-seed 1001    # the held-out seeds
    python3 perfbench/suite.py --compare OLD.json NEW.json

Runs last BENCHMARK.json's run_seconds.  The workloads take turns, one
run each per seed, so that every workload samples each stretch of the
machine's speed.  Prints every metric by name with its unit, the median
and quartiles over runs, the sample count and the spread (quartile
distance over median) against the metric's bound, then each workload's
per-layer table.  Writes the record to perfbench/results/<time>-<sha>.json:
git SHA, Python, nproc, seeds, input digests, every raw per-run value, the
summaries and the traced per-layer table.  Exits 1 when any output was
wrong or exact counters differed between traced runs.

--compare reads two records and checks, for every workload and end-to-end
metric, that the second median is not worse than the first by more than
the metric's bound.  It prints how fast the calibration slice ran in
each set, which tells how fast the machine ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import reference
import run

RESULTS_DIR = os.path.join(run.HERE, "results")
RUNS = 10
# Metrics printed and recorded beside the bounded ones: elapsed and
# unscaled times, and the calibration slice.
UNBOUNDED = ("failed_frac", "wall_s", "setup_wall_s", "cpu_raw_s", "setup_raw_s", "calib_slice_s")


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def spread(summary) -> float:
    return (summary["q3"] - summary["q1"]) / summary["value"] if summary["value"] else 0.0


def summarize_runs(runs, bench) -> dict:
    out = {}
    listed = bench["end_to_end"] + [{"name": n, "unit": run.unit(n), "bound": None} for n in UNBOUNDED]
    for metric in listed:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        s = run.summarize(values)
        s.update(unit=metric["unit"], bound=metric["bound"], spread=spread(s))
        out[name] = s
    return out


def print_summary(workload, summary) -> None:
    print(f"== {workload}")
    for name, s in summary.items():
        note = f"  spread={s['spread']:.4f}"
        if s["bound"] is not None:
            flag = "ok" if s["spread"] < s["bound"] / 3 else (
                "WIDE" if s["spread"] <= s["bound"] else "OVER BOUND")
            note += f" bound={s['bound']} {flag}"
        print(f"{name} {s['value']:.6g} {s['unit']}  q1={s['q1']:.6g} q3={s['q3']:.6g}"
              f"  n={s['n']}{note}")


def print_layers(workload, traced) -> None:
    metrics = traced["metrics"]
    print(f"== {workload} per layer (traced, seed {traced['seed']})")
    for layer in ("bench",) + run.LAYERS:
        calls = metrics.get(f"{layer}.calls", {"value": "-"})["value"]
        print(f"{layer:<10} calls={calls:<10} self_s={metrics[f'{layer}.self_s']['value']:.4f}")
    for name in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"):
        print(f"{name} {metrics[name]['value']:.4f} s")


def run_set(seeds) -> dict:
    bench = run.spec()
    seconds = bench["run_seconds"]
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    runs = {workload: [] for workload in run.WORKLOADS}
    for seed in seeds:
        for workload in run.WORKLOADS:
            result = run.execute(workload, seed, seconds, False)
            runs[workload].append(result)
            print(f"# {workload} seed={seed} correct={result['line']['correct']}"
                  f" children={result['children']} cpu_s={result['metrics']['cpu_s']['value']:.4f}"
                  f" wall_s={result['metrics']['wall_s']['value']:.4f}", flush=True)
    for workload in run.WORKLOADS:
        entry = {
            "digests": {str(r["seed"]): r["digest"] for r in runs[workload]},
            "runs": [
                {
                    "seed": r["seed"], "correct": r["line"]["correct"],
                    "attempted": r["line"]["attempted"], "failed": r["line"]["failed"],
                    "children": r["children"], "failures": r["failures"],
                    "metrics": r["metrics"],
                }
                for r in runs[workload]
            ],
            "summary": summarize_runs(runs[workload], bench),
        }
        print_summary(workload, entry["summary"])
        traced = run.execute(workload, seeds[0], seconds, True)
        entry["traced"] = {
            "seed": traced["seed"], "correct": traced["line"]["correct"],
            "problems": traced["problems"], "failures": traced["failures"],
            "metrics": traced["metrics"],
        }
        print_layers(workload, traced)
        record["workloads"][workload] = entry
    return record


def compare(old_path, new_path) -> bool:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    better = {m["name"]: m["better"] for m in run.spec()["end_to_end"]}
    ok = True
    for workload, entry in new["workloads"].items():
        if workload not in old["workloads"]:
            continue
        base = old["workloads"][workload]["summary"]
        was, now = base["calib_slice_s"]["value"], entry["summary"]["calib_slice_s"]["value"]
        print(f"{workload}: calibration slice {was * 1e3:.3f} -> {now * 1e3:.3f} ms of CPU;"
              f" times are scaled to {run.REFERENCE_SLICE_S * 1e3:g} ms")
        for name, s in entry["summary"].items():
            if name not in better:
                continue
            was = base[name]["value"]
            worse = (s["value"] - was) / was if better[name] == "lower" else (was - s["value"]) / was
            verdict = "ok" if worse <= s["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"{workload} {name}: {was:.6g} -> {s['value']:.6g} {s['unit']}"
                  f"  worse_by={worse:+.4f} bound={s['bound']} {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--first-seed", type=int, default=reference.DEFAULT_SEED,
        help=f"first of the {RUNS} seeds; the default set starts at {reference.DEFAULT_SEED},"
             f" the held-out set at {reference.HELD_OUT_SEED}",
    )
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return 0 if compare(*args.compare) else 1

    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    try:
        record = run_set(seeds)
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{record['created'].replace(':', '')}-{record['git_sha'][:7]}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# record written to {os.path.relpath(path, run.ROOT)}")
    correct = all(
        r["correct"] for e in record["workloads"].values() for r in e["runs"]
    ) and all(e["traced"]["correct"] for e in record["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
