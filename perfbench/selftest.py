"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, timed and traced; that an injected wrong answer raises
failed_frac on every workload, and a classify that finds no flip members
raises it on queries; that the candidate counter reads 3855
candidates and 696 certificates at n=12; that the work clock times its
calibration slices finely, leaves them out and scales by them; that the query generator is
seeded, valid and uniform; that the library-free references agree with the
library; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import collections
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import reference
import run
from tracer import Tracer
from workclock import REFERENCE_SLICE_S, WorkClock

problems = []


def check(ok, what):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def check_metrics(bench):
    for workload in run.WORKLOADS:
        for trace, listed in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = run.execute(workload, reference.DEFAULT_SEED, 0, trace, size="tiny")
            line = result["line"]
            where = f"{workload} trace={int(trace)}"
            check(sorted(line) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys")
            check(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                  f"{where}: {result['failures']} {result['problems']}")
            check(sorted(line["metrics"]) == sorted(m["name"] for m in listed),
                  f"{where}: emitted metrics differ from BENCHMARK.json")
            for m in listed:
                got = line["metrics"].get(m["name"], {})
                check(isinstance(got.get("value"), (int, float)), f"{where}: {m['name']} value")
                check(got.get("unit") == m["unit"] == run.unit(m["name"]),
                      f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        faults = ("bounce", "classify") if workload == "queries" else ("bounce",)
        for fault in faults:
            faulty = run.execute(workload, reference.DEFAULT_SEED, 0, False, size="tiny", fault=fault)
            check(faulty["metrics"]["failed_frac"]["value"] > 0 and not faulty["line"]["correct"],
                  f"{workload}: the injected {fault} fault left failed_frac at 0")


def check_candidates():
    from dyckab import bijection

    with Tracer() as tracer:
        certificates = sum(1 for _ in bijection.iter_certificates(12))
    counters = tracer.report()["counters"]
    check(counters["bijection.candidates"] == 3855, f"candidates {counters['bijection.candidates']}")
    check(counters["bijection.certificates"] == certificates == 696,
          f"certificates {counters['bijection.certificates']}")
    check(bijection.iter_certificates.__module__ == "dyckab.bijection"
          and not hasattr(bijection.iter_certificates, "__wrapped__"), "tracer left a wrapper")


def check_work_clock():
    cpu = time.thread_time()
    with WorkClock() as clock:
        start = clock.now()
        total = 0
        for i in range(3_000_000):
            total += i * i % 7
        work = clock.now() - start
    spent = time.thread_time() - cpu - sum(clock.slices)
    check(len(clock.slices) >= 4 and all(s > 0 for s in clock.slices),
          f"calibration slices are not timed: {clock.slices}")
    # The stretches between slices are of equal CPU time, but for the ends.
    expected = spent * statistics.fmean(REFERENCE_SLICE_S / s for s in clock.slices)
    check(abs(work / expected - 1) < 0.05, f"work clock read {work} s, expected {expected} s")


def check_generator():
    words = reference.query_words(5, 400, 4, 9)
    check(words == reference.query_words(5, 400, 4, 9), "same seed, different words")
    check(words != reference.query_words(6, 400, 4, 9), "different seeds, same words")
    check(reference.digest(words) != reference.digest(words[:-1]), "digest ignores a word")
    for parity in (0, 1):
        sizes = collections.Counter(len(w) // 2 for w in words[parity::2])
        check(sorted(sizes) == list(range(4, 10)) and max(sizes.values()) - min(sizes.values()) <= 1,
              f"semilengths are not balanced: {sizes}")
    for k, word in enumerate(words):
        height = 0
        for step in word:
            height += 1 if step == "N" else -1
            check(height >= 0, f"{word} dips below the diagonal")
        check(height == 0 and 4 <= len(word) // 2 <= 9, f"{word} is not a Dyck word of 4..9")
        if k % 2:
            blocks = word.replace("EN", "E N").split()
            check(all(b == "N" * (len(b) // 2) + "E" * (len(b) // 2) for b in blocks),
                  f"{word} is not a block word")
    rng = random.Random(0)
    counts = collections.Counter(reference.uniform_dyck_word(rng, 3) for _ in range(5000))
    check(len(counts) == 5 and all(800 < c < 1200 for c in counts.values()),
          f"cycle-lemma sampler is not uniform at n=3: {counts}")


def check_references():
    from dyckab import paths, qbell

    for n in range(8):
        for p in paths.enumerate_paths(n):
            check(reference.area_bounce(p.word) == (p.area(), p.bounce()), f"area/bounce of {p.word}")
    check([reference.bell(k) for k in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877], "Bell triangle")
    check(tuple(reference.interval_width(k) + 1 for k in range(20)) == qbell.DISTINCT_AB_FIRST_TWENTY,
          "interval width")
    check([reference.catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42], "Catalan numbers")


def check_refuses_without_sources():
    """In a directory holding only BENCHMARK.json and the benchmark, run.py
    must fail fast and print no result."""
    with tempfile.TemporaryDirectory(dir=run.HERE) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__", os.path.basename(bare)))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"bare directory: status {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    sys.path.insert(0, run.SRC)
    check_work_clock()
    check_generator()
    check_references()
    check_candidates()
    check_refuses_without_sources()
    check_metrics(run.spec())
    print(f"{len(problems)} problems" if problems else "selftest ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
