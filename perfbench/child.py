"""One benchmark child: a fresh interpreter, so every lru_cache starts cold
as it does for a command-line user.

The job arrives as JSON on stdin; the result leaves as one JSON line on
stdout.  Both clocks are read right after `import dyckab, dyckab.cli`,
before anything else of the benchmark is imported: the process CPU clock
gives set-up time from process start, and the monotonic clock lets the
parent time the same span as elapsed time.
"""

import time

import dyckab
import dyckab.cli

SETUP_CPU_S = time.process_time()
SETUP_END = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    job = json.load(sys.stdin)
    loaded = os.path.dirname(os.path.dirname(os.path.abspath(dyckab.__file__)))
    if not os.path.samefile(loaded, job["src"]):
        print(f"dyckab was imported from {loaded}, not {job['src']}", file=sys.stderr)
        return 3
    result = {"setup_end": SETUP_END, "setup_cpu_s": SETUP_CPU_S}
    if job["workload"] == "setup":
        from workclock import SETUP_SLICES, calibration_slice

        # How fast the core ran just after set-up, which took too little
        # time to hold a slice of its own.
        result["calib_slices_s"] = [calibration_slice() for _ in range(SETUP_SLICES)]
    else:
        import workloads
        from tracer import Tracer
        from workclock import WorkClock

        if job["fault"]:
            workloads.inject_fault(job["fault"])
        tracer = Tracer().install() if job["trace"] else None
        cpu = time.thread_time()
        # Slices would land in the traced functions' elapsed self time.
        with WorkClock(calibrate=tracer is None) as clock:
            result.update(workloads.run(job, tracer, clock))
        result["cpu_raw_s"] = time.thread_time() - cpu - sum(clock.slices)
        result["calib_slices_s"] = clock.slices
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.report()
    result["peak_rss_mb"] = peak_rss_kib() / 1024
    print(json.dumps(result))
    return 0


def peak_rss_kib() -> int:
    """This process's own peak resident set (VmHWM).  ru_maxrss is not
    used: on Linux, exec carries the forking parent's high-water mark into
    it, so a child would report the parent's size whenever that is larger."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main())
