"""One workload run in a fresh interpreter; started by run.py.

Drives ``optdesign.cli.main(argv)`` in-process as a closed loop with one
client: each call starts when the previous one has returned and been checked.
A fixed calibration loop is timed after every call (and once before the
first), so each call sits between two calibration timings; a call's time in
calibration units is its time divided by the mean of the two.  Prints one
JSON object with the raw per-call records as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import checker
import workloads
from tracer import Tracer

from optdesign.cli import main as cli_main

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Calibration: scalar float arithmetic like the golden-section searches, small
# numpy calls like the per-move regressor evaluations, and 20000-wide array
# passes like the Pareto dominance scan.  About 6 ms on a 2-core Intel Xeon VM.
_CAL_SCALAR = 6000
_CAL_SMALL = 200
_CAL_WIDE = 40
_CAL_X_SMALL = np.linspace(0.1, 5.0, 3)
_CAL_X_WIDE = np.linspace(0.1, 5.0, 20000)


def calibrate() -> float:
    t0 = perf_counter()
    acc = 0.0
    for i in range(_CAL_SCALAR):
        w = (i % 97) / 97.0
        m11 = 1.5 * w + 0.5 * (1.0 - w)
        m12 = 0.3 * w - 0.2 * (1.0 - w)
        m22 = 2.0 * w + 1.0 * (1.0 - w)
        acc += math.sqrt(m11 * m22) / (m11 * m22 - m12 * m12)
    x = _CAL_X_SMALL
    for _ in range(_CAL_SMALL):
        d = 1.0 + x
        f = np.stack([x / d, -x / (d * d)], axis=-1)
        acc += float(np.sum(f[:, 0] * f[:, 1]))
    y = _CAL_X_WIDE
    for k in range(_CAL_WIDE):
        acc += float(np.count_nonzero((y >= 0.5 * k / _CAL_WIDE) & (y * y > 1.0)))
    dt = perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return dt


def run_call(call: workloads.Call, invoke) -> tuple[int | None, str, str, float, str]:
    """(exit code, stdout, stderr, seconds, exception text) of one CLI call."""
    workloads.write_files(call)
    out, err = io.StringIO(), io.StringIO()
    exc_text = ""
    rc = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = invoke(list(call.argv))
    except Exception:  # a crash of the program under test is a failed call, not ours
        exc_text = traceback.format_exc(limit=3)
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0, exc_text


def closed_loop(calls: list[workloads.Call], invoke, calib: list[float]) -> list[dict]:
    """Run every call in turn."""
    records = []
    before = calibrate()
    calib.append(before)
    for call in calls:
        rc, out, err, dt, exc_text = run_call(call, invoke)
        after = calibrate()
        calib.append(after)
        if exc_text:
            ok, reason, facts = False, "exception: " + exc_text.strip().splitlines()[-1], {}
        else:
            ok, reason, facts = checker.check(call, rc, out, err)
        records.append({
            "argv": list(call.argv), "command": call.command, "stress": call.stress,
            "rc": rc, "ok": ok, "reason": reason,
            "call_s": dt, "call_cu": dt / (0.5 * (before + after)),
            "certificate_expected": call.convex_optimal
            or (call.command == "check" and call.expect["passes"]),
            "certified": bool(facts.get("certified", False)),
            "closed_form_gap": facts.get("closed_form_gap"),
        })
        before = after
    return records


def environment(seed: int, calib: list[float]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if names:
            cpu = names[0]
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV}, "seed": seed,
        "calibration_median_s": statistics.median(calib), "calibrations": len(calib),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    checker.self_check()
    os.makedirs(args.work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    calib: list[float] = []
    calibrate()  # warm-up, untimed
    result: dict = {}
    if args.trace:
        # A fixed call list, so that two traced runs with one seed count the same work.
        fixed = workload.traced_calls()
        result["untraced_calls"] = closed_loop(fixed, cli_main, calib)
        tracer = Tracer().install()
        try:
            result["calls"] = closed_loop(fixed, lambda argv: tracer.cli_call(cli_main, argv), calib)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["absent_layers"] = tracer.absent
    else:
        result["calls"] = closed_loop(workload.run_calls(args.seconds), cli_main, calib)
    result["calibrations_s"] = calib
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.seed, calib)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
