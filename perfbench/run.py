#!/usr/bin/env python3
"""Benchmark of the optdesign CLI: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root:

    python3 perfbench/run.py --workload solve-2pt --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 50 [--baseline perfbench/baseline.json]

The first form makes one run and prints, as its last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The second form runs every workload
untraced and traced, prints every metric with its unit and every failed call
by argv, and optionally writes the results to a baseline file.

A run measures ``setup_s`` (fresh interpreter until ``optdesign.cli`` is
imported and its parser built; median of several launches) and then starts
one fresh worker process (worker.py) with BLAS/OpenMP threads pinned to 1.
Untraced, the worker runs the fewest whole cycles of the workload's calls
whose nominal time covers ``--seconds``, as a closed loop; the calls, and so
``attempted`` and ``failed``, do not depend on the machine's speed.  Traced,
it runs a fixed call list twice, untraced and then traced, so that the
tracing overhead is measured and the per-layer counts repeat exactly.
Details of each run go to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")
WORKLOADS = ("solve-2pt", "explore")

SETUP_LAUNCHES = 4    # before the worker and again after it: 8 samples in all
SETUP_PROBE = "import optdesign.cli as c; c.build_parser(); print('ready', flush=True)"
TAIL_BEYOND = 10       # calls beyond the reported tail percentile
RUN_LIMIT_S = 170.0    # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed on stdout."""


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env.pop("OPTDESIGN_SEED", None)
    return env


def measure_setup(env: dict, warm_up: bool) -> list[float]:
    """Seconds from launch until the CLI is imported and its parser is built."""
    times = []
    for i in range(SETUP_LAUNCHES + warm_up):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"cannot import optdesign.cli from {SRC}: {err.strip()[-500:]}")
        if i or not warm_up:  # a warm-up launch also writes the bytecode cache
            times.append(dt)
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict, budget: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={os.path.join(OUT_DIR, 'work')}"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {budget:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


# --- metrics -------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# Every end-to-end metric a run computes, with its unit.  BENCHMARK.json gates
# the steady ones; the rest are printed and kept in the run's details.
E2E_UNITS = {
    "setup_s": "s", "ok_per_s": "1/s", "ok_per_kcu": "1/kcu", "call_s.p50": "s",
    "call_cu.p50": "cu", "call_s.tail": "s", "call_cu.tail": "cu", "ok_frac": "ratio",
    "error_rate": "ratio", "certified_frac": "ratio", "closed_form_gap.max": "ratio",
    "peak_rss_mb": "MB",
}


def end_to_end(calls: list[dict], setup: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """(metrics, details).

    A failed call counts as +inf in the medians.  The tails are taken over the
    calls that succeeded: at a fixed failing share, +inf values would fill the
    ten places beyond any tail percentile once a run makes enough calls.
    """
    ok = [c for c in calls if c["ok"]]
    certifiable = [c for c in calls if c["certificate_expected"]]
    gaps = [c["closed_form_gap"] for c in calls if c["closed_form_gap"] is not None]
    total_s = sum(c["call_s"] for c in calls)
    total_cu = sum(c["call_cu"] for c in calls)
    tail_s, tail_cu = tail([c["call_s"] for c in ok]), tail([c["call_cu"] for c in ok])
    metrics = {
        "setup_s": statistics.median(setup),
        "ok_per_s": len(ok) / total_s,
        "ok_per_kcu": 1000.0 * len(ok) / total_cu,
        "call_s.p50": statistics.median(c["call_s"] if c["ok"] else math.inf for c in calls),
        "call_cu.p50": statistics.median(c["call_cu"] if c["ok"] else math.inf for c in calls),
        "call_s.tail": tail_s and tail_s[0],
        "call_cu.tail": tail_cu and tail_cu[0],
        "ok_frac": len(ok) / len(calls),
        "error_rate": 1.0 - len(ok) / len(calls),
        "certified_frac": sum(c["certified"] for c in certifiable) / max(len(certifiable), 1),
        "closed_form_gap.max": max(gaps) if gaps else None,
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"attempted": len(calls), "ok": len(ok), "call_s_total": total_s,
               "call_cu_total": total_cu, "closed_form_checks": len(gaps),
               "certificate_calls": len(certifiable), "setup_launches_s": setup,
               "tail_percentile": tail_s and tail_s[1], "tail_samples": len(ok)}
    return metrics, details


def per_layer(result: dict, names: list[str]) -> dict:
    values = dict(result["layers"])
    untraced = result["untraced_calls"]
    traced = result["calls"]
    untraced_rate = sum(c["ok"] for c in untraced) / sum(c["call_s"] for c in untraced)
    traced_rate = sum(c["ok"] for c in traced) / sum(c["call_s"] for c in traced)
    values["trace.untraced_ok_per_s"] = untraced_rate
    values["trace.overhead_ok_per_s"] = traced_rate - untraced_rate
    values["trace.absent_layers"] = len(result["absent_layers"])
    return {name: float(values.get(name, 0.0)) for name in names}


# --- one run ---------------------------------------------------------------------

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    t_start = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "optdesign", "cli.py")):
        raise BenchError(f"no optdesign sources under {SRC}")
    os.makedirs(os.path.join(OUT_DIR, "work"), exist_ok=True)
    env = child_env()
    # Set-up is sampled on both sides of the worker, which spans several of
    # the machine's speed phases.
    setup = measure_setup(env, warm_up=True)
    result = run_worker(workload, seed, seconds, trace, env, RUN_LIMIT_S - 5.0 - (perf_counter() - t_start))
    setup += measure_setup(env, warm_up=False)
    calls = result["calls"]
    if not calls:
        raise BenchError("worker made no calls")
    e2e, details = end_to_end(calls, setup, result["peak_rss_mb"])
    details["e2e"] = e2e
    if trace:
        section = "per_layer"
        metrics = per_layer(result, [m["name"] for m in spec[section]])
        details["absent_layers"] = result["absent_layers"]
    else:
        section = "end_to_end"
        metrics = e2e
    units = {m["name"]: m["unit"] for m in spec[section]}
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        raise BenchError(f"no value for {', '.join(missing)} after {len(calls)} calls")
    failed = [c for c in calls if not c["ok"]]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        # A regular call that fails is a wrong answer; scale-stress calls are
        # expected to fail at this commit and count in `failed` only.
        "correct": not any(not c["stress"] for c in failed),
        "attempted": len(calls), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details, "env": result["env"],
        "failed_calls": [{"argv": c["argv"], "stress": c["stress"], "reason": c["reason"]} for c in failed],
        "calls": [{k: c[k] for k in ("argv", "rc", "ok", "call_s", "call_cu")} for c in calls],
        "calibrations_s": result["calibrations_s"],
        "wall_s": perf_counter() - t_start,
    }


def report(run: dict) -> list[str]:
    lines = [f"== {run['workload']} seed={run['seed']} trace={run['trace']} "
             f"attempted={run['attempted']} failed={run['failed']} correct={run['correct']}"]
    d = run["details"]
    shown = run["metrics"] if run["trace"] else {
        name: {"value": v, "unit": E2E_UNITS[name]} for name, v in d["e2e"].items()}
    for name, m in shown.items():
        gated = "" if name in run["metrics"] else "  (not gated)"
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:40s} {value} {m['unit']}{gated}")
    tail_p = d["tail_percentile"]
    lines.append(f"  tail: p{tail_p:.1f} of {d['tail_samples']} successful calls; closed-form checks "
                 f"{d['closed_form_checks']}" if tail_p else "  tail: too few calls")
    if run["trace"]:
        lines.append(f"  absent layers: {', '.join(d['absent_layers']) or 'none'}")
    env = run["env"]
    lines.append(f"  env: python {env['python']}, numpy {env['numpy']}, {env['cpu']}, nproc {env['nproc']}, "
                 f"threads {env['threads']}, calibration median {env['calibration_median_s'] * 1e3:.2f} ms")
    for c in run["failed_calls"]:
        kind = "stress" if c["stress"] else "REGULAR"
        lines.append(f"  failed [{kind}] {' '.join(c['argv'])}: {c['reason']}")
    return lines


def save(run: dict) -> None:
    path = os.path.join(OUT_DIR, f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json")
    with open(path, "w") as fh:
        json.dump(run, fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description="optdesign benchmark (see module docstring)")
    ap.add_argument("--workload", choices=WORKLOADS, help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", help="with every workload: write the runs to this JSON file")
    args = ap.parse_args()
    try:
        spec = load_spec()
        seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
        if args.workload:
            run = one_run(args.workload, args.seed, seconds, args.trace, spec)
            save(run)
            print("\n".join(report(run)))
            print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0
        runs = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                run = one_run(workload, args.seed, seconds, trace, spec)
                save(run)
                runs.append(run)
                print("\n".join(report(run)), flush=True)
            m = runs[-1]["metrics"]
            print(f"  tracing overhead on {workload}: {m['trace.overhead_ok_per_s']['value']:+.4g} ok/s "
                  f"(traced minus untraced, on {m['trace.untraced_ok_per_s']['value']:.4g} ok/s)")
        if args.baseline:
            with open(args.baseline, "w") as fh:
                json.dump({"seed": args.seed, "seconds": seconds,
                           "runs": [{k: v for k, v in r.items() if k not in ("calls", "calibrations_s")}
                                    for r in runs]},
                          fh, indent=1)
                fh.write("\n")
        return 0 if all(r["correct"] for r in runs) else 1
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
