"""Byte comparison of the CLI between two source trees.

    python tools/cli_compare.py record SRC OUT.json   # run every call on the package under SRC
    python tools/cli_compare.py diff A.json B.json    # list the calls whose result differs

``record`` runs a fixed list of CLI calls in one subprocess whose import path starts with SRC
(a tree's ``src`` directory) and writes, per call, its exit code, stdout, stderr and the content of
the file it writes through ``--output`` or ``-o`` (null if none), with the work directory and SRC
replaced by placeholders so that two trees compare equal.  Each call goes
through ``optdesign.cli.main`` in its own warnings context, so a warning shows on every call that
raises it, as in a fresh process; an uncaught exception is recorded by its type and message.

The calls are both benchmark workloads' coverage calls and cycles 0-2 at seeds 1-3, taken from
``perfbench.workloads`` (each distinct argv and design files once, the files written before the
call), then calls at the edge of the float range: every kind of ``optimal`` on SLR and MM models
whose information matrix overflows or underflows, on SLR far from the origin (1e12 to 2e17,
where kind C loses its answer), and on two plain MM models, the MM tables
with and without ``--strict``, kind C on a flat edge of Elfving's set, kind C on MM (V = K = 1, from 0) where
the two-point polish collapses and the optimum is one point, infinite flag values, the
compound sweep on SLR and MM with the default and a 101-point lambda list (stage 1's many-row mass
solve at each lambda, which no workload reaches), ``pareto --n=200000`` on SLR and MM (many sampling
blocks), ``sweep`` with ``--a-fixed`` below MM's space, ``check --output``'s certificate CSV for D on SLR
and for SA and COMPOUND on MM, a design file whose weights sum beyond the float range, ``check``
with an unknown kind and with a convex kind in lower case, ``check`` of the one-point C-optimal design on
MM (a singular information matrix), and ``check`` of a design file with a missing key.  ``diff`` exits 1
if any call differs.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
CYCLES = (0, 1, 2)
KINDS = ("D", "R", "R2", "C", "SA", "EM", "CPB", "COMPOUND")
FLOAT_RANGE_MODELS = (
    *(["--model=slr", f"--a={a}", f"--b={b}"] for a, b in (
        ("-1e154", "1e154"), ("1e-170", "3e-170"), ("1e6", "1000001.0"), ("1e80", "2e80"),
        ("-1e100", "1e100"), ("1e160", "2e160"), ("-1e200", "1e200"), ("-1e-300", "1e-300"),
        ("1e12", "2e12"), ("1e14", "2e14"), ("1e15", "2e15"), ("1e16", "2e16"), ("1e17", "2e17"))),
    *(["--model=mm", "--b=5", f"--eps={eps}", f"--V={V}", f"--K={K}"] for eps, V, K in (
        ("0.5", "1e200", "227.27"), ("0.5", "1e-200", "227.27"), ("0", "1e150", "1e-5"),
        ("0.5", "43.73", "227.27"), ("0", "43.73", "227.27"))),
)


def float_range_calls() -> list[list[str]]:
    """Every kind on the float-range models, the MM tables, flat-edge C, C where the polish collapses, infinite
    flag values, the compound sweep, pareto at n = 200,000, and a sweep whose fixed point lies outside the space."""
    extra = {"C": ["--c=1,1"], "COMPOUND": ["--lam=0.5"]}
    calls = [["optimal", *model, f"--criterion={kind}", *extra.get(kind, [])]
             for model in FLOAT_RANGE_MODELS for kind in KINDS]
    for table in ("mm-designs", "mm-efficiencies"):
        for flags in ([], ["--strict"], ["--V=1e200"], ["--V=1e200", "--strict"]):
            calls.append(["table", table, "--b=5", *flags])
    for a, b, c in (("0", "1", "1,1e-9"), ("0", "1", "1,1e-6"), ("0", "1", "1,1e-4"), ("0", "1", "3,3e-6"),
                    ("0", "1", "1,0.002"), ("-1", "2", "1,-0.999999997"), ("1", "5", "1,1.0004")):
        calls.append(["optimal", "--model=slr", f"--a={a}", f"--b={b}", "--criterion=C", f"--c={c}"])
    for b, c in (("0.5", "0.13822876959200245,-0.11912157684908353"),
                 ("5.375", "0.3495934959349593,-0.22737788353493288")):
        calls.append(["optimal", "--model=mm", "--V=1", "--K=1", f"--b={b}", "--eps=0", "--criterion=C", f"--c={c}"])
    for value in ("-inf", "-Infinity", "-nan", "inf"):
        calls.append(["optimal", "--model", "slr", "--a", value, "--b", "1", "--criterion", "D"])
    for model in (["--model=slr", "--a=-1.3", "--b=4.2"], ["--model=mm", "--b=5", "--eps=0.5"]):
        for lams in ([], [f"--lam-list={','.join(f'{i / 100:g}' for i in range(101))}"]):
            calls.append(["sweep", *model, "--sweep-kind=compound", *lams])
        calls.append(["pareto", *model, "--n=200000", "--seed=5"])  # 49 sampling blocks
    calls.append(["sweep", "--model=mm", "--b=5", "--eps=0.5", "--a-fixed=0.2"])  # below the space
    return calls


def design_file_calls(work_dir: str) -> list[dict]:
    """``check --output`` on each model's D-optimal design: D on SLR, SA and COMPOUND on MM (b=5, eps=0.5); then
    ``check`` and ``efficiency`` on SLR [1, 5] with a design whose weights sum beyond the float range; then
    ``check`` of SLR's design with an unknown kind and with a convex kind in lower case; then ``check`` of MM's
    one-point C-optimal design, and of a file whose point has no weight."""
    slr = (["--model=slr", "--a=-1.3", "--b=4.2"], [(-1.3, 0.5), (4.2, 0.5)], (-1.3, 4.2))
    mm = (["--model=mm", "--b=5", "--eps=0.5"], [(5 / 7 * 227.27, 0.5), (5 * 227.27, 0.5)], (113.635, 1136.35))

    def design(name: str, points: list, lo: float, hi: float) -> list:
        return [os.path.join(work_dir, name), {"points": [{"x": x, "w": w} for x, w in points],
                                               "space": {"lo": lo, "hi": hi}}]

    calls = []
    for kind, (flags, points, (lo, hi)) in (("D", slr), ("SA", mm), ("COMPOUND", mm)):
        file, csv = design(f"check-{kind}.json", points, lo, hi), os.path.join(work_dir, f"check-{kind}.csv")
        lam = ["--lam=0.5"] if kind == "COMPOUND" else []
        calls.append({"argv": ["check", *flags, f"--criterion={kind}", *lam, f"--design={file[0]}", f"--output={csv}"],
                      "files": [file]})
    file, flags = design("huge-weights.json", [(1.0, 1e308), (5.0, 1e308)], 1.0, 5.0), ["--model=slr", "--a=1", "--b=5"]
    calls.append({"argv": ["check", *flags, "--criterion=D", f"--design={file[0]}"], "files": [file]})
    calls.append({"argv": ["efficiency", *flags, f"--designs={file[0]}"], "files": [file]})
    file = design("check-kind.json", slr[1], *slr[2])
    for kind in ("FOO", "d"):  # an unknown kind, and a convex one in lower case
        calls.append({"argv": ["check", *slr[0], f"--criterion={kind}", f"--design={file[0]}"], "files": [file]})
    file = design("one-point.json", [(300.0, 1.0)], *mm[2])  # optimal's C design for this c: a singular M
    calls.append({"argv": ["check", *mm[0], "--criterion=C", "--c=1,-0.0829366358791511", f"--design={file[0]}"],
                  "files": [file]})
    file = [os.path.join(work_dir, "no-w.json"), {"points": [{"x": 1}], "space": {"lo": -1, "hi": 4}}]
    calls.append({"argv": ["check", "--model=slr", "--a=-1", "--b=4", "--criterion=D", f"--design={file[0]}"],
                  "files": [file]})
    return calls


def output_path(argv: list[str]) -> str | None:
    """The file a call writes through ``--output`` or ``-o``, or None."""
    for flag, value in zip(argv, argv[1:] + [None]):
        if flag.startswith("--output="):
            return flag.split("=", 1)[1]
        if flag in ("--output", "-o"):
            return value
    return None


def all_calls(work_dir: str) -> list[dict]:
    """The distinct calls, in order: {"argv": [...], "files": [[path, payload], ...]}."""
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    calls, seen = [], set()
    for seed in SEEDS:
        for make in workloads.WORKLOADS.values():
            workload = make(seed, work_dir)
            for call in (*workload.coverage, *(c for i in CYCLES for c in workload.cycle(i))):
                entry = {"argv": list(call.argv), "files": [list(f) for f in call.files]}
                key = json.dumps(entry, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    calls.append(entry)
    return calls + [{"argv": argv, "files": []} for argv in float_range_calls()] + design_file_calls(work_dir)


def run_calls(calls: list[dict], placeholders: dict[str, str]) -> list[dict]:
    """Each call's exit code, stdout and stderr, from ``optdesign.cli.main`` in this process."""
    from optdesign.cli import main

    def normalise(text: str) -> str:
        for path, name in placeholders.items():
            text = text.replace(path, name)
        return text

    records = []
    for call in calls:
        for path, payload in call["files"]:
            with open(path, "w") as fh:
                json.dump(payload, fh)
        if (target := output_path(call["argv"])) is not None and os.path.exists(target):
            os.remove(target)
        out, err, written = io.StringIO(), io.StringIO(), None
        try:
            with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(call["argv"])
        except Exception as exc:  # a crash of the program under test is a result, not ours
            rc = f"exception: {type(exc).__name__}: {exc}"
        if target is not None and os.path.exists(target):
            with open(target, "rb") as fh:
                written = normalise(fh.read().decode("latin-1"))  # latin-1: every byte, one character
        records.append({"argv": [normalise(a) for a in call["argv"]], "rc": rc, "stdout": normalise(out.getvalue()),
                        "stderr": normalise(err.getvalue()), "output": written})
    return records


def record(src: str, out_path: str) -> int:
    src = os.path.abspath(src)
    with tempfile.TemporaryDirectory() as work_dir:
        calls = all_calls(work_dir)
        child = ("import json, sys; sys.path[:0] = sys.argv[1:3]; from tools.cli_compare import run_calls; "
                 "json.dump(run_calls(json.load(sys.stdin), json.loads(sys.argv[3])), sys.stdout)")
        env = {**os.environ, "PYTHONPATH": ""}
        placeholders = {work_dir: "<work>", src: "<src>"}
        proc = subprocess.run([sys.executable, "-c", child, src, ROOT, json.dumps(placeholders)],
                              input=json.dumps(calls), capture_output=True, text=True, env=env, cwd=work_dir)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return proc.returncode
    with open(out_path, "w") as fh:
        fh.write(proc.stdout)
    print(f"{len(calls)} calls recorded from {src} in {out_path}")
    return 0


def diff(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        print("the two records hold different call lists")
        return 1
    differ = 0
    for ra, rb in zip(a, b):
        fields = [k for k in ("rc", "stdout", "stderr", "output") if ra[k] != rb[k]]
        if not fields:
            continue
        differ += 1
        print(" ".join(ra["argv"]))
        if "rc" in fields:
            print(f"  exit code: {ra['rc']} -> {rb['rc']}")
        for k in fields[1 if "rc" in fields else 0:]:
            lines = difflib.unified_diff((ra[k] or "").splitlines(), (rb[k] or "").splitlines(), k, k, n=0,
                                         lineterm="")
            print("\n".join("  " + line for line in list(lines)[2:]))
    print(f"{differ} of {len(a)} calls differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "record":
        return record(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    sys.stderr.write(__doc__)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
