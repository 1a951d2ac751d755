"""Tooling checks: the benchmark's layer tracer (perfbench/tracer.py) still finds
the package's layers, and the program runs on numpy and the standard library."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import optdesign.cli  # noqa: F401  (imports every module whose names the tracer wraps)
import optdesign.optimize as optimize_module

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
# The tracer still names these three functions of the optimizer's earlier
# search, and _best_weights_k, the 3- and 4-point weight solver, deleted
# because every optimum needs at most two points; no other traced name may go
# missing, or its layer would read 0.
KNOWN_ABSENT = {f"optdesign.optimize.{name}"
                for name in ("_stage1_pairs", "_refine_support", "_scalar_value", "_best_weights_k")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_misses_no_layer_beyond_the_known_ones():
    original = optimize_module.optimize_design
    tracer = load_tracer().Tracer().install()
    try:
        absent = set(tracer.absent)
        assert optimize_module.optimize_design is not original
    finally:
        tracer.uninstall()
    assert optimize_module.optimize_design is original
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)


def test_pareto_runs_through_the_traced_front_layers(capsys):
    # sampled_front evaluates and filters its survivors with evaluate_front_points
    # and pareto_front, so the pareto.evaluate and pareto.front layers see its work.
    tracer = load_tracer().Tracer().install()
    try:
        code = optdesign.cli.main(["pareto", "--model", "slr", "--a", "1", "--b", "5", "--n", "200"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.values["pareto.evaluate.calls"] >= 1
    assert tracer.values["pareto.front.points_in"] >= 1


def test_every_solve_runs_through_the_traced_design_layer(capsys):
    # optimize_design is the one door to a solve, warm or cold: MM COMPOUND solves for its R reference and
    # for itself, and the optimize.design layer sees both.
    tracer = load_tracer().Tracer().install()
    try:
        code = optdesign.cli.main(["optimal", "--model", "mm", "--b", "5", "--eps", "0.5", "--criterion", "COMPOUND",
                                   "--lam", "0.5"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.values["optimize.design.calls"] == 2


# Every subcommand once, in a fresh interpreter; writes the exit codes and the
# top-level modules the runs imported that belong to an installed distribution.
IMPORTS_SCRIPT = """
import json
import sys
before = {name.partition(".")[0] for name in sys.modules}
from optdesign.cli import main
slr = ["--model", "slr", "--a", "1", "--b", "5"]
codes = [main(["optimal", *slr, "--criterion", "D", "-o", "result.json"])]
with open("result.json") as fh, open("design.json", "w") as out:
    json.dump(json.load(fh)["design"], out)
codes += [main(argv) for argv in (
    ["table", "slr", "--b", "5", "--a-list", "0,1", "-o", "table.csv"],
    ["pareto", *slr, "--n", "50", "-o", "front.csv"],
    ["sweep", *slr, "--a-fixed", "2", "--p-points", "3", "-o", "sweep.csv"],
    ["check", *slr, "--criterion", "D", "--design", "design.json", "-o", "dd.csv"],
    ["efficiency", *slr, "--designs", "design.json", "-o", "efficiency.json"],
)]
added = {name.partition(".")[0] for name in sys.modules} - before
from importlib.metadata import packages_distributions
installed = packages_distributions()
with open("imports.json", "w") as out:
    json.dump([codes, sorted(name for name in added if name in installed and name != "optdesign")], out)
"""


def test_subcommands_import_numpy_and_the_standard_library_only(tmp_path):
    proc = subprocess.run([sys.executable, "-c", IMPORTS_SCRIPT], capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    codes, third_party = json.loads((tmp_path / "imports.json").read_text())
    assert codes == [0] * 6
    assert third_party == ["numpy"]
