"""The benchmark's layer tracer (perfbench/tracer.py) still finds the package's layers."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import optdesign.cli  # noqa: F401  (imports every module whose names the tracer wraps)
import optdesign.optimize as optimize_module

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# The tracer still names these three functions of the optimizer's earlier
# search, and _best_weights_k, the 3- and 4-point weight solver, deleted
# because every optimum needs at most two points; no other traced name may go
# missing, or its layer would read 0.
KNOWN_ABSENT = {f"optdesign.optimize.{name}"
                for name in ("_stage1_pairs", "_refine_support", "_scalar_value", "_best_weights_k")}


def test_tracer_misses_no_layer_beyond_the_known_ones():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = optimize_module.optimize_design
    tracer = module.Tracer().install()
    try:
        absent = set(tracer.absent)
        assert optimize_module.optimize_design is not original
    finally:
        tracer.uninstall()
    assert optimize_module.optimize_design is original
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
