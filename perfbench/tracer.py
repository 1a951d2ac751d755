"""Per-layer tracing from outside the package.

The package looks its functions up as module attributes at call time, so a
layer is traced by replacing every binding of its entry point (the defining
module and every ``optdesign`` module that imported the name) with a wrapper
that records a span.  Private names stand in where a layer has no public
entry point.  A name that no longer exists is reported as an absent layer.

A span records its inclusive time; its self time excludes the spans opened
inside it.  A span opened inside a span of the same layer (``phi_d`` called by
``criterion_value``) is part of the outer one and is not recorded again.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

MULTISTART_WIDTH_DIVISOR = 16.0  # optimize_design starts multistart refinement at width / 16
WIN_RTOL = 1e-9

# (layer, module, attribute): the entry points wrapped as spans.
SPANS = (
    ("optimize.design", "optdesign.optimize", "optimize_design"),
    ("optimize.stage1", "optdesign.optimize", "_stage1_pairs"),
    ("optimize.refine", "optdesign.optimize", "_refine_support"),
    ("optimize.kpoint", "optdesign.optimize", "_best_weights_k"),
    ("optimize.sa_refs", "optdesign.optimize", "sa_references"),
    ("optimize.c_optimal", "optdesign.optimize", "c_optimal"),
    ("optimize.mm_tables", "optdesign.optimize", "mm_tables"),
    ("criteria.raw", "optdesign.criteria", "criterion_values_raw"),
    ("criteria.certificate", "optdesign.criteria", "derivative_report"),
    ("designs.fim", "optdesign.designs", "fim"),
    ("pareto.sample", "optdesign.pareto", "sample_two_point_designs"),
    ("pareto.evaluate", "optdesign.pareto", "evaluate_front_points"),
    ("pareto.front", "optdesign.pareto", "pareto_front"),
    ("pareto.sweep", "optdesign.pareto", "criterion_sweep"),
    ("pareto.sweep", "optdesign.pareto", "compound_sweep"),
) + tuple(("criteria.scalar", "optdesign.criteria", name) for name in (
    "criterion_value", "phi_d", "phi_r", "phi_r2", "correlation", "phi_c", "phi_sa",
    "phi_em", "phi_compound"))

# Counted, not timed: called ~10^5 times per optimize_design call.
COUNTS = (("optimize.weights.scalar_evals", "optdesign.optimize", "_scalar_value"),)

# Model factories whose returned regressor is wrapped as the designs.regressor layer.
FACTORIES = (("optdesign.designs", "slr_model"), ("optdesign.mm", "mm_model"))


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of the package bound to ``original``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "optdesign" or name.startswith("optdesign.")):
            continue
        for attr, value in vars(module).items():
            if value is original:
                found.append((module, attr))
    return found


class Tracer:
    """Wraps the package's layer entry points while installed; see module doc."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []          # [layer, child seconds] per open span
        self._depth: dict[str, int] = defaultdict(int)
        self._designs: list[dict] = []        # open optimize_design calls
        self._eps: list = []                  # [eps key, start] of the open mm_tables iteration

    # --- installation ---------------------------------------------------------

    def _patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod, name in _bindings(original):
            self._patched.append((mod, name, original))
            setattr(mod, name, wrapper)

    def install(self) -> "Tracer":
        for layer, module_name, attr in SPANS:
            self._patch(module_name, attr, lambda fn, layer=layer: self._span(layer, fn))
        for key, module_name, attr in COUNTS:
            self._patch(module_name, attr, lambda fn, key=key: self._count(key, fn))
        for module_name, attr in FACTORIES:
            self._patch(module_name, attr, self._factory)
        return self

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # --- wrappers ---------------------------------------------------------------

    def _count(self, key: str, fn):
        values = self.values

        def counted(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _factory(self, fn):
        def factory(*args, **kwargs):
            model = fn(*args, **kwargs)
            regressor = self._span("designs.regressor", model.regressor)
            return dataclasses.replace(model, regressor=regressor)
        return factory

    def _span(self, layer: str, fn):
        def traced(*args, **kwargs):
            if self._depth[layer]:
                return fn(*args, **kwargs)
            self._before(layer, args)
            frame = [layer, 0.0]
            self._depth[layer] += 1
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self._depth[layer] -= 1
                if self._stack:
                    self._stack[-1][1] += dt
                self._timed(layer, args, dt, dt - frame[1])
            self._counted(layer, args, result)
            return result
        return traced

    def cli_call(self, main, argv):
        """Run ``main(argv)`` inside the ``cli`` span."""
        return self._span("cli", main)(argv)

    # --- layer-specific records ---------------------------------------------------

    @staticmethod
    def _is_multistart(args: tuple) -> bool:
        model, _spec, _xs0, step0 = args[:4]
        return step0 == model.space.width / MULTISTART_WIDTH_DIVISOR

    def _before(self, layer: str, args: tuple) -> None:
        if layer == "optimize.design":
            self._designs.append({"values": [], "multistart": []})
        elif layer == "optimize.mm_tables":
            self._eps.append(None)
        elif layer == "optimize.sa_refs" and self._eps:
            # Each sa_references call opens one eps iteration of mm_tables.
            model = args[0]
            self._close_eps()
            self._eps[-1] = [f"{model.space.lo / model.nominal_params[1]:g}", perf_counter()]

    def _close_eps(self) -> None:
        if self._eps and self._eps[-1] is not None:
            key, start = self._eps[-1]
            self.values[f"optimize.mm_tables.eps{key}_s"] += perf_counter() - start
            self._eps[-1] = None

    def _timed(self, layer: str, args: tuple, busy_s: float, self_s: float) -> None:
        """Span times, recorded also when the call raised."""
        name = "optimize.multistart" if layer == "optimize.refine" and self._is_multistart(args) else layer
        v = self.values
        v[f"{name}.calls"] += 1
        v[f"{name}.busy_s"] += busy_s
        v[f"{name}.self_s"] += self_s
        if layer == "optimize.mm_tables":
            self._close_eps()
            self._eps.pop()
        elif layer == "optimize.design":
            self._finish_design(self._designs.pop())

    def _counted(self, layer: str, args: tuple, result) -> None:
        v = self.values
        if layer == "optimize.refine":
            multistart = self._is_multistart(args)
            v["optimize.multistart.moves" if multistart else "optimize.refine.moves"] += result[3]
            if self._designs:
                self._designs[-1]["values"].append(result[2])
                if multistart:
                    self._designs[-1]["multistart"].append(result[2])
        elif layer == "optimize.stage1":
            v["optimize.stage1.pairs"] += len(result[0])
        elif layer == "optimize.kpoint":
            v["optimize.kpoint.supports"] += 1
        elif layer == "criteria.certificate":
            v["criteria.certificate.points"] += len(result.x_grid)
        elif layer == "designs.regressor":
            v["designs.regressor.points"] += len(args[0])
        elif layer == "pareto.sample":
            v["pareto.sample.designs"] += len(result)
        elif layer == "pareto.front":
            v["pareto.front.points_in"] += len(args[0])
            v["pareto.front.points_kept"] += len(result)

    def _finish_design(self, design: dict) -> None:
        """Count the multistarts that ended at the best value of their optimize_design call."""
        finite = [x for x in design["values"] if x < float("inf")]
        if not design["multistart"] or not finite:
            return
        best = min(finite)
        self.values["optimize.multistart.starts"] += len(design["multistart"])
        self.values["optimize.multistart.wins"] += sum(
            1 for x in design["multistart"] if x <= best + WIN_RTOL * abs(best))

    def metrics(self) -> dict[str, float]:
        out = dict(self.values)
        starts = out.get("optimize.multistart.starts", 0)
        out["optimize.multistart.win_ratio"] = out.get("optimize.multistart.wins", 0) / starts if starts else 0.0
        return out
