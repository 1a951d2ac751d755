"""In-process timings of the optimizer's layers on two source trees.

    python tools/layer_times.py TREE_A TREE_B [--rounds N] [--match TEXT]

Each tree's ``src/optdesign`` is imported under its own package name (``optdesign_a``,
``optdesign_b``), which works because the package imports its own modules only relatively.  Each
round times every layer once on each tree, the tree that goes first alternating from round to round,
and a layer's sample is the mean time of as many calls as fill 20 ms.  It prints, per layer and tree, the
median and quartiles of the samples in microseconds, the ratio B/A of the medians and the median of the
rounds' ratios, and the number of rounds in which B was faster.

The layers:
- one ``_zero_slope`` iteration: a one-row secant on the slope x^2 - 0.3, whose evaluation is two
  array operations, divided by its evaluations;
- ``_best_mass`` on one MM row with slopes, as the polish calls it, for D, R, SA and COMPOUND;
- ``c_optimal`` (c = e1) and ``derivative_report`` (SA's optimum) on MM, ``sa_references`` on SLR and MM;
- ``optimal`` in process, the CLI's ``_criterion_start`` plus ``optimize_design``, for D, R, SA, C
  (c = e1) and COMPOUND (lam = 0.5) on SLR [-1.3, 4.2] and on MM (V=43.73, K=227.27, b=5, eps=0.5);
- pareto's sampler ``_sample`` and ``sampled_front`` at n = 20,000 and seed 5 on those two models, and
  the prefilter ``_survivors`` on the (Eff_D, Eff_R) of SLR's 20,000 samples;
- the CLI commands ``pareto --n=20000 --seed=5`` and ``sweep`` (a-fixed 0.35 on SLR, 1.5 K on MM) through
  ``cli.main`` on both models, with stdout and stderr caught in memory; a non-zero exit raises.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import time


def load(tree: str, name: str):
    """The package under ``tree/src/optdesign``, imported as ``name``; returns its optimize module."""
    root = os.path.join(os.path.abspath(tree), "src", "optdesign")
    spec = importlib.util.spec_from_file_location(name, os.path.join(root, "__init__.py"),
                                                  submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.optimize")


def layers(opt) -> dict[str, tuple[object, int]]:
    """Layer name -> (a call taking no arguments, the number of units it does: calls or iterations)."""
    np = opt.np
    criteria, designs, slr, mm, pareto, cli = (importlib.import_module(f"{opt.__package__}.{m}")
                                               for m in ("criteria", "designs", "slr", "mm", "pareto", "cli"))
    slr_params, mm_params = slr.SlrInterval(-1.3, 4.2), mm.MMParams(b=5.0, eps=0.5)
    models = {"slr": designs.slr_model(designs.DesignSpace(-1.3, 4.2)), "mm": mm.mm_model(mm_params)}
    params = {"slr": slr_params, "mm": mm_params}
    out: dict[str, tuple[object, int]] = {}

    one, evals = np.ones(1), [0]

    def evaluate(rows, x):
        evals[0] += len(rows)
        return 0.0 * x, x * x - 0.3, None

    opt._zero_slope(evaluate, 0.0 * one, one, 0.5 * one, 0.5 * one + 1e-6, 1e-14)
    out["_zero_slope iteration"] = (
        lambda: opt._zero_slope(evaluate, 0.0 * one, one, 0.5 * one, 0.5 * one + 1e-6, 1e-14), evals[0])

    model = models["mm"]
    X = np.array([[0.6 * 227.27, 4.9 * 227.27]])
    F, dF = (np.asarray(g(X), dtype=float) for g in (model.regressor, model.regressor_dx))
    refs, start = opt.sa_references(model)
    d_star, r_star = opt._reference_stars(model, mm_params)[0]
    specs = {"D": criteria.CriterionSpec("D"), "R": criteria.CriterionSpec("R"),
             "SA": criteria.CriterionSpec("SA", sa_refs=refs),
             "COMPOUND": criteria.CriterionSpec("COMPOUND", lam=0.5, phi_d_star=d_star, phi_r_star=r_star)}
    for kind, spec in specs.items():
        out[f"_best_mass 1 row {kind}"] = (
            lambda spec=spec: opt._best_mass(spec, F, opt.WEIGHT_TOL, None, dF), 1)
    out["c_optimal mm e1"] = (lambda: opt.c_optimal(model, (1.0, 0.0)), 1)
    for name in ("slr", "mm"):
        out[f"sa_references {name}"] = (lambda name=name: opt.sa_references(models[name]), 1)
    design = opt.optimize_design(model, specs["SA"], start).design
    out["derivative_report mm SA"] = (lambda: criteria.derivative_report(model, design, specs["SA"]), 1)
    for name in ("slr", "mm"):
        for kind in ("D", "R", "SA", "C", "COMPOUND"):
            out[f"optimal {name} {kind}"] = (
                lambda name=name, kind=kind: opt.optimize_design(models[name], *opt._criterion_start(
                    models[name], params[name], kind, c=(1.0, 0.0), lam=0.5)), 1)
    flags = {"slr": ["--model=slr", "--a=-1.3", "--b=4.2"], "mm": ["--model=mm", "--b=5", "--eps=0.5"]}
    for name, a_fixed in (("slr", "0.35"), ("mm", "1.5")):
        stars = opt._reference_stars(models[name], params[name])[0]
        out[f"_sample {name}"] = (lambda name=name: pareto._sample(models[name], 20_000, 5), 1)
        out[f"sampled_front {name}"] = (
            lambda name=name, stars=stars: pareto.sampled_front(models[name], 20_000, 5, *stars), 1)
        if name == "slr":
            *_, m11, m22, det = pareto._sample(models[name], 20_000, 5)
            d, r = stars[0] * np.sqrt(det), stars[1] * det / np.sqrt(m11 * m22)
            out["_survivors slr"] = (lambda: pareto._survivors(d, r), 1)
        for command, *rest in (("pareto", "--n=20000", "--seed=5"), ("sweep", f"--a-fixed={a_fixed}")):
            out[f"cli {command} {name}"] = (lambda argv=[command, *flags[name], *rest]: run_cli(cli, argv), 1)
    return out


def run_cli(cli, argv: list[str]) -> None:
    """``cli.main(argv)`` with its stdout and stderr caught in memory; an exit code other than 0 raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"optdesign {' '.join(argv)} exited {code}: {err.getvalue()}")


def sample(call, units: int, budget: float = 0.02) -> float:
    """Mean time of one unit in microseconds, over as many calls as fill about ``budget`` seconds."""
    t0 = time.perf_counter()
    call()
    n = max(1, int(budget / max(time.perf_counter() - t0, 1e-6)))
    t0 = time.perf_counter()
    for _ in range(n):
        call()
    return (time.perf_counter() - t0) / n / units * 1e6


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--match", default="", help="time only the layers whose name contains this text")
    args = parser.parse_args(argv)
    trees = {"A": layers(load(args.tree_a, "optdesign_a")), "B": layers(load(args.tree_b, "optdesign_b"))}
    names = [n for n in trees["A"] if n in trees["B"] and args.match in n]
    times: dict[str, dict[str, list[float]]] = {n: {"A": [], "B": []} for n in names}
    for r in range(args.rounds):
        for name in names:
            for side in ("AB" if r % 2 == 0 else "BA"):
                times[name][side].append(sample(*trees[side][name]))
    print(f"A = {args.tree_a}, B = {args.tree_b}; {args.rounds} rounds; us per call (per iteration for "
          "_zero_slope): median [q1, q3]; B/A of the medians, and the median of the rounds' B/A, which the "
          "machine's drift between rounds moves less; rounds where B was faster")
    for name in names:
        a, b = times[name]["A"], times[name]["B"]
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        wins = sum(tb < ta for ta, tb in zip(a, b))
        paired = statistics.median(tb / ta for ta, tb in zip(a, b))
        print(f"{name:26s} A {a2:9.1f} [{a1:9.1f}, {a3:9.1f}]  B {b2:9.1f} [{b1:9.1f}, {b3:9.1f}]  "
              f"B/A {b2 / a2:5.3f} (rounds {paired:5.3f})  B faster {wins}/{len(a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
