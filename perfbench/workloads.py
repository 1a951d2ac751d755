"""Seeded workloads: the CLI argv of every call, plus what the checker expects.

A workload is a cycle of calls.  An untraced run makes a fixed number of
whole cycles: the fewest whose nominal time (``Workload.cycle_s``, measured on
a 2-core Intel Xeon VM) covers the run's seconds.  So the calls of a run, and
which of them fail, never depend on how fast the machine runs.  The seed
draws the numbers in the argv; the kind and order of the calls never depend
on it, so runs with different seeds do the same mix of work.  Flags
are written as ``--flag=value`` because argparse reads a bare negative number
such as ``-1e-7`` as an option and rejects ``--a -1e-7`` with exit code 64.

A traced run first makes the coverage calls, the same for every workload, so
that every traced layer does measured work on every workload: the published
Michaelis-Menten table (one call per eps), a 3-point optimal, a small pareto
and a sweep.  The table and the 3-point call are a few calls of several
seconds each; timed between two calibrations that miss the machine's speed
phases inside them, they varied by +-25% in calibration units between runs
and doubled the run-to-run spread of the untraced metrics, so the untraced
runs leave them out.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

KINDS = ("D", "R", "R2", "C", "SA", "EM", "CPB", "COMPOUND")
CONVEX = frozenset({"D", "R", "C", "SA", "COMPOUND"})

# Lower extremes of the published Michaelis-Menten design table.
MM_TABLE_EPS = (0.0, 0.05, 0.5, 1.0)

PARETO_N = 20000
COVERAGE_PARETO_N = 2000


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the facts its checker needs.

    ``model`` describes the design space the call works on; ``files`` are
    design JSON files (path, payload) written before the call, outside the
    timed region.  ``stress`` marks the scale-stress instances whose expected
    answer is a closed form the optimizer does not reach today.
    """

    argv: tuple[str, ...]
    command: str
    model: dict | None = None
    criterion: str | None = None
    expect: dict = field(default_factory=dict)
    files: tuple[tuple[str, dict], ...] = ()
    stress: bool = False

    @property
    def convex_optimal(self) -> bool:
        return self.command == "optimal" and self.criterion in CONVEX


@dataclass(frozen=True)
class Workload:
    name: str
    coverage: tuple[Call, ...]
    cycle: Callable[[int], tuple[Call, ...]]
    cycle_s: float  # nominal seconds of one cycle's calls

    def run_calls(self, seconds: float) -> list[Call]:
        """Call list of an untraced run: the fewest whole cycles that take ``seconds``."""
        n = max(1, math.ceil(seconds / self.cycle_s))
        return [call for i in range(n) for call in self.cycle(i)]

    def traced_calls(self) -> list[Call]:
        """Fixed call list of a traced run: the coverage calls and the first cycle."""
        return list(self.coverage) + list(self.cycle(0))


def _num(x: float) -> str:
    """Shortest text that parses back to the same float."""
    return repr(float(x))


def _sig(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return _sig(10.0 ** rng.uniform(lo_exp, hi_exp))


def slr_model(a: float, b: float) -> dict:
    return {"name": "slr", "a": a, "b": b}


def mm_model(V: float, K: float, b: float, eps: float) -> dict:
    return {"name": "mm", "V": V, "K": K, "b": b, "eps": eps}


def model_flags(model: dict) -> list[str]:
    if model["name"] == "slr":
        return ["--model=slr", f"--a={_num(model['a'])}", f"--b={_num(model['b'])}"]
    return ["--model=mm", f"--b={_num(model['b'])}", f"--eps={_num(model['eps'])}",
            f"--V={_num(model['V'])}", f"--K={_num(model['K'])}"]


def space_of(model: dict) -> tuple[float, float]:
    if model["name"] == "slr":
        return model["a"], model["b"]
    return model["eps"] * model["K"], model["b"] * model["K"]


def _draw_slr(rng: random.Random) -> dict:
    """An interval of width 0.5..10 whose endpoints stay at least 0.1 from zero."""
    while True:
        a = _sig(rng.uniform(-6.0, 6.0), 3)
        b = _sig(a + rng.uniform(0.5, 10.0), 3)
        if min(abs(a), abs(b)) >= 0.1:
            return slr_model(a, b)


def _draw_mm(rng: random.Random) -> dict:
    return mm_model(V=_log_uniform(rng, 0.0, 3.0), K=_log_uniform(rng, 0.0, 3.0),
                    b=_sig(rng.uniform(1.0, 10.0), 3), eps=_sig(rng.uniform(0.05, 0.9), 3))


def _c_vector(rng: random.Random, model: dict) -> tuple[float, float]:
    """A c whose c-optimal design has two points, so that it can be certified.

    The optimum is a single point when c is parallel to the regressor at some
    x of the space; for SLR f(x) = (1, x), for MM f2/f1 = -V/(K + x) < 0.  A
    slope c2/c1 outside those ranges keeps the optimum two-point.
    """
    if model["name"] == "slr":
        lo, hi = space_of(model)
        t = hi + rng.uniform(0.5, 3.0) if rng.random() < 0.5 else lo - rng.uniform(0.5, 3.0)
        return 1.0, _sig(t, 3)
    return 1.0, _sig(rng.uniform(0.1, 2.0), 3)


def optimal_call(model: dict, kind: str, rng: random.Random, n_support: int = 2,
                 stress: bool = False) -> Call:
    argv = ["optimal", *model_flags(model), f"--criterion={kind}"]
    expect: dict = {"n_support": n_support}
    if kind == "C":
        c = _c_vector(rng, model)
        argv.append(f"--c={_num(c[0])},{_num(c[1])}")
        expect["c"] = c
    if kind == "COMPOUND":
        lam = _sig(rng.uniform(0.1, 0.9), 3)
        argv.append(f"--lam={_num(lam)}")
        expect["lam"] = lam
    if n_support != 2:
        argv.append(f"--n-support={n_support}")
    argv.append(f"--seed={rng.randrange(1 << 30)}")
    return Call(tuple(argv), "optimal", model=model, criterion=kind, expect=expect, stress=stress)


# --- solve-2pt ---------------------------------------------------------------

def _stress_calls(rng: random.Random, i: int) -> list[Call]:
    """Scale-stress instances (ROADMAP item 4): closed forms exist for all of them.

    SLR far from the origin, SLR on a tiny interval around the origin, and MM
    with V/K tiny, each drawn around the cases measured to fail at the
    re-anchor ([1e6, 1e6+1], [-1e-7, 1e-7], V=1e-3 with K=1e6).  The tiny
    interval stays narrower than 2e-6: a wider one clears the singularity
    threshold (det > 1e-12) and is solved, so then the number of failing calls
    would depend on the seed.
    """
    far_a = _sig(math.copysign(_log_uniform(rng, 6.0, 8.0), rng.choice((-1.0, 1.0))), 6)
    far = slr_model(far_a, far_a + _sig(rng.uniform(0.5, 2.0), 3))
    half = _log_uniform(rng, -8.0, -6.5)
    tiny = slr_model(-half, _sig(half * rng.uniform(0.5, 2.0), 3))
    mm = mm_model(V=_log_uniform(rng, -6.0, -3.0), K=_log_uniform(rng, 4.0, 6.0),
                  b=_sig(rng.uniform(1.0, 10.0), 3), eps=_sig(rng.uniform(0.05, 0.9), 3))
    slr_kind = ("D", "R", "R2")
    return [
        optimal_call(far, slr_kind[i % 3], rng, stress=True),
        optimal_call(tiny, slr_kind[(i + 1) % 3], rng, stress=True),
        optimal_call(mm, "D", rng, stress=True),
    ]


def solve_2pt(seed: int, work_dir: str) -> Workload:
    def cycle(i: int) -> tuple[Call, ...]:
        rng = random.Random(f"solve-2pt/{seed}/{i}")
        regular = [optimal_call(draw(rng), kind, rng)
                   for kind in KINDS for draw in (_draw_slr, _draw_mm)]
        stress = _stress_calls(rng, i)
        # One stress call after every fifth regular call: a fixed 3/19 share.
        return tuple(regular[:5] + stress[:1] + regular[5:10] + stress[1:2]
                     + regular[10:15] + stress[2:] + regular[15:])

    return Workload("solve-2pt", coverage(seed), cycle, cycle_s=11.0)


# --- explore -----------------------------------------------------------------

def _design_payload(points: list[tuple[float, float]], lo: float, hi: float) -> dict:
    return {"points": [{"x": x, "w": w} for x, w in points], "space": {"lo": lo, "hi": hi}}


def slr_r_mass(a: float, b: float) -> float:
    """Mass at b of the R-optimal SLR design, 4(A + b^2) / (a^2 + 5A + 19 b^2)."""
    a2, b2 = a * a, b * b
    big_a = math.sqrt(a2 * a2 + 14.0 * a2 * b2 + b2 * b2)
    return 4.0 * (big_a + b2) / (a2 + 5.0 * big_a + 19.0 * b2)


def mm_d_points(model: dict) -> list[tuple[float, float]]:
    lo, hi = space_of(model)
    b = model["b"]
    return [(max(b / (2.0 + b) * model["K"], lo), 0.5), (hi, 0.5)]


def explore(seed: int, work_dir: str) -> Workload:
    def path(name: str) -> str:
        return os.path.join(work_dir, name)

    def cycle(i: int) -> tuple[Call, ...]:
        rng = random.Random(f"explore/{seed}/{i}")
        slr, mm = _draw_slr(rng), _draw_mm(rng)
        a, b = slr["a"], slr["b"]
        p = slr_r_mass(a, b)
        d_file = (path("slr-D.json"), _design_payload([(a, 0.5), (b, 0.5)], a, b))
        r_file = (path("slr-R.json"), _design_payload([(a, 1.0 - p), (b, p)], a, b))
        bad_file = (path("slr-perturbed.json"), _design_payload([(a, 0.7), (b, 0.3)], a, b))
        mm_file = (path("mm-D.json"), _design_payload(mm_d_points(mm), *space_of(mm)))
        pareto_model = slr if i % 2 == 0 else mm
        a_list = sorted({_sig(rng.uniform(-10.0, b - 0.1), 3) for _ in range(8)})
        a_list = [x for x in a_list if x != 0.0] or [b - 1.0]

        def check(model: dict, kind: str, design: tuple[str, dict], passes: bool) -> Call:
            return Call(("check", *model_flags(model), f"--criterion={kind}", f"--design={design[0]}"),
                        "check", model=model, criterion=kind, files=(design,),
                        expect={"passes": passes})

        # Nine calls per cycle are short (checks, tables, sweeps); four sweeps put
        # the median call among the sweeps, whose work does not vary between seeds.
        return (
            Call(("pareto", *model_flags(pareto_model), f"--n={PARETO_N}",
                  f"--seed={rng.randrange(1 << 30)}"), "pareto", model=pareto_model,
                 expect={"n": PARETO_N}),
            *(Call(("sweep", *model_flags(slr), f"--a-fixed={_num(_sig(a + t * (b - a), 4))}"),
                   "sweep", model=slr) for t in (0.3, 0.6)),
            *(Call(("sweep", *model_flags(mm),
                    f"--a-fixed={_num(_sig(mm['eps'] + t * (mm['b'] - mm['eps']), 4))}"),
                   "sweep", model=mm) for t in (0.3, 0.6)),
            check(slr, "D", d_file, True),
            check(slr, "R", r_file, True),
            check(mm, "D", mm_file, True),
            check(slr, "D", bad_file, False),
            Call(("efficiency", *model_flags(slr),
                  f"--designs={d_file[0]},{r_file[0]},{bad_file[0]}"), "efficiency", model=slr,
                 files=(d_file, r_file, bad_file)),
            Call(("table", "slr", f"--b={_num(b)}", "--a-list=" + ",".join(_num(x) for x in a_list)),
                 "table-slr", expect={"b": b, "a_list": a_list}),
        )

    return Workload("explore", coverage(seed), cycle, cycle_s=3.9)


def coverage(seed: int) -> tuple[Call, ...]:
    """The calls every traced run makes before its first cycle (see the module doc)."""
    rng = random.Random(f"coverage/{seed}")
    # The published table, one eps per call; together they print the whole table.
    table = tuple(Call(("table", "mm-designs", f"--eps-list={eps:g}", "--b=5"), "table-mm",
                       expect={"eps": f"{eps:g}"}) for eps in MM_TABLE_EPS)
    # The 3-point search takes 7 s on intervals around the origin and up to 22 s
    # on narrow ones far from it ([2.04, 3.15]); around the origin its cost
    # varies least between seeds.
    around_origin = slr_model(_sig(-rng.uniform(0.5, 5.0), 3), _sig(rng.uniform(0.5, 5.0), 3))
    slr = _draw_slr(rng)
    return table + (
        optimal_call(around_origin, "D", rng, n_support=3),
        Call(("pareto", *model_flags(slr), f"--n={COVERAGE_PARETO_N}", f"--seed={rng.randrange(1 << 30)}"),
             "pareto", model=slr, expect={"n": COVERAGE_PARETO_N}),
        Call(("sweep", *model_flags(slr), f"--a-fixed={_num(_sig(0.5 * (slr['a'] + slr['b']), 4))}"),
             "sweep", model=slr),
    )


WORKLOADS = {"solve-2pt": solve_2pt, "explore": explore}


def write_files(call: Call) -> None:
    for path, payload in call.files:
        with open(path, "w") as fh:
            json.dump(payload, fh)
