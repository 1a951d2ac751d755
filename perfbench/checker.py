"""Per-call output checker.

Each CLI call's exit code, stdout and stderr are checked against facts the
checker computes on its own: the information matrix of a returned design is
rebuilt here from the model's regressor (its determinant by Cauchy-Binet, so
that it does not cancel), closed-form optima are evaluated from their
formulas, and Pareto non-dominance is re-checked by a sort-based pass.  A
rejected call counts as failed.  ``self_check`` feeds the checker outputs
that are wrong on purpose and requires every one of them to be rejected.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

from workloads import CONVEX, Call, mm_d_points, slr_r_mass, space_of

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
MM_DESIGNS_REFERENCE = os.path.join(REFERENCE_DIR, "mm-designs.csv")

CLOSED_FORM_TOL = 1e-6   # allowed relative excess over a closed-form optimum
VALUE_TOL = 1e-6         # reported value against the value recomputed here
IDENTITY_TOL = 1e-6      # phi_R^2 (1 - r2) / phi_D^2 = 1
WEIGHT_SUM_TOL = 1e-9

EXIT_OK, EXIT_ERROR, EXIT_BEST_FOUND = 0, 1, 2


class Rejected(Exception):
    """An output the checker does not accept; the message says why."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Rejected(message)


# --- independent design arithmetic -------------------------------------------

def regressor(model: dict, x: float) -> tuple[float, float]:
    if model["name"] == "slr":
        return 1.0, x
    d = model["K"] + x
    return x / d, -model["V"] * x / (d * d)


def info(model: dict, points: list[tuple[float, float]]) -> tuple[float, float, float, float]:
    """(m11, m12, m22, det) of a design; det = sum_{i<j} w_i w_j (f_i x f_j)^2."""
    fs = [(regressor(model, x), w) for x, w in points]
    m11 = sum(w * f[0] * f[0] for f, w in fs)
    m12 = sum(w * f[0] * f[1] for f, w in fs)
    m22 = sum(w * f[1] * f[1] for f, w in fs)
    det = 0.0
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            (fi, wi), (fj, wj) = fs[i], fs[j]
            cross = fi[0] * fj[1] - fi[1] * fj[0]
            det += wi * wj * cross * cross
    return m11, m12, m22, det


def criteria(model: dict, points: list[tuple[float, float]]) -> dict:
    m11, m12, m22, det = info(model, points)
    if not det > 0.0:
        return {"singular": True}
    lmax = 0.5 * (m11 + m22 + math.hypot(m11 - m22, 2.0 * m12))
    out = {"singular": False, "m": (m11, m12, m22, det), "D": det ** -0.5,
           "R": math.sqrt(m11 * m22) / det, "R2": m12 * m12 / (m11 * m22),
           "EM": lmax * lmax / det}  # lambda_max / lambda_min, lambda_min = det / lambda_max
    out["CPB"] = math.sqrt(out["R2"])
    return out


def phi_c(m: tuple[float, float, float, float], c: tuple[float, float]) -> float:
    m11, m12, m22, det = m
    c1, c2 = c
    return (c1 * c1 * m22 - 2.0 * c1 * c2 * m12 + c2 * c2 * m11) / det


def closed_form(model: dict, kind: str) -> float | None:
    """Closed-form optimal value, where one exists (SLR D/R/R2, MM D)."""
    if model["name"] == "slr":
        a, b = model["a"], model["b"]
        if kind == "D":
            return 2.0 / (b - a)
        if kind == "R":
            p = slr_r_mass(a, b)
            return criteria(model, [(a, 1.0 - p), (b, p)])["R"]
        if kind == "R2":
            if a < 0.0 < b:
                return 0.0
            return criteria(model, [(a, abs(b) / (abs(a) + abs(b))),
                                    (b, abs(a) / (abs(a) + abs(b)))])["R2"]
        return None
    if kind == "D":
        return criteria(model, mm_d_points(model))["D"]
    return None


def closed_form_gap(kind: str, value: float, closed: float) -> float:
    """Excess over the optimum: relative, except for r2, which is already in [0, 1]."""
    return value - closed if kind == "R2" else (value - closed) / closed


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_identity(phi_d: float, phi_r: float, r2: float, where: str) -> None:
    _require(r2 < 1.0, f"{where}: r2={r2!r} is not below 1")
    lhs = phi_r * phi_r * (1.0 - r2)
    _require(_rel(lhs, phi_d * phi_d) <= IDENTITY_TOL,
             f"{where}: phi_R^2 (1 - r2) = {lhs!r} but phi_D^2 = {phi_d * phi_d!r}")


def check_design(model: dict, payload: dict, max_points: int) -> list[tuple[float, float]]:
    lo, hi = space_of(model)
    space = payload["space"]
    _require(abs(space["lo"] - lo) <= 1e-12 * abs(lo) and abs(space["hi"] - hi) <= 1e-12 * abs(hi),
             f"space [{space['lo']!r}, {space['hi']!r}], expected [{lo!r}, {hi!r}]")
    points = [(float(p["x"]), float(p["w"])) for p in payload["points"]]
    _require(2 <= len(points) <= max_points, f"{len(points)} support points")
    slack = 1e-12 * max(1.0, hi - lo)
    for x, w in points:
        _require(lo - slack <= x <= hi + slack, f"point {x!r} outside [{lo!r}, {hi!r}]")
        _require(w >= 0.0, f"negative weight {w!r}")
    _require(all(points[i][0] < points[i + 1][0] for i in range(len(points) - 1)),
             "support points not strictly ascending")
    total = sum(w for _, w in points)
    _require(abs(total - 1.0) <= WEIGHT_SUM_TOL, f"weights sum to {total!r}")
    return points


# --- per-command checks --------------------------------------------------------

def _check_optimal(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    _require(rc in (EXIT_OK, EXIT_BEST_FOUND), f"exit code {rc}: {err.strip()[-200:]}")
    res = json.loads(out)
    label = res["label"]
    _require((rc, label) in ((EXIT_OK, "certified"), (EXIT_BEST_FOUND, "best-found")),
             f"exit code {rc} with label {label!r}")
    kind = call.criterion
    if kind not in CONVEX:
        _require(label == "best-found", f"non-convex {kind} labelled {label!r}")
    facts["certified"] = label == "certified"
    points = check_design(call.model, res["design"], call.expect["n_support"])
    crit = criteria(call.model, points)
    _require(not crit["singular"], "returned design is singular")
    check_identity(crit["D"], crit["R"], crit["R2"], "design")
    value = float(res["criterion_value"])
    if kind in ("D", "R", "R2", "EM", "CPB"):
        mine = crit[kind]
    elif kind == "C":
        mine = phi_c(crit["m"], call.expect["c"])
    else:
        mine = None  # SA and COMPOUND depend on reference values not in the output
    if mine is not None:
        # r2 and its square root lie in [0, 1] and reach 0: compared absolutely.
        close = abs(value - mine) <= 1e-9 if kind in ("R2", "CPB") else _rel(value, mine) <= VALUE_TOL
        _require(close, f"reported {kind} value {value!r}, recomputed {mine!r}")
    closed = closed_form(call.model, kind)
    if closed is not None:
        gap = closed_form_gap(kind, value, closed)
        facts["closed_form_gap"] = gap
        _require(-1e-8 <= gap <= CLOSED_FORM_TOL,
                 f"{kind} value {value!r} vs closed form {closed!r} (gap {gap:.3g})")


def _check_table_mm(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    _require(rc == EXIT_OK, f"exit code {rc}: {err.strip()[-200:]}")
    # The header and this eps's rows of the recorded table, byte for byte.
    with open(MM_DESIGNS_REFERENCE) as fh:
        header, *rows = fh.read().splitlines(keepends=True)
    eps = call.expect["eps"]
    ref = header + "".join(r for r in rows if r.split(",", 1)[0] == eps)
    _require(len(ref) > len(header) and out == ref,
             f"mm-designs CSV for eps={eps} differs from the recorded reference")


def _rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    _require(bool(lines) and lines[0] == header, f"header {lines[:1]!r}, expected {header!r}")
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _check_table_slr(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    _require(rc == EXIT_OK, f"exit code {rc}: {err.strip()[-200:]}")
    header = "a,p_R,p_r2,Eff_D(xi_R),Eff_D(xi_r2),Eff_R(xi_D),Eff_R(xi_r2),Corr(xi_D),Corr(xi_R),Corr(xi_r2)"
    rows = _rows(out, header)
    b, a_list = call.expect["b"], call.expect["a_list"]
    _require(len(rows) == len(a_list), f"{len(rows)} rows for {len(a_list)} intervals")
    for row, a in zip(rows, a_list):
        _require(len(row) == 10 and row[0] == f"{a:g}", f"row {row!r} for a={a!r}")
        corr_d = -(a + b) / math.sqrt(2.0 * (a * a + b * b))
        for text, exact, name in ((row[1], slr_r_mass(a, b), "p_R"), (row[7], corr_d, "Corr(xi_D)")):
            _require(abs(float(text) - exact) <= 5e-4 + 1e-12, f"a={a!r}: {name} {text} vs {exact!r}")


def nondominated(front: list[tuple[float, float]], tol: float = 1e-12) -> bool:
    """Sort-based check that no (eff_D, eff_R) point is dominated by another."""
    pts = sorted(front, key=lambda t: (-t[0], -t[1]))
    best_r_seen = -math.inf      # over earlier points: eff_D >= current
    best_r_strict = -math.inf    # over points with eff_D beyond tol above current
    j = 0
    for d, r in pts:
        while j < len(pts) and pts[j][0] - d > tol:
            best_r_strict = max(best_r_strict, pts[j][1])
            j += 1
        if best_r_seen - r > tol or best_r_strict >= r:
            return False
        best_r_seen = max(best_r_seen, r)
    return True


def _check_pareto(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    _require(rc == EXIT_OK, f"exit code {rc}: {err.strip()[-200:]}")
    rows = [[float(v) for v in row] for row in _rows(out, "eff_D,eff_R,p,a,r2")]
    meta = json.loads(err.strip().splitlines()[-1])
    _require(meta["front_size"] == len(rows) >= 1, f"front_size {meta['front_size']} vs {len(rows)} rows")
    _require(meta["n"] == call.expect["n"], f"n={meta['n']}")
    for eff_d, eff_r, p, _a, r2 in rows:
        _require(0.0 < eff_d <= 1.0 + 1e-9 and 0.0 < eff_r <= 1.0 + 1e-9,
                 f"efficiencies ({eff_d!r}, {eff_r!r}) outside (0, 1]")
        _require(0.0 < p < 1.0 and 0.0 <= r2 < 1.0, f"p={p!r}, r2={r2!r}")
    _require([r[0] for r in rows] == sorted((r[0] for r in rows), reverse=True),
             "front not sorted by eff_D descending")
    _require(nondominated([(r[0], r[1]) for r in rows]), "front holds a dominated point")


def _check_sweep(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    _require(rc == EXIT_OK, f"exit code {rc}: {err.strip()[-200:]}")
    rows = [[float(v) for v in row] for row in _rows(out, "p,phi_D,phi_R,phi_r2,corr")]
    _require(len(rows) == 199, f"{len(rows)} sweep rows")
    model = call.model
    a_fixed = float(next(a for a in call.argv if a.startswith("--a-fixed=")).split("=", 1)[1])
    x_lo = a_fixed * model["K"] if model["name"] == "mm" else a_fixed
    x_hi = space_of(model)[1]
    for p, phi_d, phi_r, r2, corr in rows:
        check_identity(phi_d, phi_r, r2, f"sweep row p={p!r}")
        _require(abs(corr * corr - r2) <= 1e-12, f"sweep row p={p!r}: corr^2 != phi_r2")
        crit = criteria(model, [(x_lo, p), (x_hi, 1.0 - p)])
        _require(_rel(phi_d, crit["D"]) <= VALUE_TOL and _rel(phi_r, crit["R"]) <= VALUE_TOL,
                 f"sweep row p={p!r}: phi_D/phi_R differ from the design's")


def _check_check(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    passes = call.expect["passes"]
    _require(rc == (EXIT_OK if passes else EXIT_ERROR), f"exit code {rc}, expected pass={passes}")
    res = json.loads(out)
    _require(res["certified"] is passes, f"certified={res['certified']!r}")
    facts["certified"] = passes and res["certified"] is True
    points = [(p["x"], p["w"]) for p in call.files[0][1]["points"]]
    mine = criteria(call.model, points)[call.criterion]
    _require(_rel(float(res["criterion_value"]), mine) <= VALUE_TOL,
             f"criterion_value {res['criterion_value']!r}, recomputed {mine!r}")


def _check_efficiency(call: Call, rc: int, out: str, err: str, facts: dict) -> None:
    _require(rc == EXIT_OK, f"exit code {rc}: {err.strip()[-200:]}")
    res = json.loads(out)
    model = call.model
    d_star, r_star = res["phi_d_star"], res["phi_r_star"]
    for kind, star in (("D", d_star), ("R", r_star)):
        closed = closed_form(model, kind)
        gap = closed_form_gap(kind, star, closed)
        facts["closed_form_gap"] = max(facts.get("closed_form_gap", -math.inf), gap)
        _require(-1e-8 <= gap <= CLOSED_FORM_TOL, f"phi_{kind}_star {star!r} vs closed form {closed!r}")
    entries = res["designs"]
    _require(len(entries) == 3, f"{len(entries)} designs")
    for e in entries:
        _require(not e["singular"], f"{e['path']} reported singular")
        check_identity(e["phi_D"], e["phi_R"], e["phi_r2"], e["path"])
        _require(abs(e["corr"] ** 2 - e["phi_r2"]) <= 1e-12, f"{e['path']}: corr^2 != phi_r2")
        _require(e["eff_D"] <= 1.0 + 1e-9 and e["eff_R"] <= 1.0 + 1e-9, f"{e['path']}: efficiency above 1")
    d_opt, r_opt, bad = entries
    _require(abs(d_opt["eff_D"] - 1.0) <= CLOSED_FORM_TOL, f"Eff_D of the D-optimum {d_opt['eff_D']!r}")
    _require(abs(r_opt["eff_R"] - 1.0) <= CLOSED_FORM_TOL, f"Eff_R of the R-optimum {r_opt['eff_R']!r}")
    _require(bad["eff_D"] < 1.0 - 1e-3, f"Eff_D of the perturbed design {bad['eff_D']!r}")


CHECKS = {
    "optimal": _check_optimal,
    "table-mm": _check_table_mm,
    "table-slr": _check_table_slr,
    "pareto": _check_pareto,
    "sweep": _check_sweep,
    "check": _check_check,
    "efficiency": _check_efficiency,
}


def check(call: Call, rc: int, out: str, err: str) -> tuple[bool, str, dict]:
    """(accepted, reason, facts); facts may hold ``certified`` and ``closed_form_gap``."""
    facts: dict = {}
    try:
        CHECKS[call.command](call, rc, out, err, facts)
    except Rejected as exc:
        return False, str(exc), facts
    except (ValueError, KeyError, TypeError, IndexError, json.JSONDecodeError) as exc:
        return False, f"malformed output: {type(exc).__name__}: {exc}", facts
    return True, "", facts


def self_check() -> None:
    """Require the checker to reject outputs that are wrong on purpose."""
    model = {"name": "slr", "a": 1.0, "b": 3.0}
    call = Call(("optimal", "--model=slr", "--a=1.0", "--b=3.0", "--criterion=D"), "optimal",
                model=model, criterion="D", expect={"n_support": 2})

    def optimal_out(points: list[tuple[float, float]]) -> str:
        value = criteria(model, points)["D"]
        return json.dumps({"design": {"points": [{"x": x, "w": w} for x, w in points],
                                      "space": {"lo": 1.0, "hi": 3.0}},
                           "criterion_value": value, "label": "certified"})

    ok, reason, _ = check(call, EXIT_OK, optimal_out([(1.0, 0.5), (3.0, 0.5)]), "")
    if not ok:
        raise AssertionError(f"checker rejects the D-optimal design: {reason}")
    wrong = {
        "off-optimal weights": (EXIT_OK, optimal_out([(1.0, 0.6), (3.0, 0.4)])),
        "weights not summing to 1": (EXIT_OK, optimal_out([(1.0, 0.5), (3.0, 0.55)])),
        "point outside the space": (EXIT_OK, optimal_out([(0.5, 0.5), (3.0, 0.5)])),
        "certified with exit code 2": (EXIT_BEST_FOUND, optimal_out([(1.0, 0.5), (3.0, 0.5)])),
    }
    for what, (rc, out) in wrong.items():
        if check(call, rc, out, "")[0]:
            raise AssertionError(f"checker accepts a wrong design ({what})")
    if nondominated([(0.9, 0.8), (0.95, 0.85)]) or not nondominated([(0.9, 0.85), (0.95, 0.8)]):
        raise AssertionError("sort-based dominance check is wrong")
