"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Golden values come from the published reference tables; property criteria are
checked at their stated tolerances.  Cells documented as irreproducible (see
ERRATA.md) are still asserted as stated here, so genuine deviations
show up as failures with itemized cell-by-cell messages rather than silently
loosened tolerances.
"""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from optdesign import (
    CriterionSpec,
    DesignSpace,
    InfoMatrix,
    design_to_json,
    directional_derivative,
    fim,
    phi_d,
    phi_r,
    phi_r2,
    slr_model,
)
from optdesign.cli import EXIT_OK, main
from optdesign.mm import MMParams, mm_d_optimal, mm_model
from optdesign.optimize import mm_tables, optimize_design
from optdesign.pareto import (
    compound_sweep,
    criterion_sweep,
    evaluate_front_points,
    has_mutually_nondominated_rows,
    pareto_front,
    sample_two_point_designs,
)
from optdesign.slr import (
    EFF_D_OF_R_MIN,
    EFF_R_OF_D_MIN,
    SlrInterval,
    d_optimal_slr,
    eff_d_of_r,
    eff_r_of_d,
    r_optimal_slr,
)
from conftest import mixed, random_design, random_slr_model

K_NOMINAL = 227.27

# Published 9x9 table for intervals [a, 5]: p_R, p_r2, Eff_D(xi_R), Eff_D(xi_r2),
# Eff_R(xi_D), Eff_R(xi_r2), Corr(xi_D), Corr(xi_R), Corr(xi_r2).
TABLE1 = {
    3.0:  (0.439, 0.375, 0.992, 0.968, 0.986, 0.984, -0.970, -0.969, -0.968),
    1.0:  (0.356, 0.167, 0.958, 0.745, 0.934, 0.837, -0.832, -0.785, -0.745),
    0.5:  (0.340, 0.0909, 0.947, 0.575, 0.923, 0.686, -0.774, -0.689, -0.575),
    0.2:  (0.334, 0.0385, 0.944, 0.385, 0.919, 0.481, -0.735, -0.623, -0.385),
    -0.2: (0.334, 0.0385, 0.944, 0.385, 0.919, 0.481, -0.678, -0.531, 0.0),
    -0.5: (0.340, 0.0909, 0.947, 0.575, 0.923, 0.686, -0.633, -0.465, 0.0),
    -1.0: (0.356, 0.167, 0.958, 0.745, 0.934, 0.837, -0.555, -0.367, 0.0),
    -3.0: (0.439, 0.375, 0.992, 0.968, 0.986, 0.984, -0.243, -0.127, 0.0),
    -5.0: (0.500, 0.500, 1.000, 1.000, 1.000, 1.000, 0.0, 0.0, 0.0),
}

# Published (a, p) per (eps, criterion): support {aK, 5K}, mass p at aK.
TABLE2 = {
    (0.0, "D"): (0.71, 0.50), (0.0, "SA"): (0.55, 0.54), (0.0, "R"): (0.55, 0.54),
    (0.0, "EM"): (0.00, 1.00), (0.0, "R2"): (0.00, 1.00),
    (0.05, "D"): (0.71, 0.50), (0.05, "SA"): (0.55, 0.54), (0.05, "R"): (0.55, 0.53),
    (0.05, "EM"): (0.05, 1.00), (0.05, "R2"): (0.50, 0.61),
    (0.5, "D"): (0.71, 0.50), (0.5, "SA"): (0.55, 0.54), (0.5, "R"): (0.55, 0.53),
    (0.5, "EM"): (0.50, 0.86), (0.5, "R2"): (0.50, 0.61),
    (1.0, "D"): (1.00, 0.50), (1.0, "SA"): (1.00, 0.50), (1.0, "R"): (1.00, 0.49),
    (1.0, "EM"): (1.00, 0.73), (1.0, "R2"): (1.00, 0.48),
}

# Published efficiency table per (eps, criterion): Eff_D, Eff_SA, Eff_R, Eff_EM, r2.
TABLE3 = {
    (0.05, "D"):  (1.00, 0.99, 0.99, 0.16, 0.69),
    (0.05, "SA"): (0.97, 1.00, 1.00, 0.02, 0.66),
    (0.05, "R"):  (0.97, 1.00, 1.00, 0.03, 0.66),
    (0.05, "R2"): (0.92, 0.98, 0.98, 0.96, 0.64),
    (0.5, "D"):   (1.00, 0.99, 0.99, 0.82, 0.69),
    (0.5, "SA"):  (0.97, 1.00, 1.00, 0.55, 0.66),
    (0.5, "R"):   (0.97, 1.00, 1.00, 0.60, 0.66),
    (0.5, "R2"):  (0.92, 0.98, 0.98, 0.87, 0.64),
    (1.0, "D"):   (1.00, 1.00, 1.00, 0.94, 0.75),
    (1.0, "SA"):  (1.00, 1.00, 1.00, 0.78, 0.75),
    (1.0, "R"):   (1.00, 1.00, 1.00, 0.79, 0.75),
    (1.0, "R2"):  (1.00, 1.00, 1.00, 0.94, 0.75),
}


def report(num: int, name: str, violations: list[str], elapsed: float | None = None) -> None:
    status = "PASS" if not violations else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance {num:02d}] {name}: {status}{timing}")
    for v in violations:
        print(f"    - {v}")
    assert not violations, f"{len(violations)} violation(s):\n" + "\n".join(violations)


@pytest.fixture(scope="module")
def mm_reference_tables():
    """Reference tables over all four lower extremes, timed once."""
    t0 = time.perf_counter()
    tables = mm_tables(MMParams(), eps_list=[0.0, 0.05, 0.5, 1.0], compat=True)
    return tables, time.perf_counter() - t0


def test_01_slr_table_golden(capsys):
    t0 = time.perf_counter()
    code = main(["table", "slr", "--b", "5",
                 "--a-list", "3,1,0.5,0.2,-0.2,-0.5,-1,-3,-5"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    violations = []
    if code != EXIT_OK:
        violations.append(f"CLI exit code {code}")
    lines = out.strip().splitlines()
    for line, (a, want) in zip(lines[1:], TABLE1.items()):
        cells = line.split(",")
        got = [float(c) for c in cells[1:]]
        for col, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > 1e-3 + 1e-12:
                violations.append(f"a={a} col={col}: got {g} want {w}")
    if elapsed >= 1.0:
        violations.append(f"runtime {elapsed:.2f}s >= 1s")
    with capsys.disabled():
        report(1, "slr-table-golden (9x9 cells, +-0.001, <1s)", violations, elapsed)


def test_02_variance_product_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    mm = mm_model(MMParams(eps=0.05))
    violations = []
    for model_kind in ("slr", "mm"):
        checked = 0
        while checked < 1000:
            model = random_slr_model(rng) if model_kind == "slr" else mm
            m = fim(model, random_design(model, rng))
            if m.is_singular:
                continue
            lhs = phi_r(m) ** 2
            rhs = phi_d(m) ** 2 / (1.0 - phi_r2(m))
            if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs)):
                violations.append(f"{model_kind}: identity off by {abs(lhs - rhs):.3e}")
            checked += 1
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        violations.append(f"runtime {elapsed:.2f}s >= 1s")
    report(2, "variance-product identity (1000 designs x 2 models, 1e-10, <1s)",
           violations, elapsed)


def test_03_squared_criterion_midpoint_convexity():
    rng = np.random.default_rng(102)
    violations = []
    checked = 0
    while checked < 1000:
        model = random_slr_model(rng)
        m1 = fim(model, random_design(model, rng))
        m2 = fim(model, random_design(model, rng))
        if m1.is_singular or m2.is_singular:
            continue
        mix = mixed(m1, m2, 0.5)
        lhs = phi_r(mix) ** 2
        rhs = 0.5 * phi_r(m1) ** 2 + 0.5 * phi_r(m2) ** 2
        if lhs > rhs + 1e-10 * max(1.0, abs(rhs)):
            violations.append(f"midpoint convexity violated by {lhs - rhs:.3e}")
        checked += 1
    report(3, "variance-product convexity (1000 pairs, slack 1e-10)", violations)


def test_04_gradient_arbitration_by_finite_differences():
    rng = np.random.default_rng(103)
    mm = mm_model(MMParams(eps=0.2))
    spec = CriterionSpec("R")
    violations = []
    checked = 0
    while checked < 20:
        model = mm if checked % 2 else random_slr_model(rng, min_width=2.0)
        design = random_design(model, rng, min_sep_rel=0.15, w_floor=0.4)
        m = fim(model, design)
        if m.is_singular:
            continue
        x = float(rng.uniform(model.space.lo, model.space.hi))
        an = directional_derivative(model, design, x, spec)
        if abs(an) < 0.02 * phi_r(m):
            continue
        f = model.regressor(np.array([x]))[0]
        mx = InfoMatrix(f[0] * f[0], f[0] * f[1], f[1] * f[1])
        alpha = 1e-6
        fd = (phi_r(mixed(m, mx, alpha)) - phi_r(m)) / alpha
        rel = abs(an - fd) / abs(fd)
        if rel > 1e-4:
            violations.append(f"{model.name} design {checked}: rel err {rel:.2e}")
        checked += 1
    report(4, "directional derivative vs finite differences (20 designs, 1e-4)",
           violations)


def test_05_equivalence_certificates_via_cli(tmp_path, capsys):
    iv = SlrInterval(1.0, 5.0)
    params = MMParams(b=5.0, eps=0.0)
    cases = [
        ("d_optimal_slr", d_optimal_slr(iv), DesignSpace(1.0, 5.0), "D",
         ["--model", "slr", "--a", "1", "--b", "5"]),
        ("r_optimal_slr", r_optimal_slr(iv), DesignSpace(1.0, 5.0), "R",
         ["--model", "slr", "--a", "1", "--b", "5"]),
        ("mm_d_optimal", mm_d_optimal(params), params.space(), "D",
         ["--model", "mm", "--b", "5", "--eps", "0"]),
    ]
    violations = []
    for name, design, space, kind, model_args in cases:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(design_to_json(design, space)))
        code = main(["check", *model_args, "--criterion", kind,
                     "--design", str(path)])
        out = capsys.readouterr().out
        summary = json.loads(out)
        if code != EXIT_OK or not summary["certified"]:
            violations.append(f"{name}: exit {code}, min_dd {summary['min_dd']:.3e}")
    with capsys.disabled():
        report(5, "equivalence certificates for closed-form optima (min dd >= -1e-6)",
               violations)


def test_06_efficiency_lower_bounds():
    rng = np.random.default_rng(104)
    violations = []
    checked = 0
    while checked < 500:
        a = float(rng.uniform(-6, 6))
        b = a + float(rng.uniform(0.1, 8))
        iv = SlrInterval(a, b)
        e1, e2 = eff_d_of_r(iv), eff_r_of_d(iv)
        if e1 < EFF_D_OF_R_MIN - 1e-9:
            violations.append(f"[{a:.3f},{b:.3f}]: Eff_D(xi_R)={e1} below bound")
        if e2 < EFF_R_OF_D_MIN - 1e-9:
            violations.append(f"[{a:.3f},{b:.3f}]: Eff_R(xi_D)={e2} below bound")
        checked += 1
    for iv in (SlrInterval(-1.0, 0.0), SlrInterval(0.0, 1.0)):
        if abs(eff_d_of_r(iv) - 0.943) > 1e-3:
            violations.append(f"bound not attained at [{iv.a},{iv.b}]: {eff_d_of_r(iv)}")
        if abs(eff_r_of_d(iv) - 0.919) > 1e-3:
            violations.append(f"bound not attained at [{iv.a},{iv.b}]: {eff_r_of_d(iv)}")
    report(6, "efficiency lower bounds (500 intervals; 0.943 / 0.919 attained)",
           violations)


def design_table_violations(tables) -> list[str]:
    """One message per TABLE2 cell the computed design table misses."""
    rows = {(r.eps, r.criterion): r for r in tables.designs}
    violations = []
    strict = [(eps, kind) for eps in (0.05, 0.5, 1.0) for kind in ("D", "SA", "R", "R2")]
    compat = [(eps, "EM") for eps in (0.0, 0.05, 0.5, 1.0)] + [(0.0, "R2"), (0.0, "D"),
                                                               (0.0, "SA"), (0.0, "R")]
    for cells, tol in ((strict, 0.02), (compat, 0.05)):
        for eps, kind in cells:
            row = rows[(eps, kind)]
            want_a, want_p = TABLE2[(eps, kind)]
            got_a, got_p = round(row.a, 2), round(row.p, 2)
            if abs(got_a - want_a) > tol + 1e-9 or abs(got_p - want_p) > tol + 1e-9:
                violations.append(
                    f"eps={eps} {kind}: got (a={got_a:.2f}, p={got_p:.2f}) "
                    f"want ({want_a:.2f}, {want_p:.2f}) +-{tol}")
    return violations


def efficiency_table_violations(tables) -> list[str]:
    """One message per TABLE3 cell the computed efficiency table misses."""
    rows = {(r.eps, r.criterion): r for r in tables.efficiencies}
    violations = []
    for (eps, kind), (w_effd, w_effsa, w_effr, w_effem, w_r2) in TABLE3.items():
        row = rows[(eps, kind)]
        checks = [
            ("Eff_D", row.eff_d, w_effd, 0.02),
            ("Eff_R", row.eff_r, w_effr, 0.02),
            ("r2", row.r2, w_r2, 0.02),
            ("Eff_SA", row.eff_sa, w_effsa, 0.05),
            ("Eff_EM", row.eff_em, w_effem, 0.05),
        ]
        for col, got, want, tol in checks:
            if got is None:
                violations.append(f"eps={eps} {kind} {col}: missing, want {want}")
                continue
            if abs(round(got, 2) - want) > tol + 1e-9:
                violations.append(
                    f"eps={eps} {kind} {col}: got {round(got, 2):.2f} want {want:.2f} +-{tol}")
    return violations


def test_07_mm_design_table(mm_reference_tables):
    tables, elapsed = mm_reference_tables
    violations = design_table_violations(tables)
    if elapsed >= 30.0:
        violations.append(f"runtime {elapsed:.1f}s >= 30s")
    report(7, "mm design table (a, p per criterion and eps)", violations, elapsed)


def test_08_mm_efficiency_table(mm_reference_tables):
    tables, _ = mm_reference_tables
    report(8, "mm efficiency table (Eff_D/Eff_R/r2 +-0.02, Eff_SA/Eff_EM +-0.05)",
           efficiency_table_violations(tables))


def test_failing_table_cells_are_the_errata(mm_reference_tables):
    # ERRATA.md heads one entry per published cell that test_07 or test_08 rejects,
    # with that test's message for it; no other cell may fail, and none of them pass.
    tables, _ = mm_reference_tables
    failing = design_table_violations(tables) + efficiency_table_violations(tables)
    listed = re.findall(r"^### (.+)$", (Path(__file__).parents[1] / "ERRATA.md").read_text(), re.M)
    assert sorted(listed) == sorted(failing)


def test_09_closed_forms_beat_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    violations = []

    def oracle(a, b, n_x=400, n_w=200):
        xs = np.linspace(a, b, n_x)
        i, j = np.triu_indices(n_x, k=1)
        x1, x2 = xs[i], xs[j]
        best = [math.inf, math.inf, math.inf]  # D, R, r2
        for w in np.linspace(1.0 / (n_w + 1), n_w / (n_w + 1.0), n_w):
            xbar = w * x1 + (1 - w) * x2
            x2bar = w * x1 ** 2 + (1 - w) * x2 ** 2
            s2 = x2bar - xbar ** 2
            ok = s2 > 1e-12
            s2s = np.where(ok, s2, 1.0)
            best[0] = min(best[0], float(np.min(np.where(ok, s2s ** -0.5, np.inf))))
            best[1] = min(best[1], float(np.min(np.where(ok, np.sqrt(x2bar) / s2s, np.inf))))
            best[2] = min(best[2], float(np.min(np.where(ok, xbar ** 2 / x2bar, np.inf))))
        return best

    from optdesign.slr import r2_optimal_slr

    for _ in range(20):
        a = float(rng.uniform(-5, 5))
        b = a + float(rng.uniform(0.5, 6))
        if min(abs(a), abs(b)) < 0.05 * (b - a):
            a += 0.2 * (b - a)
        iv = SlrInterval(a, b)
        model = iv.model()
        o_d, o_r, o_r2 = oracle(a, b)
        closed = [
            ("D", phi_d(fim(model, d_optimal_slr(iv))), o_d),
            ("R", phi_r(fim(model, r_optimal_slr(iv))), o_r),
            ("r2", phi_r2(fim(model, r2_optimal_slr(iv))), o_r2),
        ]
        for kind, val, oracle_min in closed:
            if val > oracle_min + 1e-6:
                violations.append(
                    f"[{a:.3f},{b:.3f}] {kind}: closed {val:.8f} > oracle {oracle_min:.8f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.1f}s >= 60s")
    report(9, "closed forms vs 400x400x200 brute force (20 intervals, <60s)",
           violations, elapsed)


def test_10_pareto_and_compound_endpoints():
    model = mm_model(MMParams(b=5.0, eps=0.5))
    d_star = optimize_design(model, CriterionSpec("D")).criterion_value
    r_star = optimize_design(model, CriterionSpec("R")).criterion_value
    designs = sample_two_point_designs(model, 1000, seed=20260810)
    points = evaluate_front_points(model, designs, d_star, r_star)
    front = pareto_front(points)
    violations = []
    for p in front:
        if p.eff_d < 0.96:
            violations.append(f"front member with Eff_D={p.eff_d:.4f} < 0.96")
        for q in points:
            if (q.eff_d >= p.eff_d and q.eff_r >= p.eff_r
                    and (q.eff_d - p.eff_d > 1e-12 or q.eff_r - p.eff_r > 1e-12)):
                violations.append("front member dominated by a sample")
    if [(p.eff_d, p.eff_r) for p in pareto_front(front)] != \
            [(p.eff_d, p.eff_r) for p in front]:
        violations.append("front not idempotent")
    rows = compound_sweep(model, [0.0, 1.0], d_star, r_star)
    if abs(phi_d(fim(model, rows[0].design)) - d_star) > 1e-6 * d_star:
        violations.append("lambda=0 does not recover the determinant-criterion optimum")
    if abs(phi_r(fim(model, rows[1].design)) - r_star) > 1e-6 * r_star:
        violations.append("lambda=1 does not recover the variance-product optimum")
    report(10, "pareto front properties and compound endpoints (1000 samples)",
           violations)


def test_11_loop_effect_tradeoff():
    violations = []
    slr = slr_model(DesignSpace(0.5, 5.0))
    rows = criterion_sweep(slr, 0.5, [i / 200 for i in range(1, 200)])
    if not has_mutually_nondominated_rows(rows):
        violations.append("slr sweep (a=0.5) has no mutually non-dominated pair")
    mm = mm_model(params := MMParams(b=5.0, eps=0.0))
    rows = criterion_sweep(mm, 0.71 * params.K, [i / 200 for i in range(1, 200)])  # a = 0.71K, in x's units
    if not has_mutually_nondominated_rows(rows):
        violations.append("mm sweep (a=0.71) has no mutually non-dominated pair")
    report(11, "loop effect: non-dominated (phi_D, phi_R) pairs in weight sweeps",
           violations)
