"""End-to-end CLI behavior: subcommands, exit codes, reproducibility, config."""

from __future__ import annotations

import argparse
import decimal
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import optdesign.optimize as optimize_module
from optdesign import CriterionSpec, optimize_design
from optdesign.cli import (
    EXIT_BEST_FOUND,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    _build_criterion,
    build_parser,
    main,
)
from optdesign.criteria import derivative_report
from optdesign.mm import MMParams, mm_model
from optdesign.optimize import MM_CRITERIA, _reference_stars, mm_tables
from optdesign.slr import SlrInterval


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimal:
    def test_slr_r_optimal(self, capsys):
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "R")
        assert code == EXIT_OK
        payload = json.loads(out)
        pts = payload["design"]["points"]
        assert abs(pts[0]["x"] - 1.0) < 1e-9 and abs(pts[0]["w"] - 0.644) < 1e-3
        assert abs(pts[1]["x"] - 5.0) < 1e-9 and abs(pts[1]["w"] - 0.356) < 1e-3
        assert payload["label"] == "certified"

    def test_mm_d_optimal(self, capsys):
        code, out, _ = run(capsys, "optimal", "--model", "mm", "--b", "5", "--eps", "0",
                           "--criterion", "D")
        assert code == EXIT_OK
        pts = json.loads(out)["design"]["points"]
        assert abs(pts[0]["x"] / 227.27 - 0.71) < 0.01
        assert abs(pts[0]["w"] - 0.5) < 1e-4

    def test_negative_value_in_scientific_notation(self, capsys):
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", "-1e-3", "--b", "2",
                           "--criterion", "D")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["model_params"]["a"] == -1e-3

    @pytest.mark.parametrize("value, shown", [("-inf", "-inf"), ("-Infinity", "-inf"), ("-INF", "-inf"),
                                              ("-nan", "nan"), ("-NaN", "nan")])
    def test_negative_infinity_and_nan_are_values(self, capsys, value, shown):
        # float() reads these, case-insensitively; argparse once took them for options ("expected one argument").
        code, out, err = run(capsys, "optimal", "--model", "slr", "--a", value, "--b", "1", "--criterion", "D")
        assert code == EXIT_USAGE and out == ""
        assert err == f"optdesign: design space endpoints must be finite, got [{shown}, 1.0]\n"

    @pytest.mark.parametrize("module", ["optdesign", "optdesign.cli"])
    def test_module_execution(self, capsys, monkeypatch, module):
        # __main__.py and cli.console_main: a fresh process exits 0 and prints what cli.main prints.
        monkeypatch.delenv("OPTDESIGN_SEED", raising=False)
        src = Path(__file__).resolve().parents[1] / "src"
        argv = ("optimal", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D")
        proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == EXIT_OK, proc.stderr
        points = json.loads(proc.stdout)["design"]["points"]
        assert [p["x"] for p in points] == [1.0, 5.0]
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)

    @pytest.mark.parametrize("x0", [241.474375, 624.9925, 5.0 * 227.27])
    def test_c_parallel_to_one_regressor_is_the_one_point_design(self, capsys, x0):
        # The c-optimal design for c = 1.7 f(x0) is the one point x0, with value 1.7^2.
        f = mm_model(MMParams(b=5.0, eps=0.5)).regressor(np.array([x0]))[0].tolist()
        code, out, _ = run(capsys, "optimal", "--model", "mm", "--b", "5", "--eps", "0.5", "--criterion", "C",
                           f"--c={1.7 * f[0]!r},{1.7 * f[1]!r}")
        payload = json.loads(out)
        assert code == EXIT_OK and payload["label"] == "certified"
        [point] = payload["design"]["points"]
        assert point["w"] == 1.0 and math.isclose(point["x"], x0, rel_tol=1e-12)
        assert math.isclose(payload["criterion_value"], 2.89, rel_tol=1e-12)

    @pytest.mark.parametrize("mass", [5e-9, 5e-11, 5e-13])
    def test_check_c_near_a_singular_design_reads_at_least_the_optimum(self, capsys, tmp_path, mass):
        # No design beats the value 2.89 of c = 1.7 f(x0); with a minor mass at 688.91, c^T M^- c once read
        # below it (2.88914 at 5e-13).
        x0 = 241.474375
        f = mm_model(MMParams(b=5.0, eps=0.5)).regressor(np.array([x0]))[0].tolist()
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"points": [{"x": x0, "w": 1.0 - mass}, {"x": 688.91, "w": mass}],
                                    "space": {"lo": 113.635, "hi": 1136.35}}))
        _, out, _ = run(capsys, "check", "--model", "mm", "--b", "5", "--eps", "0.5", "--criterion", "C",
                        f"--c={1.7 * f[0]!r},{1.7 * f[1]!r}", "--design", str(path))
        value = json.loads(out)["criterion_value"]
        assert value >= 2.89 and math.isclose(value, 2.89, rel_tol=1e-8)

    @pytest.mark.parametrize("criterion", ["D", "EM"])
    def test_seed_does_not_move_the_optimizer(self, capsys, criterion):
        # The seed feeds only the pareto sampler; optimal echoes it and nothing else.
        outs = [run(capsys, "optimal", "--model", "mm", "--b", "5", "--eps", "0.5",
                    "--criterion", criterion, "--seed", seed)[1] for seed in ("1", "2")]
        assert outs[0].replace('"seed": 1', '"seed": 2') == outs[1]

    # The optimizer's accuracy is fixed: a weight tolerance or a certificate grid,
    # even at today's value, is an unknown flag.
    WEIGHT_TOLERANCE = {
        "optimal": ("optimal", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D"),
        "table": ("table", "mm-designs"),
        "pareto": ("pareto", "--model", "slr", "--a", "1", "--b", "5", "--n", "10"),
        "sweep": ("sweep", "--model", "slr", "--a", "1", "--b", "5", "--a-fixed", "2"),
        "check": ("check", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D"),
        "efficiency": ("efficiency", "--model", "slr", "--a", "1", "--b", "5"),
    }

    @pytest.mark.parametrize("argv", [
        ("table", "slr", "--b", "5", "--a-list", "1", "--seed", "3"),
        ("sweep", "--model", "slr", "--a", "1", "--b", "5", "--a-fixed", "2", "--seed", "3"),
        ("check", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D", "--seed", "3"),
        ("efficiency", "--model", "slr", "--a", "1", "--b", "5", "--seed", "3"),
        ("optimal", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D", "--grid", "201"),
        *((*argv, "--weight-tolerance", "1e-8") for argv in WEIGHT_TOLERANCE.values()),
        ("check", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D", "--check-grid", "1000"),
        ("table", "mm-designs", "--eps", "0.5", "--eps-list", "0", "--b", "5"),
        ("table", "slr", "--b", "5", "--a-list", "1", "--a", "3"),
    ], ids=["table-seed", "sweep-seed", "check-seed", "efficiency-seed", "optimal-grid",
            *(f"{name}-weight-tolerance" for name in WEIGHT_TOLERANCE), "check-check-grid",
            "table-eps", "table-a"])
    def test_knobs_nothing_reads_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in err

    def test_missing_b_is_usage_error(self, capsys):
        code, _, err = run(capsys, "optimal", "--model", "slr", "--a", "1",
                           "--criterion", "R")
        assert code == EXIT_USAGE
        assert "needs" in err

    @pytest.mark.parametrize("n_support", ["5", "1"])
    def test_n_support_out_of_range_is_usage_error(self, capsys, n_support):
        # --n-support is kept for compatibility, with its range check.
        code, out, err = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                             "--criterion", "D", "--n-support", n_support)
        assert code == EXIT_USAGE and out == ""
        assert f"n_support must lie in [2, 4], got {n_support}" in err

    def test_nonconvex_returns_best_found(self, capsys):
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "R2")
        assert code == EXIT_BEST_FOUND
        assert json.loads(out)["label"] == "best-found"

    def test_output_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "design.json"
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D", "-o", str(target))
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["converged"] is True
        assert not list(tmp_path.glob("*.tmp-*"))


class TestTable:
    def test_slr_table_golden_rows(self, capsys):
        code, out, _ = run(capsys, "table", "slr", "--b", "5",
                           "--a-list", "3,1,0.5,0.2,-0.2,-0.5,-1,-3,-5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 10
        row_a1 = lines[2].split(",")
        assert row_a1[0] == "1" and row_a1[1] == "0.356"

    def test_mm_designs_shape(self, capsys):
        code, out, _ = run(capsys, "table", "mm-designs", "--eps-list", "0.5,1",
                           "--b", "5")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 11  # header + 5 criteria x 2 eps

    def test_repeat_runs_byte_identical(self, capsys):
        args = ("table", "slr", "--b", "5", "--a-list", "3,1,-1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("flags,name", [((), "mm-efficiencies"),
                                            (("--strict",), "mm-efficiencies-strict")])
    def test_mm_efficiencies_golden(self, capsys, flags, name):
        code, out, _ = run(capsys, "table", "mm-efficiencies", *flags)
        assert code == EXIT_OK
        assert out == (Path(__file__).parent / "golden" / f"{name}.csv").read_text()

    def test_unknown_table(self, capsys):
        code, _, _ = run(capsys, "table", "slr", "--a-list")
        assert code == EXIT_USAGE


class TestCheck:
    @pytest.fixture
    def d_optimal_file(self, tmp_path):
        path = tmp_path / "d_opt.json"
        path.write_text(json.dumps({
            "points": [{"x": 1.0, "w": 0.5}, {"x": 5.0, "w": 0.5}],
            "space": {"lo": 1.0, "hi": 5.0},
        }))
        return str(path)

    def test_optimal_design_passes(self, capsys, d_optimal_file):
        code, out, _ = run(capsys, "check", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D", "--design", d_optimal_file)
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["certified"] is True
        assert summary["min_dd"] >= -1e-6 * summary["criterion_value"]

    def test_exact_optimum_reports_positive_zero(self, capsys, d_optimal_file, tmp_path):
        # The D slope at the support of an exact optimum is a signed zero;
        # reports print 0.0, not -0.0.
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D", "--seed", "3")
        assert code == EXIT_OK
        assert '"min_dd": 0.0' in out
        report = tmp_path / "report.csv"
        code, out, _ = run(capsys, "check", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D", "--design", d_optimal_file, "-o", str(report))
        assert code == EXIT_OK
        assert '"min_dd": 0.0' in out
        assert ",-0.0\n" not in report.read_text()

    def test_suboptimal_design_fails_with_argmin(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "points": [{"x": 1.0, "w": 0.9}, {"x": 5.0, "w": 0.1}],
            "space": {"lo": 1.0, "hi": 5.0},
        }))
        code, out, _ = run(capsys, "check", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D", "--design", str(bad))
        assert code == EXIT_ERROR
        summary = json.loads(out)
        assert summary["certified"] is False
        assert summary["min_dd"] < 0
        assert abs(summary["argmin_x"] - 5.0) < 1e-9  # underweighted end

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_verdict_is_free_of_scale(self, capsys, tmp_path, scale):
        # {-s: 0.55, s: 0.45} has eff_D 0.995 on [-s, s] at every s.  A threshold floored
        # at max(1, phi_D) once certified it at s = 1e6, where phi_D is 1e-6.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"points": [{"x": -scale, "w": 0.55}, {"x": scale, "w": 0.45}],
                                   "space": {"lo": -scale, "hi": scale}}))
        code, out, _ = run(capsys, "check", "--model", "slr", f"--a={-scale!r}", f"--b={scale!r}",
                           "--criterion", "D", "--design", str(bad))
        assert code == EXIT_ERROR
        assert json.loads(out)["certified"] is False

    def test_nonconvex_refused(self, capsys, d_optimal_file):
        code, _, err = run(capsys, "check", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "R2", "--design", d_optimal_file)
        assert code == EXIT_USAGE
        assert "not convex" in err

    @pytest.mark.parametrize("command", ["check", "optimal"])
    def test_unknown_criterion_reads_as_in_optimal(self, capsys, d_optimal_file, command):
        # One reader of --criterion: an unknown kind is unknown to both commands, not "not convex" to check.
        design = ("--design", d_optimal_file) if command == "check" else ()
        code, out, err = run(capsys, command, "--model", "slr", "--a", "1", "--b", "5", "--criterion", "foo", *design)
        assert code == EXIT_USAGE and out == ""
        assert err == ("optdesign: unknown criterion 'FOO'; choose from "
                       "('D', 'R', 'R2', 'C', 'SA', 'EM', 'CPB', 'COMPOUND')\n")

    def test_lower_case_kind_is_the_upper_case_one(self, capsys, d_optimal_file):
        argv = ("check", "--model", "slr", "--a", "1", "--b", "5", "--design", d_optimal_file, "--criterion")
        assert run(capsys, *argv, "d") == run(capsys, *argv, "D")

    def test_report_csv_written(self, capsys, d_optimal_file, tmp_path):
        report = tmp_path / "report.csv"
        code, _, _ = run(capsys, "check", "--model", "slr", "--a", "1", "--b", "5",
                         "--criterion", "D", "--design", d_optimal_file,
                         "-o", str(report))
        assert code == EXIT_OK
        assert report.read_text().splitlines()[0] == "x,dd"


class TestParetoAndSweep:
    def test_pareto_outputs_csv_and_meta(self, capsys):
        code, out, err = run(capsys, "pareto", "--model", "mm", "--b", "5",
                             "--eps", "0.5", "--n", "200", "--seed", "5")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "eff_D,eff_R,p,a,r2"
        meta = json.loads(err.strip().splitlines()[-1])
        assert meta["seed"] == 5 and meta["n"] == 200

    def test_pareto_reproducible(self, capsys):
        args = ("pareto", "--model", "mm", "--b", "5", "--eps", "0.5",
                "--n", "100", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_sweep_criteria(self, capsys):
        code, out, _ = run(capsys, "sweep", "--model", "slr", "--a", "0.5", "--b", "5",
                           "--a-fixed", "0.5", "--p-points", "19")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "p,phi_D,phi_R,phi_r2,corr"
        assert len(lines) == 20

    def test_sweep_fixed_point_outside_the_space_names_the_space(self, capsys):
        # --a-fixed is in units of K on MM: 0.2 K lies below the space [0.5 K, 5 K], both printed in x's units.
        code, out, err = run(capsys, "sweep", "--model", "mm", "--b", "5", "--eps", "0.5", "--a-fixed", "0.2")
        assert code == EXIT_USAGE and out == ""
        assert err == ("optdesign: fixed point 45.45400000000001 lies outside the model's space "
                       "[113.635, 1136.3500000000001]\n")

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sweep_without_weights_is_usage_error(self, capsys, n):
        # As pareto --n 0 is: a sweep of no weights would print only the header.
        code, out, err = run(capsys, "sweep", "--model", "slr", "--a", "0.5", "--b", "5",
                             "--a-fixed", "0.5", f"--p-points={n}")
        assert code == EXIT_USAGE and out == ""
        assert f"need p_points >= 1, got {n}" in err

    def test_sweep_compound(self, capsys):
        code, out, _ = run(capsys, "sweep", "--model", "slr", "--a", "1", "--b", "5",
                           "--sweep-kind", "compound", "--lam-list", "0,1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,value,eff_D,eff_R,corr"
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert abs(float(first[2]) - 1.0) < 1e-6   # eff_D at lambda 0
        assert abs(float(last[3]) - 1.0) < 1e-6    # eff_R at lambda 1


def searched_stars(model):
    return tuple(optimize_design(model, CriterionSpec(kind)).criterion_value
                 for kind in ("D", "R"))


def random_mm_params():
    rng = np.random.default_rng(22)
    for k in range(30):
        b = float(rng.uniform(0.5, 10.0))
        cut = b / (2.0 + b)  # the lower D-optimal point, in units of K
        eps = (0.0, float(rng.uniform(0.0, cut)), float(rng.uniform(cut, 0.9 * b)))[k % 3]
        yield MMParams(V=float(rng.uniform(1.0, 100.0)), K=float(rng.uniform(1.0, 500.0)), b=b, eps=eps)


class TestReferenceStars:
    def test_slr_closed_forms_equal_the_search(self):
        rng = np.random.default_rng(21)
        intervals = [(0.0, 3.0), (-2.5, 0.0), (-1.3, 4.2), (-2.0, 2.0)] + [
            (a, a + float(rng.uniform(0.5, 6.0))) for a in rng.uniform(-5.0, 4.0, 30).tolist()]
        for a, b in intervals:
            interval = SlrInterval(a, b)
            stars, _ = _reference_stars(interval.model(), interval)
            for got, want in zip(stars, searched_stars(interval.model())):
                assert math.isclose(got, want, rel_tol=1e-12), (a, b)

    def test_mm_closed_form_equals_the_search(self):
        for params in random_mm_params():
            model = mm_model(params)
            for got, want in zip(_reference_stars(model, params)[0], searched_stars(model)):
                assert math.isclose(got, want, rel_tol=1e-12), params

    def test_mm_runs_no_stage1(self, monkeypatch):
        # The R polish from mm_r_start passes its certificate on every model,
        # so its fallback, the grid search, never runs.
        def no_stage1(*args):
            raise AssertionError("stage 1 ran")
        monkeypatch.setattr(optimize_module, "_stage1", no_stage1)
        for params in random_mm_params():
            _reference_stars(mm_model(params), params)

    @pytest.mark.parametrize("name, searched", [("slr", []), ("mm", ["R"])])
    def test_searches_only_for_phi_r_on_mm(self, monkeypatch, name, searched):
        calls = []

        def counted(model, spec, start=None):
            calls.append(spec.kind)
            return optimize_design(model, spec, start)
        monkeypatch.setattr(optimize_module, "optimize_design", counted)
        if name == "slr":
            params = SlrInterval(-1.3, 4.2)
            _reference_stars(params.model(), params)
        else:
            params = MMParams(eps=0.5)
            _reference_stars(mm_model(params), params)
        assert calls == searched


WARM_KINDS = (("D",), ("R",), ("SA",), ("COMPOUND", "--lam", "0.5"))
PINNED_PARAMS = {"slr": SlrInterval(-1.3, 4.2), "mm": MMParams(V=43.73, K=227.27, b=5.0, eps=0.5)}


def pinned_flags(params):
    if isinstance(params, SlrInterval):
        return "--model", "slr", "--a", repr(params.a), "--b", repr(params.b)
    return "--model", "mm", *(f"--{name}={getattr(params, name)!r}" for name in ("V", "K", "b", "eps"))


def random_models(n, seed):
    """n seeded models, by turns: MM from eps = 0, MM above it, and SLR."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        if k % 3 == 2:
            a = float(rng.uniform(-5.0, 4.0))
            params = SlrInterval(a, a + float(rng.uniform(0.2, 6.0)))
            yield params.model(), params
        else:
            b = float(rng.uniform(0.5, 10.0))
            params = MMParams(V=float(rng.uniform(1.0, 100.0)), K=float(rng.uniform(1.0, 500.0)), b=b,
                              eps=0.0 if k % 3 == 0 else float(rng.uniform(0.0, 0.9 * b)))
            yield mm_model(params), params


def warm_cases(model, params, lams):
    """(spec, start) of D, R, SA and COMPOUND at each lam in lams, as `optimal` builds them."""
    return [_build_criterion(kind, argparse.Namespace(lam=lam), {}, model, params)
            for kind, lam in (("D", None), ("R", None), ("SA", None), *(("COMPOUND", lam) for lam in lams))]


def count_stage1(monkeypatch):
    calls, stage1 = [], optimize_module._stage1

    def counted(model, spec):
        calls.append(spec.kind)
        return stage1(model, spec)
    monkeypatch.setattr(optimize_module, "_stage1", counted)
    return calls


class TestWarmStart:
    def test_agrees_with_the_search(self):
        # A certified design is optimal whatever its start: polished from the start the call holds, each
        # result has the search's label and value.
        for model, params in random_models(102, 28):
            for spec, start in warm_cases(model, params, (0.25, 0.5, 0.9)):
                warm, searched = optimize_design(model, spec, start), optimize_design(model, spec)
                assert warm.label == searched.label, (params, spec)
                assert math.isclose(warm.criterion_value, searched.criterion_value, rel_tol=1e-12), (params, spec)

    @pytest.mark.parametrize("name", list(PINNED_PARAMS))
    @pytest.mark.parametrize("kind", WARM_KINDS, ids=lambda kind: kind[0])
    def test_pinned_models_run_no_stage1(self, capsys, monkeypatch, name, kind):
        calls = count_stage1(monkeypatch)
        code, out, _ = run(capsys, "optimal", *pinned_flags(PINNED_PARAMS[name]), "--criterion", *kind)
        assert code == EXIT_OK and json.loads(out)["label"] == "certified"
        assert calls == []

    @pytest.mark.parametrize("name", list(PINNED_PARAMS))
    @pytest.mark.parametrize("index", range(4), ids=[kind[0] for kind in WARM_KINDS])
    def test_failed_certificate_runs_the_search_once(self, monkeypatch, name, index):
        # The first certificate, the warm polish's, reads a failing min_dd: the search runs once and its
        # certified result comes back.
        params = PINNED_PARAMS[name]
        model = params.model() if isinstance(params, SlrInterval) else mm_model(params)
        spec, start = warm_cases(model, params, (0.5,))[index]
        reports = []

        def first_fails(model, design, spec):
            reports.append(derivative_report(model, design, spec))
            return reports[-1] if len(reports) > 1 else replace(reports[-1], min_dd=-math.inf)
        monkeypatch.setattr(optimize_module, "derivative_report", first_fails)
        calls = count_stage1(monkeypatch)
        res = optimize_design(model, spec, start)
        assert calls == [spec.kind] and len(reports) == 2
        monkeypatch.undo()
        assert res.label == "certified" and res == optimize_design(model, spec)


class TestEfficiencyCmd:
    def test_report(self, capsys, tmp_path):
        path = tmp_path / "xi.json"
        path.write_text(json.dumps({
            "points": [{"x": 1.0, "w": 0.5}, {"x": 5.0, "w": 0.5}],
            "space": {"lo": 1.0, "hi": 5.0},
        }))
        code, out, _ = run(capsys, "efficiency", "--model", "slr", "--a", "1", "--b", "5",
                           "--designs", str(path))
        assert code == EXIT_OK
        payload = json.loads(out)
        entry = payload["designs"][0]
        assert abs(entry["eff_D"] - 1.0) < 1e-6
        assert abs(entry["eff_R"] - 0.934) < 1e-3
        assert abs(entry["corr"] - (-0.832)) < 1e-3

    def test_singular_design_reported_not_crashed(self, capsys, tmp_path):
        path = tmp_path / "one_point.json"
        path.write_text(json.dumps({
            "points": [{"x": 2.0, "w": 1.0}],
            "space": {"lo": 1.0, "hi": 5.0},
        }))
        code, out, _ = run(capsys, "efficiency", "--model", "slr", "--a", "1", "--b", "5",
                           "--designs", str(path))
        assert code == EXIT_OK
        entry = json.loads(out)["designs"][0]
        assert entry["singular"] is True and entry["eff_D"] is None


class TestUnreadableDesignFile:
    # check and efficiency read design files through one reader: a file that
    # cannot be opened or parsed, or that has a point outside the model's
    # space, is a usage error naming the file.
    COMMANDS = {
        "check": ("check", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D", "--design"),
        "efficiency": ("efficiency", "--model", "slr", "--a", "1", "--b", "5", "--designs"),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("content", [None, b'{"points": [{"x": 1.0,', b"\xff\xfe{"],
                             ids=["missing", "malformed", "binary"])
    def test_usage_error(self, capsys, tmp_path, command, content):
        path = tmp_path / "design.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, *self.COMMANDS[command], str(path))
        assert code == EXIT_USAGE and out == ""
        assert f"cannot read design {path}" in err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_non_numeric_point_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"points": [{"x": "abc", "w": 1.0}], "space": {"lo": 1.0, "hi": 5.0}}))
        code, out, err = run(capsys, *self.COMMANDS[command], str(path))
        assert code == EXIT_USAGE and out == ""
        assert f"design {path}" in err


    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("payload, key", [
        ({"points": [{"x": 1.0}], "space": {"lo": -1.0, "hi": 4.0}}, "w"),
        ({"points": [{"w": 1.0}], "space": {"lo": -1.0, "hi": 4.0}}, "x"),
        ({"points": [{"x": 1.0, "w": 1.0}]}, "space"),
        ({"points": [{"x": 1.0, "w": 1.0}], "space": {"hi": 4.0}}, "lo"),
        ({"space": {"lo": -1.0, "hi": 4.0}}, "points"),
    ], ids=["w", "x", "space", "lo", "points"])
    def test_missing_key_is_named(self, capsys, tmp_path, command, payload, key):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, *self.COMMANDS[command], str(path))
        assert code == EXIT_USAGE and out == ""
        assert err == f"optdesign: design {path}: malformed design JSON: missing key '{key}'\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_weights_beyond_the_float_range_read_as_their_ratios(self, capsys, tmp_path, command):
        results = []
        for w in (1e308, 1.0):
            path = tmp_path / f"design-{w}.json"
            path.write_text(json.dumps({"points": [{"x": 1.0, "w": w}, {"x": 5.0, "w": w}],
                                        "space": {"lo": 1.0, "hi": 5.0}}))
            code, out, err = run(capsys, *self.COMMANDS[command], str(path))
            results.append((code, out.replace(str(path), "F"), err))
        assert results[0] == results[1] and results[0][0] == 0 and results[0][2] == ""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_point_outside_the_model_space_is_usage_error(self, capsys, tmp_path, command):
        # The file's own space [0, 20] holds its points; the model's [1, 5] does not.
        path = tmp_path / "design.json"
        path.write_text(json.dumps({"points": [{"x": 0.0, "w": 0.5}, {"x": 20.0, "w": 0.5}],
                                    "space": {"lo": 0.0, "hi": 20.0}}))
        code, out, err = run(capsys, *self.COMMANDS[command], str(path))
        assert code == EXIT_USAGE and out == ""
        assert f"design {path}: point x=0.0 lies outside the model's space [1.0, 5.0]" in err


class TestUsageErrors:
    SLR = ("--model", "slr", "--a", "1", "--b", "5")
    MM = ("--model", "mm", "--b", "5", "--eps", "0.5")

    # Each case: the argv, a config file's content or None, OPTDESIGN_SEED or None, and the message.
    @pytest.mark.parametrize("argv,config,env,message", [
        (("table", "slr", "--b", "5", "--a-list", "1"), [1, 2], None, "config file must hold a JSON object"),
        (("optimal", *SLR, "--criterion", "D"), None, "seven", "OPTDESIGN_SEED must be an integer, got 'seven'"),
        (("optimal", "--criterion", "D"), None, None, "--model is required (slr or mm)"),
        (("optimal", "--model", "mm", "--criterion", "D"), None, None,
         "model mm needs --b (upper end of the space, in K units)"),
        (("optimal", "--criterion", "D"), {"model": "quadratic"}, None,
         "unknown model 'quadratic'; choose slr or mm"),
        (("optimal", *SLR, "--criterion", "T"), None, None, "unknown criterion 'T'; choose from ("),
        (("optimal", *SLR, "--criterion", "C"), None, None, "criterion C needs --c 'c1,c2'"),
        (("optimal", *SLR, "--criterion", "C", "--c", "1,2,3"), None, None, "--c must hold exactly two numbers"),
        (("optimal", *SLR, "--criterion", "COMPOUND"), None, None, "criterion COMPOUND needs --lam in [0, 1]"),
        (("table", "slr", "--a-list", "1"), None, None, "table slr needs --b"),
        (("table", "slr", "--b", "5"), None, None, "table slr needs --a-list 'a1,a2,...'"),
        (("table", "mm-tables"), None, None, "argument table: invalid choice: 'mm-tables'"),
        (("sweep", *SLR), None, None, "sweep needs --a-fixed (lower support point; K units for mm)"),
        (("check", *SLR, "--design", "d.json"), None, None, "--criterion is required"),
        (("check", *SLR, "--criterion", "D"), None, None, "check needs --design FILE (design JSON)"),
        (("efficiency", *SLR), None, None, "efficiency needs --designs file1[,file2,...]"),
        (("optimal", *MM, "--V", "inf", "--criterion", "D"), None, None, "V must be finite, got inf"),
        (("optimal", *MM, "--K", "inf", "--criterion", "D"), None, None, "K must be finite, got inf"),
        (("optimal", *SLR, "--criterion", "C", "--c", "nan,1"), None, None, "c must be finite, got (nan, 1.0)"),
        (("optimal", *SLR, "--criterion", "C", "--c", "inf,1"), None, None, "c must be finite, got (inf, 1.0)"),
    ], ids=["config-not-object", "seed-env", "no-model", "mm-no-b", "unknown-model", "unknown-criterion",
            "c-no-c", "c-three", "compound-no-lam", "table-slr-no-b", "table-slr-no-a-list", "unknown-table",
            "sweep-no-a-fixed", "check-no-criterion", "check-no-design", "efficiency-no-designs",
            "mm-v-inf", "mm-k-inf", "c-nan", "c-inf"])
    def test_exits_64_with_its_message(self, capsys, monkeypatch, tmp_path, argv, config, env, message):
        monkeypatch.delenv("OPTDESIGN_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("OPTDESIGN_SEED", env)
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            argv = (*argv, "--config", str(tmp_path / "run.json"))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("optdesign: ") and message in err


@pytest.mark.parametrize("argv", [
    ("optimal", "--model", "slr", "--a", "1e-170", "--b", "3e-170", "--criterion", "C", "--c", "0,1"),
    ("optimal", "--model", "slr", "--a", "1e-170", "--b", "3e-170", "--criterion", "SA"),
    ("optimal", "--model", "mm", "--b", "5", "--eps", "0.5", "--V", "1e-160", "--criterion", "SA"),
    ("table", "mm-designs", "--b", "5", "--V", "1e-160", "--eps-list", "0.5"),
])
def test_c_optimal_value_beyond_float_range_is_an_error(capsys, argv):
    # 1/gamma^2 overflows: one line naming the overflow, not a traceback.
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("optdesign: ") and "overflows" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [("--criterion", "SA"), ("--criterion", "C", "--c", "0,1")])
def test_c_optimal_value_below_float_range_is_an_error(capsys, argv):
    # 1/gamma^2 underflows to 0 for c = (0, 1) at V = 1e200: one line naming the underflow, not a usage
    # error for a valid input.
    code, out, err = run(capsys, "optimal", "--model", "mm", "--b", "5", "--eps", "0.5", "--V", "1e200", *argv)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("optdesign: ") and "underflows" in err and len(err.splitlines()) == 1


BIG_SLR = ("--model", "slr", "--a", "-1e200", "--b", "1e200")
FAR_SLR = ("--model", "slr", "--a", "-1e154", "--b", "1e154")
HIGH_SLR = ("--model", "slr", "--a", "1e80", "--b", "2e80")
HUGE_MM = ("--model", "mm", "--b", "5", "--eps", "0.5", "--V", "1e200")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ("pareto", *BIG_SLR, "--n", "50"),
    ("check", *BIG_SLR, "--criterion", "D", "--design", "BIG"),
    ("efficiency", *BIG_SLR, "--designs", "BIG"),
    ("sweep", *BIG_SLR, "--a-fixed", "0"),
    ("optimal", *BIG_SLR, "--criterion", "D"),
    ("optimal", *BIG_SLR, "--criterion", "EM"),
    ("pareto", *HUGE_MM, "--n", "50"),
    *(("optimal", *FAR_SLR, "--criterion", *kind) for kind in WARM_KINDS),
    *(("optimal", *HUGE_MM, "--criterion", *kind) for kind in WARM_KINDS),
])
def test_information_matrix_beyond_float_range_is_an_error(capsys, tmp_path, argv):
    # x^2 overflows on SLR [-1e200, 1e200], as V^2 does on MM, and on SLR [-1e154, 1e154] a wide pair's
    # squared cross product (x_b - x_a)^2 does: one line naming the overflow, with no numpy warning, not a
    # usage error for a valid input, nor "no admissible design".  The warm starts of D, R, SA and COMPOUND run
    # the same check as the search; on MM at V = 1e200, SA's reference for c = (0, 1) underflows first.
    design = tmp_path / "big.json"
    design.write_text(json.dumps({"points": [{"x": -1e200, "w": 0.5}, {"x": 1e200, "w": 0.5}],
                                  "space": {"lo": -1e200, "hi": 1e200}}))
    code, out, err = run(capsys, *(str(design) if a == "BIG" else a for a in argv))
    flows = "underflows" if argv == ("optimal", *HUGE_MM, "--criterion", "SA") else "overflows"
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("optdesign: ") and f"{flows} a float" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    (("optimal", *HUGE_MM, "--criterion", "COMPOUND", "--lam", "2"), "compound weight must lie in [0, 1], got 2.0"),
    (("optimal", *HUGE_MM, "--criterion", "SA", "--n-support", "9"), "n_support must lie in [2, 4], got 9"),
    (("check", *HUGE_MM, "--criterion", "COMPOUND", "--lam", "2", "--design", "MM"),
     "compound weight must lie in [0, 1], got 2.0"),
], ids=["optimal-lam", "optimal-n-support", "check-lam"])
def test_usage_error_comes_before_the_references(capsys, tmp_path, argv, message):
    # On MM at V = 1e200 the D design's information matrix overflows and SA's reference for c = (0, 1)
    # underflows: a bad lam or n_support is still the usage error, found before any reference is computed.
    design = tmp_path / "mm.json"
    design.write_text(json.dumps({"points": [{"x": 200.0, "w": 0.5}, {"x": 1136.35, "w": 0.5}],
                                  "space": {"lo": 113.635, "hi": 1136.35}}))
    code, out, err = run(capsys, *(str(design) if a == "MM" else a for a in argv))
    assert code == EXIT_USAGE and out == ""
    assert err == f"optdesign: {message}\n"


@pytest.mark.parametrize("eps", [0.0, 0.05, 0.5, 1.0])
def test_table_rows_are_the_optimal_designs(capsys, eps):
    # `table mm-designs` builds every row's criterion and start by the rule `optimal` uses and polishes it
    # through the same call: each row is `optimal`'s design bit for bit.  From eps = 0 the EM and R2 rows
    # have a design only without compat's degenerate limit.
    rows = {row.criterion: row.design for row in mm_tables(MMParams(b=5.0), [eps], compat=False).designs}
    for kind in MM_CRITERIA:
        code, out, _ = run(capsys, "optimal", "--model", "mm", "--b", "5", f"--eps={eps!r}", "--criterion", kind)
        assert code == (EXIT_OK if kind in ("D", "SA", "R") else EXIT_BEST_FOUND)
        assert [(p["x"], p["w"]) for p in json.loads(out)["design"]["points"]] == list(rows[kind].points)


def exact_condition_number(points):
    """lambda_max / lambda_min = (tr + disc)^2 / (4 det) of SLR's M on the design's points, in 60 digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        x, w = ([decimal.Decimal(p[key]) for p in points] for key in ("x", "w"))
        m11, m12, m22 = sum(w), sum(a * b for a, b in zip(w, x)), sum(a * b * b for a, b in zip(w, x))
        disc = ((m11 - m22) ** 2 + 4 * m12 ** 2).sqrt()
        return float((m11 + m22 + disc) ** 2 / (4 * (m11 * m22 - m12 ** 2)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space, kind", [(HIGH_SLR, "R2"), (HIGH_SLR, "CPB"), (HIGH_SLR, "EM"), (FAR_SLR, "EM")],
                         ids=["R2", "CPB", "EM", "EM-far"])
def test_disk_optimum_beyond_the_det_scale_prints_no_warning(capsys, space, kind):
    # |f|^4, the chord's det scale, overflows on SLR [1e80, 2e80] and [-1e154, 1e154] while f f^T does not:
    # such a point is no det scale to lose, and the chord's best-found design comes back without a numpy
    # warning.  EM is M's condition number to rounding: lambda_max (lambda_max / det) stays in range where
    # (tr + disc)^2 overflowed, and on [-1e154, 1e154] the chord polish bisects where its secant step overflows.
    code, out, err = run(capsys, "optimal", *space, "--criterion", kind)
    payload = json.loads(out)
    assert code == EXIT_BEST_FOUND and err == "" and payload["label"] == "best-found"
    if kind == "EM":
        exact = exact_condition_number(payload["design"]["points"])
        assert abs(payload["criterion_value"] - exact) <= 1e-12 * exact


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, message", [("1e200,0", "overflows"), ("1e-200,0", "underflows"),
                                        ("1e308,1e308", "overflows"), ("1e-320,0", "underflows")])
def test_c_optimal_is_free_of_the_magnitude_of_c(capsys, c, message):
    # c^T M^- c scales with |c|^2: beyond the float range it is the named error, not "c is inestimable"
    # after numpy warnings from |c|^2 or from c / |c|^2.
    code, out, err = run(capsys, "optimal", "--model", "slr", "--a", "-1", "--b", "2", "--criterion", "C",
                         "--c", c)
    assert code == EXIT_ERROR and out == ""
    assert err.startswith("optdesign: the c-optimal value 1/gamma^2 " + message) and len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_c_optimal_forms_no_information_matrix(capsys):
    # Elfving's theorem needs only u^T f, which stays finite where x^2 does not.
    code, out, err = run(capsys, "optimal", *BIG_SLR, "--criterion", "C", "--c", "1,0")
    assert code == EXIT_OK and err == "" and json.loads(out)["label"] == "certified"


def test_slr_compound_far_from_scale_one_is_the_unit_scale_design(capsys):
    # The D and R references come from SLR's closed forms, which once overflowed at 1e80.
    weights, labels = [], []
    for a, b in (("1", "2"), ("1e80", "2e80")):
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", a, "--b", b, "--criterion", "COMPOUND",
                           "--lam", "0.5")
        payload = json.loads(out)
        weights.append([p["w"] for p in payload["design"]["points"]])
        labels.append((code, payload["label"]))
    assert labels == [(EXIT_OK, "certified")] * 2 and weights[0] == weights[1]


class TestOptimalThenCheckContract:
    MODELS = {
        "slr": ["--model", "slr", "--a", "1", "--b", "5"],
        "mm": ["--model", "mm", "--b", "5", "--eps", "0.5"],
    }

    @pytest.mark.parametrize("model_key", ["slr", "mm"])
    @pytest.mark.parametrize("criterion,extra", [
        ("D", []), ("R", []), ("SA", []), ("C", ["--c", "0,1"]),
        ("COMPOUND", ["--lam", "0.5"]),
        ("C", ["--c", "1,-0.0829366358791511"]),  # on MM, the one point {300: 1}: a singular M
    ])
    def test_check_certifies_optimal_output(self, capsys, tmp_path, model_key,
                                            criterion, extra):
        model_args = self.MODELS[model_key]
        out_file = tmp_path / "result.json"
        code, _, _ = run(capsys, "optimal", *model_args, "--criterion", criterion,
                         *extra, "-o", str(out_file))
        assert code == EXIT_OK
        design_file = tmp_path / "design.json"
        design_file.write_text(json.dumps(json.loads(out_file.read_text())["design"]))
        code, out, _ = run(capsys, "check", *model_args, "--criterion", criterion,
                           *extra, "--design", str(design_file))
        assert code == EXIT_OK
        assert json.loads(out)["certified"] is True


class TestSharedParser:
    """`main` builds its parser once per process; no call sees another's arguments."""

    OPTIMAL_R = ("optimal", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "R",
                 "--seed", "7")

    @pytest.fixture
    def parser_inits(self, monkeypatch):
        count = [0]
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return count

    def test_second_call_builds_no_parser(self, capsys, parser_inits):
        assert run(capsys, "table", "slr", "--b", "5", "--a-list", "1")[0] == EXIT_OK
        parser_inits[0] = 0
        code, _, _ = run(capsys, "sweep", "--model", "slr", "--a", "1", "--b", "5",
                         "--a-fixed", "2", "--p-points", "3")
        assert code == EXIT_OK
        assert parser_inits[0] == 0

    def test_build_parser_builds_a_new_parser_each_call(self, parser_inits):
        # The benchmark's setup probe times build_parser, so it must keep constructing.
        first = build_parser()
        assert parser_inits[0] == 7  # the top parser and 6 subcommands
        assert build_parser() is not first
        assert parser_inits[0] == 14

    def test_required_option_not_carried_over(self, capsys):
        assert run(capsys, *self.OPTIMAL_R)[0] == EXIT_OK
        code, _, err = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5")
        assert code == EXIT_USAGE
        assert "--criterion is required" in err

    def test_usage_error_then_valid_call(self, capsys):
        code, _, err = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D", "--grid", "201")
        assert code == EXIT_USAGE and "unrecognized arguments" in err
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--a", "1", "--b", "5",
                           "--criterion", "D")
        assert code == EXIT_OK
        assert json.loads(out)["label"] == "certified"

    def test_seed_not_carried_over(self, capsys, monkeypatch):
        monkeypatch.delenv("OPTDESIGN_SEED", raising=False)
        args = ("pareto", "--model", "slr", "--a", "1", "--b", "5", "--n", "50")
        _, _, err = run(capsys, *args, "--seed", "5")
        assert json.loads(err.strip().splitlines()[-1])["seed"] == 5
        code, _, err = run(capsys, *args)
        assert code == EXIT_OK
        assert json.loads(err.strip().splitlines()[-1])["seed"] == 0

    def test_repeat_call_matches_a_fresh_process(self, capsys):
        code, first, _ = run(capsys, *self.OPTIMAL_R)
        assert code == EXIT_OK
        assert run(capsys, *self.OPTIMAL_R)[1] == first
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k != "OPTDESIGN_SEED"}
        proc = subprocess.run([sys.executable, "-m", "optdesign", *self.OPTIMAL_R],
                              capture_output=True, text=True, timeout=120,
                              env={**env, "PYTHONPATH": str(src)})
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == first


class TestConfig:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "slr", "a": 1.0, "b": 99.0, "criterion": "D"}))
        code, out, _ = run(capsys, "optimal", "--config", str(cfg), "--b", "5")
        assert code == EXIT_OK
        pts = json.loads(out)["design"]["points"]
        assert abs(pts[1]["x"] - 5.0) < 1e-9  # flag overrides the file's b=99

    def test_config_file_lists(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"b": 5.0, "a_list": [-1, 0, 1.5]}))
        code, out, _ = run(capsys, "table", "slr", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run(capsys, "table", "slr", "--b", "5", "--a-list", "-1,0,1.5")[1]
        cfg.write_text(json.dumps({"b": 5.0, "a_list": [-1, "x"]}))
        assert run(capsys, "table", "slr", "--config", str(cfg))[0] == EXIT_USAGE

    @pytest.mark.parametrize("content", [None, b'{"b": 5', b"\xff{"],
                             ids=["missing", "malformed", "not-utf8"])
    def test_unreadable_config_file_is_usage_error(self, capsys, tmp_path, content):
        cfg = tmp_path / "bad.json"
        if content is not None:
            cfg.write_bytes(content)
        code, out, err = run(capsys, "table", "slr", "--b", "5", "--a-list", "1", "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert f"cannot read config file {cfg}" in err

    SLR_D = ("optimal", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D")

    # A JSON boolean is no number, and an integer setting takes no fraction,
    # as --n-support 2.7 on the command line is a usage error.
    @pytest.mark.parametrize("key,value,argv", [
        ("b", "abc", ("optimal", "--model", "slr", "--a", "1", "--criterion", "D")),
        ("b", "abc", ("table", "slr", "--a-list", "1")),
        ("n", "abc", ("pareto", "--model", "slr", "--a", "1", "--b", "5")),
        ("n_support", 2.7, SLR_D),
        ("seed", 2.7, SLR_D),
        ("seed", True, SLR_D),
        ("a", True, ("optimal", "--model", "slr", "--b", "5", "--criterion", "D")),
    ], ids=["optimal-b", "table-b", "pareto-n", "n_support-fraction", "seed-fraction", "seed-bool", "a-bool"])
    def test_non_numeric_config_value_is_usage_error(self, capsys, tmp_path, key, value, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert f"config key {key!r}" in err

    def test_numeric_strings_and_whole_floats_are_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_support": "3", "seed": 7.0, "a": "1.5"}))
        code, out, _ = run(capsys, "optimal", "--model", "slr", "--b", "5", "--criterion", "D",
                           "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run(capsys, "optimal", "--model", "slr", "--a", "1.5", "--b", "5", "--criterion", "D",
                          "--n-support", "3", "--seed", "7")[1]

    @pytest.mark.parametrize("key,value,argv", [
        ("strict", "false", ("table", "mm-efficiencies", "--eps-list", "0")),
        ("strict", 1, ("table", "mm-efficiencies", "--eps-list", "0")),
        ("strict", None, ("table", "mm-efficiencies", "--eps-list", "0")),
        ("eps_absolute", "false", ("optimal", "--model", "mm", "--b", "5", "--eps", "0.5", "--criterion", "D")),
    ], ids=["strict-string", "strict-number", "strict-null", "eps_absolute-string"])
    def test_non_boolean_switch_is_usage_error(self, capsys, tmp_path, key, value, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert f"config key {key!r} must be true or false" in err

    @pytest.mark.parametrize("value,flags", [(True, ("--strict",)), (False, ())])
    def test_boolean_switch_reads_as_its_flag(self, capsys, tmp_path, value, flags):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"strict": value}))
        argv = ("table", "mm-efficiencies", "--eps-list", "0")
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK and out == run(capsys, *argv, *flags)[1]

    CHECK_D = ("check", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "D")
    EFFICIENCY = ("efficiency", "--model", "slr", "--a", "1", "--b", "5")

    # A design path in the config must be a file name: open() takes an integer
    # for a file descriptor (0: stdin) and raises TypeError on a list or a float.
    @pytest.mark.parametrize("key,value,argv", [
        ("design", 1.5, CHECK_D),
        ("design", ["d.json"], CHECK_D),
        ("designs", [0], EFFICIENCY),
        ("designs", 1.5, EFFICIENCY),
        ("designs", [["d.json"]], EFFICIENCY),
    ], ids=["design-float", "design-list", "designs-descriptor", "designs-float", "designs-nested-list"])
    def test_non_string_design_path_is_usage_error(self, capsys, tmp_path, key, value, argv):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_USAGE and out == ""
        assert f"config key {key!r}" in err

    def test_design_path_is_not_a_file_descriptor(self, capsys, tmp_path):
        # The caller's open file is neither read nor closed.
        cfg = tmp_path / "run.json"
        with open(tmp_path / "held.json", "w") as held:
            cfg.write_text(json.dumps({"design": held.fileno()}))
            code, out, err = run(capsys, *self.CHECK_D, "--config", str(cfg))
            assert code == EXIT_USAGE and out == ""
            assert "config key 'design' must be a file name" in err
            os.fstat(held.fileno())

    # Each setting that holds a list takes one or more numbers, and a JSON
    # boolean is no number in it, as in a scalar setting.
    @pytest.mark.parametrize("argv,config,named", [
        (("table", "mm-designs"), {"eps_list": [True]}, "[True]"),
        (("optimal", "--model", "slr", "--a", "1", "--b", "5", "--criterion", "C"), {"c": [True, 1]}, "[True, 1]"),
        (("sweep", "--model", "slr", "--a", "1", "--b", "5", "--sweep-kind", "compound", "--lam-list=,"), None,
         "','"),
        (("table", "slr", "--b", "5", "--a-list=,"), None, "','"),
        (("table", "mm-designs", "--eps-list=,"), None, "','"),
        (("table", "slr", "--b", "5"), {"a_list": []}, "[]"),
        (("efficiency", "--model", "slr", "--a", "1", "--b", "5"), {"designs": []}, "[]"),
    ], ids=["eps_list-bool", "c-bool", "lam-list-empty", "a-list-empty", "eps-list-empty", "a_list-empty",
            "designs-empty"])
    def test_list_setting_without_numbers_is_usage_error(self, capsys, tmp_path, argv, config, named):
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = (*argv, "--config", str(cfg))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"got {named}" in err

    # numpy's generator takes no negative seed; the message names the seed's source.
    PARETO = ("pareto", "--model", "slr", "--a", "1", "--b", "5", "--n", "10")

    @pytest.mark.parametrize("argv,config,env,source", [
        ((*PARETO, "--seed=-1"), None, None, "--seed"),
        (PARETO, {"seed": -1}, None, "config key 'seed'"),
        (PARETO, None, "-1", "OPTDESIGN_SEED"),
        ((*SLR_D, "--seed=-1"), None, None, "--seed"),
    ], ids=["pareto-flag", "pareto-config", "pareto-env", "optimal-flag"])
    def test_negative_seed_is_usage_error(self, capsys, monkeypatch, tmp_path, argv, config, env, source):
        if config is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(config))
            argv = (*argv, "--config", str(cfg))
        if env is not None:
            monkeypatch.setenv("OPTDESIGN_SEED", env)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"optdesign: {source} must be a non-negative integer, got -1\n"

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTDESIGN_SEED", "123")
        _, _, err = run(capsys, "pareto", "--model", "mm", "--b", "5", "--eps", "0.5",
                        "--n", "50")
        assert json.loads(err.strip().splitlines()[-1])["seed"] == 123
