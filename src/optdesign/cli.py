"""Command-line frontend.

Subcommands: optimal, table, pareto, sweep, check, efficiency.

Exit codes distinguish certificate strength so scripts can rely on them:
  0   success; for `optimal`/`check`, an equivalence certificate holds
  1   runtime failure (including a failed `check`)
  2   best-found result without a certificate (non-convex criteria)
  64  usage or configuration error

Options may come from flags or from a JSON config file (--config); flags
override the file.  The seed (--seed, default OPTDESIGN_SEED) feeds only the
sampler of `pareto`; `optimal` accepts it and echoes it in its config, and
no other subcommand accepts it.  The CLI reads a criterion's flags; its rule
for each kind's criterion, references and start is ``optimize._criterion_start``,
which ``table mm-*`` shares.  The optimizer is deterministic, and no option sets
its accuracy: its weight tolerances and the certificate's grid are constants
(``optimize.WEIGHT_TOL``, ``criteria.CERTIFICATE_GRID``).  File outputs are
written atomically (write to a temp file, then rename); with a fixed seed every
run is byte-reproducible.

`main(argv)` may be called repeatedly in one process.  The argument parser is
built on the first call and reused: parsing returns a fresh namespace, every
option defaults to None, errors raise instead of being stored, and the seed
and config file are read at call time, so no call sees another's arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict
from typing import Sequence

import numpy as np

from .criteria import (
    ALL_KINDS,
    CERTIFICATE_GRID,
    CONVEX_KINDS,
    CriterionSpec,
    correlation,
    criterion_value,
    derivative_report,
    phi_d,
    phi_r,
    phi_r2,
)
from .designs import Design, DesignSpace, Model, design_from_json, design_to_json, fim, slr_model
from .errors import OptDesignError, ValidationError
from .mm import MMParams, mm_model
from .optimize import (
    OptimizeResult,
    _criterion_start,
    _reference_stars,
    mm_designs_csv,
    mm_efficiencies_csv,
    mm_tables,
    optimize_design,
)
from .pareto import (
    compound_sweep,
    compound_sweep_csv,
    criterion_sweep_csv,
    front_csv,
    sampled_front,
)
from .slr import SlrInterval, table_slr, table_slr_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BEST_FOUND = 2
EXIT_USAGE = 64

SEED_ENV_VAR = "OPTDESIGN_SEED"


# A negative number, or a comma-separated list of numbers that starts with one; as float() reads them.
_NUMBER = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(,-?{_NUMBER})*$", re.IGNORECASE)


class UsageError(Exception):
    """Bad flags or config; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses scientific notation and lists, so
        # "--a -1e-3" would read "-1e-3" as an option.  No option name looks
        # like a number.
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(output, text)


def _read_json(path: str, what: str):
    """The JSON value in a file; a file that cannot be read or parsed is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = _read_json(path, "config file")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    return cfg


def _read_design(path: str, space: DesignSpace) -> Design:
    """The design in a design JSON file; a file that is not one, or a point outside ``space``, is a usage error."""
    try:
        design = design_from_json(_read_json(path, "design"))[0]
    except ValidationError as exc:
        raise UsageError(f"design {path}: {exc}") from exc
    for x, _ in design.points:
        if not space.contains(x):
            raise UsageError(f"design {path}: point x={x} lies outside the model's space [{space.lo}, {space.hi}]")
    return design


def _setting(args: argparse.Namespace, cfg: dict, name: str, default=None, convert=None):
    """Flag value if given, else config-file value (through ``convert``, as argparse converts the flag:
    ``bool`` takes only JSON true or false, no number a JSON boolean, ``int`` no fraction), else default."""
    val = getattr(args, name.replace("-", "_"), None)
    if val is not None:
        return val
    if convert is bool and not isinstance(cfg.get(name, False), bool):
        raise UsageError(f"config key {name!r} must be true or false, got {cfg[name]!r}")
    if name not in cfg or convert in (None, bool):
        return cfg.get(name, default)
    val, kind = cfg[name], "an integer" if convert is int else "a number"
    if isinstance(val, bool) or convert is int and isinstance(val, float) and not val.is_integer():
        raise UsageError(f"config key {name!r} must be {kind}, got {val!r}")
    try:
        return convert(val)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {name!r} must be {kind}, got {val!r}") from exc


def _mm_params(args: argparse.Namespace, cfg: dict, names: Sequence[str], **fixed) -> MMParams:
    """MMParams from the settings ``names``; an unset one keeps MMParams' default."""
    values = {name: _setting(args, cfg, name, convert=float) for name in names}
    return MMParams(**{k: v for k, v in values.items() if v is not None}, **fixed)


def _resolve_seed(args: argparse.Namespace, cfg: dict) -> int:
    """The seed from --seed, else config key 'seed', else OPTDESIGN_SEED, else 0; numpy's
    generator takes no negative seed, so one is a usage error that names its source."""
    val = _setting(args, cfg, "seed", convert=int)
    source = "--seed" if args.seed is not None else "config key 'seed'"
    if val is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return 0
        try:
            val, source = int(env), SEED_ENV_VAR
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if val < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {val}")
    return val


def _parse_floats(value) -> list[float]:
    """One or more numbers from a comma-separated flag value or from a config-file list,
    in which, as in a scalar setting, a JSON boolean is no number."""
    tokens = value if isinstance(value, list) else [
        tok for tok in str(value).split(",") if tok.strip() != ""]
    if tokens and not any(isinstance(tok, bool) for tok in tokens):
        try:
            return [float(tok) for tok in tokens]
        except (TypeError, ValueError):
            pass
    raise UsageError(f"expected a comma-separated list of numbers, got {value!r}")


def _build_model(args: argparse.Namespace, cfg: dict) -> tuple[Model, dict, SlrInterval | MMParams]:
    """The model, its JSON description, and the parameters its closed forms take."""
    name = _setting(args, cfg, "model")
    if name is None:
        raise UsageError("--model is required (slr or mm)")
    name = str(name).lower()
    if name == "slr":
        a, b = _setting(args, cfg, "a", convert=float), _setting(args, cfg, "b", convert=float)
        if a is None or b is None:
            raise UsageError("model slr needs --a and --b")
        return slr_model(DesignSpace(a, b)), {"model": "slr", "a": a, "b": b}, SlrInterval(a, b)
    if name in ("mm", "michaelis_menten", "michaelis-menten"):
        if _setting(args, cfg, "b") is None:
            raise UsageError("model mm needs --b (upper end of the space, in K units)")
        params = _mm_params(args, cfg, ("V", "K", "b", "eps"),
                            eps_in_k_units=not _setting(args, cfg, "eps_absolute", False, convert=bool))
        return mm_model(params), {"model": "michaelis_menten", **asdict(params)}, params
    raise UsageError(f"unknown model {name!r}; choose slr or mm")


def _result_json(result: OptimizeResult, model: Model, config: dict) -> str:
    payload = {
        "design": design_to_json(result.design, model.space),
        "criterion_value": result.criterion_value,
        "converged": result.converged,
        "iterations": result.iterations,
        "label": result.label,
        "min_dd": None if result.derivative_report is None else result.derivative_report.min_dd,
        "argmin_x": None if result.derivative_report is None else result.derivative_report.argmin_x,
        "config": config,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _x_unit(params: SlrInterval | MMParams) -> float:
    """The unit of x in the CLI's --a-fixed and pareto's a column: K on Michaelis-Menten, 1 on SLR."""
    return params.K if isinstance(params, MMParams) else 1.0


def _criterion_kind(args: argparse.Namespace, cfg: dict) -> str:
    """The --criterion setting, required, upper-cased and one of ``ALL_KINDS``."""
    if (kind := _setting(args, cfg, "criterion")) is None:
        raise UsageError("--criterion is required")
    if (kind := str(kind).upper()) not in ALL_KINDS:
        raise UsageError(f"unknown criterion {kind!r}; choose from {ALL_KINDS}")
    return kind


def _build_criterion(kind: str, args: argparse.Namespace, cfg: dict, model: Model,
                     params: SlrInterval | MMParams) -> tuple[CriterionSpec, np.ndarray | None]:
    """``optimize._criterion_start`` of the ``_criterion_kind`` ``kind`` with C's --c and COMPOUND's --lam: the
    criterion and its start.  A bad flag is a usage error before any reference is computed."""
    c, lam = None, None
    if kind == "C":
        if (c := _setting(args, cfg, "c")) is None:
            raise UsageError("criterion C needs --c 'c1,c2'")
        if len(c := tuple(_parse_floats(c))) != 2:
            raise UsageError("--c must hold exactly two numbers")
    if kind == "COMPOUND" and (lam := _setting(args, cfg, "lam", convert=float)) is None:
        raise UsageError("criterion COMPOUND needs --lam in [0, 1]")
    return _criterion_start(model, params, kind, c, lam)


# --- subcommand implementations ----------------------------------------------

def _cmd_optimal(args: argparse.Namespace, cfg: dict) -> int:
    model, model_info, params = _build_model(args, cfg)
    seed = _resolve_seed(args, cfg)
    kind = _criterion_kind(args, cfg)
    # Accepted and echoed for compatibility: every optimum needs at most two points.
    n_support = _setting(args, cfg, "n_support", 2, convert=int)
    if not 2 <= n_support <= 4:
        raise UsageError(f"n_support must lie in [2, 4], got {n_support}")
    spec, start = _build_criterion(kind, args, cfg, model, params)
    result = optimize_design(model, spec, start)
    config = {"command": "optimal", "model": model_info["model"], "model_params": model_info,
              "criterion": spec.kind,
              "criterion_params": {"lam": spec.lam, "c": None if spec.c is None else list(spec.c)},
              "options": {"n_support": n_support}, "output": args.output, "seed": seed}
    _emit(_result_json(result, model, config), args.output)
    return EXIT_OK if result.converged else EXIT_BEST_FOUND


def _cmd_table(args: argparse.Namespace, cfg: dict) -> int:
    name = args.table
    if name == "slr":
        b = _setting(args, cfg, "b", convert=float)
        if b is None:
            raise UsageError("table slr needs --b")
        a_list = _setting(args, cfg, "a_list")
        if a_list is None:
            raise UsageError("table slr needs --a-list 'a1,a2,...'")
        rows = table_slr(_parse_floats(a_list), b)
        _emit(table_slr_csv(rows), args.output)
        return EXIT_OK
    # The parser's choices leave mm-designs and mm-efficiencies.
    eps_list = _setting(args, cfg, "eps_list", "0,0.05,0.5,1")
    tables = mm_tables(_mm_params(args, cfg, ("V", "K", "b")), _parse_floats(eps_list),
                       compat=not _setting(args, cfg, "strict", False, convert=bool))
    _emit(mm_designs_csv(tables) if name == "mm-designs" else mm_efficiencies_csv(tables), args.output)
    return EXIT_OK


def _cmd_pareto(args: argparse.Namespace, cfg: dict) -> int:
    model, model_info, params = _build_model(args, cfg)
    seed = _resolve_seed(args, cfg)
    n = _setting(args, cfg, "n", 1000, convert=int)
    (d_star, r_star), _ = _reference_stars(model, params)
    front = sampled_front(model, n, seed, d_star, r_star)
    _emit(front_csv(front, x_scale=_x_unit(params)), args.output)
    meta = {"seed": seed, "n": n, "front_size": len(front), "model": model_info,
            "phi_d_star": d_star, "phi_r_star": r_star}
    sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    model, _, params = _build_model(args, cfg)
    a_fixed = _setting(args, cfg, "a_fixed", convert=float)
    kind = str(_setting(args, cfg, "sweep_kind", "criteria"))
    if kind == "compound":
        lam_list = _setting(args, cfg, "lam_list", "0,0.25,0.5,0.75,1")
        (d_star, r_star), _ = _reference_stars(model, params)
        rows = compound_sweep(model, _parse_floats(lam_list), d_star, r_star)
        _emit(compound_sweep_csv(rows), args.output)
        return EXIT_OK
    if a_fixed is None:
        raise UsageError("sweep needs --a-fixed (lower support point; K units for mm)")
    n_p = _setting(args, cfg, "p_points", 199, convert=int)
    if n_p < 1:
        raise UsageError(f"need p_points >= 1, got {n_p}")
    p_grid = [(i + 1) / (n_p + 1) for i in range(n_p)]
    _emit(criterion_sweep_csv(model, a_fixed * _x_unit(params), p_grid), args.output)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace, cfg: dict) -> int:
    model, _, params = _build_model(args, cfg)
    if (kind := _criterion_kind(args, cfg)) not in CONVEX_KINDS:
        raise UsageError(
            f"criterion {kind} is not convex: no equivalence certificate exists, refusing to check")
    design_path = _setting(args, cfg, "design")
    if design_path is None:
        raise UsageError("check needs --design FILE (design JSON)")
    if not isinstance(design_path, str):
        raise UsageError(f"config key 'design' must be a file name, got {design_path!r}")
    design = _read_design(design_path, model.space)
    spec, _ = _build_criterion(kind, args, cfg, model, params)
    report = derivative_report(model, design, spec)
    value = criterion_value(fim(model, design), spec)
    passed = report.passes(value)
    if args.output is not None:
        _atomic_write(args.output, report.to_csv())
    summary = {"criterion": spec.kind, "criterion_value": value, "min_dd": report.min_dd,
               "argmin_x": report.argmin_x, "grid_points": CERTIFICATE_GRID, "certified": passed}
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if passed else EXIT_ERROR


def _cmd_efficiency(args: argparse.Namespace, cfg: dict) -> int:
    model, model_info, params = _build_model(args, cfg)
    paths = _setting(args, cfg, "designs")
    if paths is None:
        raise UsageError("efficiency needs --designs file1[,file2,...]")
    path_list = paths.split(",") if isinstance(paths, str) else paths
    if not isinstance(path_list, list) or not path_list or not all(isinstance(path, str) for path in path_list):
        raise UsageError(f"config key 'designs' must be a file name or a non-empty list of them, got {paths!r}")
    (d_star, r_star), _ = _reference_stars(model, params)
    entries = []
    for path in path_list:
        m = fim(model, _read_design(path, model.space))
        if m.is_singular:
            values = dict.fromkeys(("phi_D", "phi_R", "phi_r2", "corr", "eff_D", "eff_R"))
        else:
            phi_D, phi_R = phi_d(m), phi_r(m)
            values = {"phi_D": phi_D, "phi_R": phi_R, "phi_r2": phi_r2(m), "corr": correlation(m),
                      "eff_D": d_star / phi_D, "eff_R": r_star / phi_R}
        entries.append({"path": path, **values, "singular": m.is_singular})
    payload = {"model": model_info, "phi_d_star": d_star, "phi_r_star": r_star,
               "designs": entries}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK


# --- parser ------------------------------------------------------------------

_MODEL_FLAGS = {
    "--model": {"choices": ["slr", "mm"]},
    "--a": {"type": float, "help": "lower end of the SLR interval"},
    "--b": {"type": float, "help": "upper end (SLR: raw units; mm: units of K)"},
    "--V": {"type": float, "help": "mm nominal maximum rate"},
    "--K": {"type": float, "help": "mm nominal half-saturation constant"},
    "--eps": {"type": float, "help": "mm lower extreme (units of K unless --eps-absolute)"},
    "--eps-absolute": {"action": "store_const", "const": True,
                       "help": "interpret --eps in raw units instead of K units"},
}


def _add_model_args(p: argparse.ArgumentParser, flags: Sequence[str] = tuple(_MODEL_FLAGS)) -> None:
    for flag in flags:
        p.add_argument(flag, default=None, **_MODEL_FLAGS[flag])


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", default=None, help="output path (default: stdout)")
    p.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> _Parser:
    parser = _Parser(prog="optdesign",
                     description="Optimal experimental designs for two-parameter models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimal", help="compute an optimal design", parents=[])
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--seed", type=int, default=None, help="echoed only; the optimizer reads no seed")
    p.add_argument("--criterion", default=None, help=f"one of {ALL_KINDS}")
    p.add_argument("--c", default=None, help="c vector for criterion C, e.g. '1,0'")
    p.add_argument("--lam", type=float, default=None, help="compound weight in [0, 1]")
    p.add_argument("--n-support", type=int, default=None,
                   help="accepted for compatibility, in [2, 4]; every optimum needs at most two points")
    p.set_defaults(func=_cmd_optimal)

    # No abbreviations: --a and --eps would read as --a-list and --eps-list.
    p = sub.add_parser("table", help="emit a reference table as CSV", allow_abbrev=False)
    p.add_argument("table", choices=["slr", "mm-designs", "mm-efficiencies"])
    _add_model_args(p, ("--b", "--V", "--K"))
    _add_common_args(p)
    p.add_argument("--a-list", default=None, help="comma-separated interval lower ends")
    p.add_argument("--eps-list", default=None, help="comma-separated lower extremes")
    p.add_argument("--strict", action="store_const", const=True, default=None,
                   help="report best-found designs instead of degenerate-limit rows")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("pareto", help="sampled two-point designs and their Pareto front")
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--seed", type=int, default=None, help="seed of the sampler")
    p.add_argument("--n", type=int, default=None, help="number of sampled designs")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("sweep", help="criterion values along a weight sweep")
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--a-fixed", type=float, default=None,
                   help="fixed lower support point (K units for mm)")
    p.add_argument("--p-points", type=int, default=None, help="number of interior weights")
    p.add_argument("--sweep-kind", choices=["criteria", "compound"], default=None)
    p.add_argument("--lam-list", default=None, help="compound sweep weights")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="equivalence-theorem check of a design JSON")
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--design", default=None, help="design JSON file")
    p.add_argument("--criterion", default=None, help="a convex criterion")
    p.add_argument("--c", default=None)
    p.add_argument("--lam", type=float, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("efficiency", help="criterion values and efficiencies of designs")
    _add_model_args(p)
    _add_common_args(p)
    p.add_argument("--designs", default=None, help="comma-separated design JSON files")
    p.set_defaults(func=_cmd_efficiency)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser `main` uses, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        cfg = _load_config(getattr(args, "config", None))
        return args.func(args, cfg)
    except (UsageError, ValidationError, OptDesignError, OSError) as exc:
        sys.stderr.write(f"optdesign: {exc}\n")
        return EXIT_USAGE if isinstance(exc, (UsageError, ValidationError)) else EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
