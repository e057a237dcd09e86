"""Experiment runner: single runs, tolerance sweeps, rate fits, traces.

Verbs (all file-driven, JSON in / JSON or CSV out):

* ``run --config run.json [--out report.json]``: one adaptive run;
  the report embeds the config, termination, blow-up estimate and
  per-interval traces, and is byte-for-byte reproducible.
* ``sweep --config sweep.json [--out table.csv]``: one run per entry
  of a decreasing tolerance list; emits one CSV row per run.
* ``fit --config table.csv --model algebraic|exponential``: least
  squares rate fit of the blow-up time error against degrees of
  freedom (log-log, or log vs sqrt for the exponential model).
* ``trace --config report.json [--out trace.csv]``: per-interval
  series of the accumulated growth factor and effectivity against the
  inverse distance to the blow-up time.

Exit codes: 0 success, 2 configuration error, 3 aborted run.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from .adapt import AdaptConfig, Mode, RunResult, Termination, h_adapt, hp_adapt
from .galerkin import PicardConfig, Scheme
from .problems import Problem, builtin_problem

__all__ = ["main", "run_from_config", "sweep_rows", "fit_rates", "trace_series"]

SWEEP_HEADER = [
    "tol_star",
    "M",
    "dofs",
    "T",
    "blowup_err",
    "delta_hat",
    "best_effectivity",
    "wall_time_s",
    "aborted",
]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_ABORTED = 3


# The keys a run or sweep config may hold, and those of its picard object
_CONFIG_KEYS = (
    "problem", "scheme", "mode", "r", "k_init", "tol_star", "tol_list", "r_max", "k_min",
    "max_intervals", "picard",
)
_PICARD_KEYS = tuple(f.name for f in dataclasses.fields(PicardConfig))


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _fmt(x) -> str:
    """17 significant digits: lossless float64 round trip."""
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


def _require(config: dict, key: str, kind, where: str):
    if key not in config:
        raise ConfigError(f"{where}: missing required key {key!r}")
    value = config[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    # bool is a subclass of int, but JSON true is not a degree or a count
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}: key {key!r} must be of type {kind.__name__}")
    return value


def _reject_unknown(config: dict, accepted: tuple, where: str):
    unknown = [key for key in config if key not in accepted]
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}; accepted: {', '.join(accepted)}")


def build_problem(config: dict) -> Problem:
    entry = _require(config, "problem", dict, "config")
    name = _require(entry, "name", str, "problem")
    params = {k: v for k, v in entry.items() if k != "name"}
    try:
        return builtin_problem(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem: {exc}") from exc


def build_adapt_config(config: dict, tol_star: float) -> AdaptConfig:
    _reject_unknown(config, _CONFIG_KEYS, "config")
    scheme_name = _require(config, "scheme", str, "config").lower()
    mode_name = _require(config, "mode", str, "config").lower()
    try:
        scheme = Scheme(scheme_name)
    except ValueError:
        raise ConfigError(f"config: key 'scheme' must be 'cg' or 'dg', got {scheme_name!r}")
    try:
        mode = Mode(mode_name)
    except ValueError:
        raise ConfigError(f"config: key 'mode' must be 'h' or 'hp', got {mode_name!r}")
    kwargs = dict(
        scheme=scheme,
        mode=mode,
        r_init=_require(config, "r", int, "config"),
        k_init=_require(config, "k_init", float, "config"),
        tol_star=tol_star,
    )
    for key, kind in (
        ("r_max", int),
        ("k_min", float),
        ("max_intervals", int),
    ):
        if key in config:
            kwargs[key] = _require(config, key, kind, "config")
    picard = _require(config, "picard", dict, "config") if "picard" in config else {}
    _reject_unknown(picard, _PICARD_KEYS, "picard")
    picard = {key: _require(picard, key, float, "picard") for key in picard}
    try:
        return AdaptConfig(picard=PicardConfig(**picard), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def run_from_config(config: dict, tol_star: float | None = None) -> RunResult:
    p = build_problem(config)
    if tol_star is None:
        tol_star = _require(config, "tol_star", float, "config")
    cfg = build_adapt_config(config, tol_star)
    driver = h_adapt if cfg.mode is Mode.H else hp_adapt
    return driver(p, cfg)


def _report(config: dict, result: RunResult) -> dict:
    per = result.intervals
    return {
        "config": config,
        "termination": result.termination.value,
        "T": result.T,
        "M": result.M,
        "dofs": result.dofs,
        "tol_trace": list(result.tol_trace),
        "intervals": {
            "t_end": [rec.interval.t_end for rec in per],
            "k": [rec.interval.k for rec in per],
            "r": [rec.r for rec in per],
            "picard_iters": [rec.output.picard_iters for rec in per],
            "eta_res": [rec.estimate.eta_res for rec in per],
            "psi": [rec.estimate.psi for rec in per],
            "delta": [rec.estimate.delta for rec in per],
            "delta_hat": [rec.estimate.delta_hat for rec in per],
            "bound": [rec.estimate.bound for rec in per],
            "theta": [rec.theta for rec in per],
            "effectivity": [rec.estimate.effectivity for rec in per],
            "recon_error": [rec.recon_error for rec in per],
            "attempts": [rec.attempts for rec in per],
            "decisions": [list(rec.decisions) for rec in per],
        },
    }


def _best_effectivity(result: RunResult) -> float | None:
    effs = [
        rec.estimate.effectivity
        for rec in result.intervals
        if rec.estimate.effectivity is not None and math.isfinite(rec.estimate.effectivity)
    ]
    return min(effs) if effs else None


def sweep_rows(config: dict) -> list[dict]:
    tol_list = _require(config, "tol_list", list, "config")
    if not tol_list:
        raise ConfigError("config: key 'tol_list' must be a nonempty list")
    try:
        tols = [float(t) for t in tol_list]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: key 'tol_list' entries must be numbers: {exc}") from exc
    if any(b >= a for a, b in zip(tols, tols[1:])):
        raise ConfigError("config: key 'tol_list' must be strictly decreasing")
    p = build_problem(config)
    t_inf = p.t_blowup
    rows = []
    for tol in tols:
        start = time.perf_counter()
        result = run_from_config(config, tol_star=tol)
        wall = time.perf_counter() - start
        rows.append(
            {
                "tol_star": tol,
                "M": result.M,
                "dofs": result.dofs,
                "T": result.T,
                "blowup_err": abs(result.T - t_inf) if t_inf is not None else None,
                "delta_hat": result.intervals[-1].estimate.delta_hat if result.M else 1.0,
                "best_effectivity": _best_effectivity(result),
                "wall_time_s": wall,
                "aborted": result.termination is Termination.K_MIN_REACHED,
            }
        )
    return rows


def format_sweep_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write(",".join(SWEEP_HEADER) + "\n")
    for row in rows:
        out.write(
            ",".join(
                [
                    _fmt(row["tol_star"]),
                    str(row["M"]),
                    str(row["dofs"]),
                    _fmt(row["T"]),
                    _fmt(row["blowup_err"]),
                    _fmt(row["delta_hat"]),
                    _fmt(row["best_effectivity"]),
                    _fmt(row["wall_time_s"]),
                    "true" if row["aborted"] else "false",
                ]
            )
            + "\n"
        )
    return out.getvalue()


def _lsq_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_rates(rows: list[dict], model: str) -> dict:
    """Least-squares convergence fit over non-aborted sweep rows.

    algebraic: log(err) vs log(dofs) -> slope is the algebraic rate.
    exponential: log(err) vs sqrt(dofs) -> slope = -sqrt(b).
    """
    usable = [
        row
        for row in rows
        if not row["aborted"]
        and row["blowup_err"] is not None
        and math.isfinite(row["blowup_err"])
        and row["blowup_err"] > 0
    ]
    if len(usable) < 3:
        raise ConfigError(f"fit needs >= 3 usable rows with positive blow-up error, got {len(usable)}")
    err = np.array([row["blowup_err"] for row in usable])
    dofs = np.array([float(row["dofs"]) for row in usable])
    if model == "algebraic":
        slope, intercept, r2 = _lsq_line(np.log(dofs), np.log(err))
        slope_or_b = slope
    elif model == "exponential":
        slope, intercept, r2 = _lsq_line(np.sqrt(dofs), np.log(err))
        slope_or_b = math.copysign(slope * slope, -slope)
    else:
        raise ConfigError(f"unknown fit model {model!r}; use 'algebraic' or 'exponential'")
    return {
        "model": model,
        "slope": slope,
        "intercept": intercept,
        "slope_or_b": slope_or_b,
        "r_squared": r2,
        "n_rows": len(usable),
    }


def parse_sweep_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != SWEEP_HEADER:
        raise ConfigError(
            f"sweep CSV must have header {','.join(SWEEP_HEADER)!r}, got {reader.fieldnames}"
        )
    rows = []
    for raw in reader:
        try:
            rows.append(
                {
                    "tol_star": float(raw["tol_star"]),
                    "M": int(raw["M"]),
                    "dofs": int(raw["dofs"]),
                    "T": float(raw["T"]),
                    "blowup_err": float(raw["blowup_err"]),
                    "delta_hat": float(raw["delta_hat"]),
                    "best_effectivity": float(raw["best_effectivity"]),
                    "wall_time_s": float(raw["wall_time_s"]),
                    "aborted": raw["aborted"] == "true",
                }
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sweep CSV line {reader.line_num}: {exc}") from exc
    return rows


def trace_series(report: dict) -> list[tuple[float, float, float]]:
    """Rows (1/|t_m - T_inf|, delta_hat_m, effectivity_m) per interval."""
    p = build_problem(report["config"])
    if p.t_blowup is None:
        raise ConfigError(f"problem {p.name!r} has no known blow-up time to trace against")
    per = report["intervals"]
    rows = []
    for t_end, dh, eff in zip(per["t_end"], per["delta_hat"], per["effectivity"]):
        eps = abs(t_end - p.t_blowup)
        rows.append((1.0 / eps if eps > 0 else math.inf, dh, eff if eff is not None else math.nan))
    return rows


def _write_out(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def _cmd_run(args) -> int:
    config = _load_json(args.config)
    result = run_from_config(config)
    report = _report(config, result)
    _write_out(json.dumps(report, indent=2) + "\n", args.out)
    return _EXIT_ABORTED if result.termination is Termination.K_MIN_REACHED else _EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_json(args.config)
    rows = sweep_rows(config)
    _write_out(format_sweep_csv(rows), args.out)
    return _EXIT_ABORTED if any(row["aborted"] for row in rows) else _EXIT_OK


def _cmd_fit(args) -> int:
    try:
        with open(args.config) as fh:
            rows = parse_sweep_csv(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"CSV file not found: {args.config}")
    fit = fit_rates(rows, args.model)
    _write_out(json.dumps(fit, indent=2) + "\n", args.out)
    return _EXIT_OK


def _cmd_trace(args) -> int:
    report = _load_json(args.config)
    rows = trace_series(report)
    out = io.StringIO()
    out.write("eps_inv,delta_hat,effectivity\n")
    for eps_inv, dh, eff in rows:
        out.write(f"{_fmt(eps_inv)},{_fmt(dh)},{_fmt(eff)}\n")
    _write_out(out.getvalue(), args.out)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hpgalerkin",
        description="Adaptive Galerkin time stepping toward blow-up: run, sweep, fit, trace.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, func in (
        ("run", _cmd_run),
        ("sweep", _cmd_sweep),
        ("fit", _cmd_fit),
        ("trace", _cmd_trace),
    ):
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True, help="input file (JSON config, or CSV for fit)")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        if verb == "fit":
            sp.add_argument("--model", choices=["algebraic", "exponential"], required=True)
        sp.set_defaults(func=func)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
