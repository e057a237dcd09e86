"""Public-API contract: the exported names, and what bench/run.py uses.

The benchmark drives the package through these names and fields; a
change that removes or renames one fails here before it breaks the
benchmark.
"""

import dataclasses
import importlib
import sys

import hpgalerkin
from hpgalerkin import cli

PUBLIC_NAMES = {
    "AdaptConfig",
    "DeltaNotFound",
    "Interval",
    "IntervalRecord",
    "LocalPoly",
    "Mode",
    "NumericOverflow",
    "PicardConfig",
    "Problem",
    "RunResult",
    "Scheme",
    "StepEstimate",
    "StepFailure",
    "StepInput",
    "StepOutput",
    "Termination",
    "builtin_problem",
    "h_adapt",
    "hp_adapt",
    "make_exponential",
    "make_linear",
    "make_power_square",
    "psi_update",
    "reconstruct",
    "reconstruction_error",
    "residual_estimator",
    "run_errors",
    "smoothness",
    "solve_delta",
    "step",
}


# the functions the benchmark's Tracer.install wraps, besides
# LocalPoly.linf_norm; a hook it cannot find is only named on stderr and
# its figures read 0.  Its poly.project_values hook is such a one: that
# function is gone, and the benchmark names it absent, with
# poly.project_s at 0, until its tracer drops the row
TRACER_HOOKS = [
    ("galerkin", "step"),
    ("galerkin", "reconstruct"),
    ("estimator", "residual_estimator"),
    ("estimator", "solve_delta"),
    ("estimator", "reconstruction_error"),
    ("adapt", "smoothness"),
    ("problems", "rhs_at"),
    ("problems", "lip_at"),
]


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_all_is_the_public_set():
    assert len(hpgalerkin.__all__) == len(PUBLIC_NAMES)
    assert set(hpgalerkin.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in hpgalerkin.__all__:
        assert getattr(hpgalerkin, name) is not None, name


def test_benchmark_entry_points():
    assert callable(hpgalerkin.h_adapt) and callable(hpgalerkin.hp_adapt)
    assert hpgalerkin.Mode.HP.value == "hp" and hpgalerkin.Mode.H.value == "h"
    assert callable(cli.build_problem) and callable(cli.build_adapt_config)
    # the benchmark builds Problem(dim, u0, f, lip) and swaps f_batch in
    # with dataclasses.replace; the driver is chosen by AdaptConfig.mode
    assert {"dim", "u0", "f", "lip", "f_batch"} <= field_names(hpgalerkin.Problem)
    assert "mode" in field_names(hpgalerkin.AdaptConfig)


def test_config_surface():
    # each settable value is pinned here, so a new knob changes this test
    assert field_names(hpgalerkin.AdaptConfig) == {
        "scheme",
        "mode",
        "r_init",
        "k_init",
        "tol_star",
        "r_max",
        "k_min",
        "max_intervals",
        "picard",
    }
    assert field_names(hpgalerkin.PicardConfig) == {"divergence_cap"}


def test_benchmark_config_without_problem():
    # the benchmark's custom-problem ladders pass no 'problem' and no 'tol_star'
    config = {
        "scheme": "dg",
        "mode": "hp",
        "r": 1,
        "k_init": 0.1,
        "picard": {"divergence_cap": 1e12},
    }
    cfg = cli.build_adapt_config(config, 1e-4)
    assert cfg.tol_star == 1e-4 and cfg.picard.divergence_cap == 1e12


def test_benchmark_result_fields():
    # what the benchmark's check_run and run_round read
    assert {"termination", "T", "M", "dofs", "intervals"} <= field_names(hpgalerkin.RunResult)
    assert {"interval", "reconstruction", "estimate"} <= field_names(hpgalerkin.IntervalRecord)
    assert "bound" in field_names(hpgalerkin.StepEstimate)
    assert hpgalerkin.Termination.DELTA_NOT_FOUND.value == "delta_not_found"


def test_tracer_hooks_resolve():
    for module, name in TRACER_HOOKS:
        assert callable(getattr(importlib.import_module(f"hpgalerkin.{module}"), name, None))
    assert callable(getattr(hpgalerkin.LocalPoly, "linf_norm", None))


def test_tracer_hooks_are_called(monkeypatch):
    # wrapped on every module binding, as the tracer wraps them; the
    # solver never calls reconstruction_error (only run_errors does,
    # after the march), so the benchmark's estimator.recon_error_* read 0
    calls = dict.fromkeys([name for _, name in TRACER_HOOKS] + ["linf_norm"], 0)
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "hpgalerkin"]
    for module, name in TRACER_HOOKS:
        orig = getattr(sys.modules[f"hpgalerkin.{module}"], name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    linf_norm = hpgalerkin.LocalPoly.linf_norm

    def counted_linf_norm(self):
        calls["linf_norm"] += 1
        return linf_norm(self)

    monkeypatch.setattr(hpgalerkin.LocalPoly, "linf_norm", counted_linf_norm)
    cfg = hpgalerkin.AdaptConfig(
        scheme=hpgalerkin.Scheme.CG, mode=hpgalerkin.Mode.HP, r_init=1, k_init=0.15, tol_star=1e-3
    )
    hpgalerkin.hp_adapt(hpgalerkin.make_power_square(1.0), cfg)
    del calls["reconstruction_error"]
    assert min(calls.values()) >= 1, calls


def test_benchmark_round_trip():
    config = {
        "problem": {"name": "power2", "u0": 1.0},
        "scheme": "cg",
        "mode": "hp",
        "r": 1,
        "k_init": 0.15,
        "picard": {"divergence_cap": 1e12},
    }
    problem = dataclasses.replace(cli.build_problem(config), f_batch=lambda ts, us: us * us)
    cfg = cli.build_adapt_config(config, 1e-3)
    result = hpgalerkin.hp_adapt(problem, cfg)
    assert result.termination.value == "delta_not_found" and 0.0 < result.T < 1.0
    rec = result.intervals[0]
    assert rec.interval.t_start == 0.0 < rec.interval.t_end
    assert rec.reconstruction.coeffs.shape == (rec.r + 2, 1)
    assert rec.estimate.bound > 0.0
