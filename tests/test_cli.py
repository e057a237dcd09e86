import json
import math

import numpy as np
import pytest

import hpgalerkin.cli as cli
from hpgalerkin.cli import (
    SWEEP_HEADER,
    ConfigError,
    fit_rates,
    format_sweep_csv,
    main,
    parse_sweep_csv,
    sweep_rows,
    trace_series,
)

RUN_CONFIG = {
    "problem": {"name": "power2", "u0": 1.0},
    "scheme": "cg",
    "mode": "h",
    "r": 1,
    "k_init": 0.1,
    "tol_star": 1e-3,
}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestRunVerb:
    def test_power_square_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", RUN_CONFIG)
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["termination"] == "delta_not_found"
        assert 0.0 < report["T"] < 1.0
        assert report["M"] == len(report["intervals"]["t_end"])
        assert report["config"] == RUN_CONFIG

    def test_lambda_zero_trace_is_flat(self, tmp_path):
        cfg = write_json(
            tmp_path / "lin.json",
            {
                "problem": {"name": "linear", "lam": 0.0, "u0": [3.0]},
                "scheme": "cg",
                "mode": "h",
                "r": 1,
                "k_init": 0.25,
                "tol_star": 1e-6,
                "max_intervals": 4,
            },
        )
        out = tmp_path / "report.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert all(abs(d - 1.0) < 1e-10 for d in report["intervals"]["delta"])
        assert all(b == 0.0 for b in report["intervals"]["bound"])

    def test_unknown_problem(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {**RUN_CONFIG, "problem": {"name": "mystery"}})
        assert main(["run", "--config", cfg]) == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_missing_key_named(self, tmp_path, capsys):
        broken = {k: v for k, v in RUN_CONFIG.items() if k != "k_init"}
        cfg = write_json(tmp_path / "bad.json", broken)
        assert main(["run", "--config", cfg]) == 2
        assert "k_init" in capsys.readouterr().err

    def test_aborted_run_exit_code(self, tmp_path):
        cfg = write_json(
            tmp_path / "abort.json",
            {
                **RUN_CONFIG,
                "k_min": 1e-6,
                "picard": {"divergence_cap": 0.5},
            },
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 3

    def test_overflowing_update_aborts(self, tmp_path):
        # f(u0) = 1.5e308 is finite but the first Picard update is not:
        # every step diverges until k falls below k_min
        config = {
            "problem": {"name": "linear", "lam": 1.0, "u0": [1.5e308]},
            "scheme": "cg",
            "mode": "hp",
            "r": 1,
            "k_init": 1.0,
            "tol_star": 1e-6,
        }
        cfg, out = write_json(tmp_path / "big.json", config), tmp_path / "r.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert (report["termination"], report["M"]) == ("k_min_reached", 0)

    def test_step_below_the_spacing_of_t_aborts(self, tmp_path):
        # u = e^{0.01 t} reaches the cap 1e8 near t = 1842: the cap
        # halves k, and once t + k > t fails, above the default k_min,
        # the run aborts instead of building an interval of zero length
        config = {
            "problem": {"name": "linear", "lam": 0.01, "u0": [1.0]},
            "scheme": "cg",
            "mode": "h",
            "r": 1,
            "k_init": 10.0,
            "tol_star": 1e-4,
            "picard": {"divergence_cap": 1e8},
        }
        cfg, out = write_json(tmp_path / "long.json", config), tmp_path / "r.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert (report["termination"], report["M"]) == ("k_min_reached", 206)
        assert 1840.0 < report["T"] < 1841.0

    def test_report_reproducible_byte_for_byte(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", RUN_CONFIG)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--config", cfg, "--out", str(out1)])
        embedded = json.loads(out1.read_text())["config"]
        cfg2 = write_json(tmp_path / "rerun.json", embedded)
        main(["run", "--config", cfg2, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


SWEEP_CONFIG = {
    "problem": {"name": "power2", "u0": 1.0},
    "scheme": "cg",
    "mode": "h",
    "r": 1,
    "k_init": 0.1,
    "tol_list": [1e-2, 1e-3, 1e-4],
}


class TestSweepVerb:
    def test_rows_in_spec_order(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", SWEEP_CONFIG)
        out = tmp_path / "table.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) == 4
        rows = parse_sweep_csv(text)
        assert [row["tol_star"] for row in rows] == [1e-2, 1e-3, 1e-4]
        assert all(row["dofs"] >= row["M"] for row in rows)
        assert all(row["blowup_err"] >= 0 for row in rows)

    def test_single_tolerance(self):
        rows = sweep_rows({**SWEEP_CONFIG, "tol_list": [1e-3]})
        assert len(rows) == 1

    def test_non_decreasing_list_rejected(self):
        with pytest.raises(ConfigError, match="strictly decreasing"):
            sweep_rows({**SWEEP_CONFIG, "tol_list": [1e-3, 1e-3]})
        with pytest.raises(ConfigError, match="nonempty"):
            sweep_rows({**SWEEP_CONFIG, "tol_list": []})

    def test_aborted_rows_flagged_and_rest_run(self, tmp_path):
        cfg = write_json(
            tmp_path / "sweep.json",
            {
                **SWEEP_CONFIG,
                "tol_list": [1e-2, 1e-3],
                "k_min": 1e-6,
                "picard": {"divergence_cap": 0.5},
            },
        )
        out = tmp_path / "table.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        rows = parse_sweep_csv(out.read_text())
        assert len(rows) == 2
        assert all(row["aborted"] for row in rows)

    def test_csv_round_trip_lossless(self):
        one = {**SWEEP_CONFIG, "tol_list": [1e-3]}
        rows = sweep_rows(one)
        # aborted = true
        rows += sweep_rows({**one, "k_min": 1e-6, "picard": {"divergence_cap": 0.5}})
        # no known blow-up time: blowup_err = None
        rows += sweep_rows({**one, "problem": {"name": "linear", "u0": [1.0]}, "max_intervals": 3})
        assert [row["aborted"] for row in rows] == [False, True, False]
        assert rows[2]["blowup_err"] is None
        back = parse_sweep_csv(format_sweep_csv(rows))
        assert len(back) == len(rows)
        for row, read in zip(rows, back):
            assert list(read) == SWEEP_HEADER
            for key in SWEEP_HEADER:
                want = math.nan if row[key] is None else row[key]
                assert read[key] == want or (math.isnan(want) and math.isnan(read[key])), key
            assert type(read["M"]) is type(read["dofs"]) is int
            assert read["aborted"] is row["aborted"]


def synthetic_rows(errs, dofs):
    return [
        dict(tol_star=10.0**-i, M=1, dofs=d, T=1.0, blowup_err=e, delta_hat=1.0,
             best_effectivity=1.0, wall_time_s=0.0, aborted=False)
        for i, (e, d) in enumerate(zip(errs, dofs))
    ]


class TestFitVerb:
    def test_algebraic_exact_power_law(self):
        dofs = [10, 20, 40, 80]
        rows = synthetic_rows([d**-2.0 for d in dofs], dofs)
        fit = fit_rates(rows, "algebraic")
        assert fit["slope"] == pytest.approx(-2.0, abs=1e-12)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_exponential_exact(self):
        dofs = [9, 16, 36, 64, 100]
        rows = synthetic_rows([math.exp(-3.0 * math.sqrt(d)) for d in dofs], dofs)
        fit = fit_rates(rows, "exponential")
        assert fit["slope"] == pytest.approx(-3.0, abs=1e-12)
        assert fit["slope_or_b"] == pytest.approx(9.0, abs=1e-10)
        assert fit["r_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_constant_error_zero_slope(self):
        rows = synthetic_rows([1e-3, 1e-3, 1e-3], [10, 20, 40])
        assert fit_rates(rows, "algebraic")["slope"] == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_rows(self):
        rows = synthetic_rows([1e-2, 1e-3], [10, 20])
        with pytest.raises(ConfigError, match=">= 3"):
            fit_rates(rows, "algebraic")

    def test_unknown_model_rejected(self):
        # the CLI's --model takes only the two; the library names them
        rows = synthetic_rows([1e-2, 1e-3, 1e-4], [10, 20, 40])
        with pytest.raises(ConfigError, match="unknown fit model 'quadratic'"):
            fit_rates(rows, "quadratic")

    def test_cli_path(self, tmp_path, capsys):
        dofs = [10, 20, 40, 80]
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(format_sweep_csv(synthetic_rows([d**-2.0 for d in dofs], dofs)))
        assert main(["fit", "--config", str(csv_path), "--model", "algebraic"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["slope"] == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0, -5])
    @pytest.mark.parametrize("model", ["algebraic", "exponential"])
    def test_nonpositive_dofs_rejected(self, bad, model):
        rows = synthetic_rows([1e-2, 1e-3, 1e-4], [10, bad, 40])
        with pytest.raises(ConfigError, match=f"positive dofs, got {bad} in row 2"):
            fit_rates(rows, model)

    @pytest.mark.parametrize("model", ["algebraic", "exponential"])
    def test_one_distinct_dofs_rejected(self, model):
        # an h sweep whose tolerances all end on the same mesh: the line
        # through one abscissa has no slope
        rows = synthetic_rows([1e-3, 9.9e-4, 9.8e-4], [24, 24, 24])
        with pytest.raises(ConfigError, match=">= 2 distinct dofs"):
            fit_rates(rows, model)

    def test_unusable_rows_are_not_checked(self):
        # an aborted row's dofs neither fails the fit nor counts as distinct
        rows = synthetic_rows([1e-2, 1e-3, 1e-4, 1e-5], [0, 10, 20, 40])
        rows[0]["aborted"] = True
        assert fit_rates(rows, "algebraic")["n_rows"] == 3

    @pytest.mark.parametrize("dofs", [[10, 0, 40], [24, 24, 24]], ids=["zero", "one-distinct"])
    def test_cli_exit_code(self, dofs, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text(format_sweep_csv(synthetic_rows([1e-2, 1e-3, 1e-4], dofs)))
        assert main(["fit", "--config", str(csv_path), "--model", "algebraic"]) == 2
        assert "dofs" in capsys.readouterr().err


class TestTraceVerb:
    def test_series_from_report(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", RUN_CONFIG)
        report_path = tmp_path / "report.json"
        main(["run", "--config", cfg, "--out", str(report_path)])
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", str(report_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eps_inv,delta_hat,effectivity"
        report = json.loads(report_path.read_text())
        assert len(lines) - 1 == report["M"]
        eps_inv = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b > a for a, b in zip(eps_inv, eps_inv[1:]))

    def test_single_interval_run(self, tmp_path):
        cfg = write_json(tmp_path / "one.json", {**RUN_CONFIG, "max_intervals": 1})
        report_path = tmp_path / "r.json"
        main(["run", "--config", cfg, "--out", str(report_path)])
        rows = trace_series(json.loads(report_path.read_text()))
        assert len(rows) == 1

    def test_null_and_infinite_effectivity_accepted(self, tmp_path):
        # run writes an effectivity of Infinity where the worst
        # reconstruction error is still 0, and null without an exact solution
        intervals = {"t_end": [0.5, 0.75], "delta_hat": [1.0, 2], "effectivity": [None, math.inf]}
        path = write_json(tmp_path / "r.json", {"config": RUN_CONFIG, "intervals": intervals})
        out = tmp_path / "trace.csv"
        assert main(["trace", "--config", path, "--out", str(out)]) == 0
        assert out.read_text() == "eps_inv,delta_hat,effectivity\n2,1,nan\n4,2,inf\n"

    def test_unknown_blowup_time_rejected(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "lin.json",
            {
                "problem": {"name": "linear", "lam": 1.0, "u0": [1.0]},
                "scheme": "cg",
                "mode": "h",
                "r": 1,
                "k_init": 0.1,
                "tol_star": 1e-4,
                "max_intervals": 3,
            },
        )
        report_path = tmp_path / "r.json"
        main(["run", "--config", cfg, "--out", str(report_path)])
        assert main(["trace", "--config", str(report_path)]) == 2
        assert "blow-up" in capsys.readouterr().err


class TestSerialization:
    def test_17_digit_round_trip(self, rng):
        from hpgalerkin.cli import _fmt

        for _ in range(1000):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            assert float(_fmt(x)) == x


def _bad_text(tmp_path, verb, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return verb, str(path)


def _json_numbers(obj):
    # the string "1e400" stands for the JSON number 1e400, which parses as
    # inf, and "10**400" for that integer, written out, which parses as an int
    return json.dumps(obj).replace('"1e400"', "1e400").replace('"10**400"', str(10**400))


def _bad_run(tmp_path, **changes):
    return _bad_text(tmp_path, "run", _json_numbers({**RUN_CONFIG, **changes}))


def _bad_sweep(tmp_path, tol_list=(1e-2, "x")):
    return _bad_text(tmp_path, "sweep", _json_numbers({**SWEEP_CONFIG, "tol_list": list(tol_list)}))


def _bad_trace(tmp_path, **intervals):
    series = {"t_end": [0.5], "delta_hat": [1.0], "effectivity": [1.0], **intervals}
    return "trace", write_json(tmp_path / "bad.json", {"config": RUN_CONFIG, "intervals": series})


def _bad_lam(tmp_path, number):
    # 1e400 and -1e400 parse as infinities, NaN as nan; with an infinite
    # lam the march once diverged on every step and exited 3
    config = {**RUN_CONFIG, "problem": {"name": "linear", "lam": "LAM", "u0": [1.0]}}
    return _bad_text(tmp_path, "run", json.dumps(config).replace('"LAM"', number))


def _bad_csv(tmp_path, cell=1, value="x"):
    row = ["1e-3", "10", "10", "0.9", "0.1", "2.0", "3.0", "0.5", "false"]
    row[cell] = value
    path = tmp_path / "bad.csv"
    path.write_text(",".join(SWEEP_HEADER) + "\n" + ",".join(row) + "\n")
    return "fit", str(path)


class TestConfigErrors:
    """Malformed input exits 2 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "make_input, needle",
        [
            (lambda tmp: _bad_run(tmp, problem={"name": "power2", "u0": "abc"}), "abc"),
            (lambda tmp: _bad_run(tmp, problem={"name": "linear", "u0": {"a": 1}}), "problem"),
            (lambda tmp: _bad_run(tmp, problem={"name": "power2", "u0": 1.0, "bogus": 3}),
             "'bogus' for problem 'power2'; accepted: u0"),
            (lambda tmp: _bad_run(tmp, r=60), "cap 58"),
            (lambda tmp: _bad_run(tmp, mode="hp", r_max=60), "r_max"),
            (lambda tmp: _bad_run(tmp, r=True), "key 'r' must be of type int"),
            (lambda tmp: _bad_run(tmp, picard={"max_iters": 2.5}),
             "picard: unknown key 'max_iters'; accepted: divergence_cap"),
            (lambda tmp: _bad_run(tmp, picard={"max_iters": True}),
             "picard: unknown key 'max_iters'; accepted: divergence_cap"),
            (lambda tmp: _bad_run(tmp, delta_solver={"max_newton": 2.5}),
             "unknown key 'delta_solver'"),
            (lambda tmp: _bad_run(tmp, delta_solver={"scan_points": 2.5}),
             "unknown key 'delta_solver'"),
            (lambda tmp: _bad_run(tmp, max_interval=3),
             "config: unknown key 'max_interval'; accepted: problem, scheme, mode, r, k_init, "
             "tol_star, tol_list, r_max, k_min, max_intervals, picard"),
            (lambda tmp: _bad_run(tmp, mode="hp", theta_star=0.5), "unknown key 'theta_star'"),
            (lambda tmp: _bad_run(tmp, picard={"divergence_cap": 0.0}),
             "divergence_cap must be positive"),
            (lambda tmp: _bad_run(tmp, picard={"divergence_cap": True}),
             "picard: key 'divergence_cap' must be of type float"),
            (_bad_sweep, "tol_list"),
            (_bad_csv, "line 2"),
            (lambda tmp: _bad_text(tmp, "run", "3"), "must hold a JSON object, got int"),
            (lambda tmp: _bad_text(tmp, "trace", json.dumps(RUN_CONFIG)),
             "report: missing required key 'config'"),
            (lambda tmp: _bad_trace(tmp, t_end=["a"]), "intervals: 't_end' entry 0"),
            (lambda tmp: _bad_trace(tmp, delta_hat=[1.0, 2.0]), "differ in length"),
            (lambda tmp: _bad_trace(tmp, effectivity=[True]), "'effectivity' entry 0"),
            (lambda tmp: _bad_sweep(tmp, [True, 1e-3]), "key 'tol_list' entry 0"),
            (lambda tmp: _bad_sweep(tmp, ["1e-2", "1e-3"]), "key 'tol_list' entry 0"),
            (lambda tmp: _bad_run(tmp, k_init="1e400"), "k_init must be positive and finite"),
            (lambda tmp: _bad_run(tmp, k_init="10**400"),
             "config: k_init must be positive and finite, got inf"),
            (lambda tmp: _bad_sweep(tmp, ["10**400", 1e-3]),
             "config: tol_star must be positive and finite, got inf"),
            (lambda tmp: _bad_run(tmp, problem={"name": "linear", "u0": ["10**400"]}),
             "u0 must be a nonempty vector of finite numbers"),
            (lambda tmp: _bad_run(tmp, problem={"name": "power2", "u0": "2"}),
             "problem: parameter 'u0' must be of type float, got '2'"),
            (lambda tmp: _bad_run(tmp, problem={"name": "power2", "u0": [2.0]}),
             "problem: parameter 'u0'"),
            (lambda tmp: _bad_run(tmp, problem={"name": "linear", "lam": True}),
             "problem: parameter 'lam'"),
            (lambda tmp: _bad_run(tmp, problem={"name": "linear", "u0": [True]}),
             "problem: parameter 'u0'"),
            (lambda tmp: _bad_run(tmp, problem={"name": "linear", "u0": ["1e400"]}),
             "u0 must be a nonempty vector of finite numbers"),
            (lambda tmp: _bad_run(tmp, problem={"name": "linear", "u0": []}),
             "u0 must be a nonempty vector of finite numbers"),
            (lambda tmp: _bad_run(tmp, problem={"name": "exp", "u0": "1e400"}), "|u0| <= 709"),
            (lambda tmp: _bad_run(tmp, problem={"name": "exp", "u0": 1000}), "|u0| <= 709"),
            (lambda tmp: _bad_csv(tmp, cell=8, value="yes"), "line 2: 'yes'"),
            (lambda tmp: _bad_text(tmp, "run", b"\xff"), "not UTF-8 text"),
            (lambda tmp: ("run", str(tmp)), "cannot read config file"),
            (lambda tmp: _bad_run(tmp, scheme="fem"),
             "key 'scheme' must be 'cg' or 'dg', got 'fem'"),
            (lambda tmp: _bad_run(tmp, mode="p"), "key 'mode' must be 'h' or 'hp', got 'p'"),
            (lambda tmp: _bad_text(tmp, "run", '{"scheme": "cg",'), "is not valid JSON"),
            (lambda tmp: _bad_text(tmp, "fit", "tol_star,M\n1e-3,4\n"),
             "sweep CSV must have header"),
            (lambda tmp: _bad_lam(tmp, "1e400"), "linear problem requires a finite lam, got inf"),
            (lambda tmp: _bad_lam(tmp, "-1e400"), "linear problem requires a finite lam, got -inf"),
            (lambda tmp: _bad_lam(tmp, "NaN"), "linear problem requires a finite lam, got nan"),
        ],
        ids=[
            "u0-string",
            "u0-object",
            "unknown-param",
            "r-60",
            "hp-r_max-60",
            "r-bool",
            "max_iters-float",
            "max_iters-bool",
            "max_newton-float",
            "scan_points-float",
            "misspelt-key",
            "theta_star",
            "divergence_cap-zero",
            "divergence_cap-bool",
            "tol_list-entry",
            "csv-cell",
            "config-not-object",
            "trace-run-config",
            "trace-t_end-string",
            "trace-unequal-lengths",
            "trace-effectivity-bool",
            "tol_list-bool",
            "tol_list-strings",
            "k_init-overflow",
            "k_init-integer-overflow",
            "tol_list-integer-overflow",
            "linear-u0-integer-overflow",
            "power2-u0-string",
            "power2-u0-list",
            "linear-lam-bool",
            "linear-u0-bool",
            "linear-u0-overflow",
            "linear-u0-empty",
            "exp-u0-overflow",
            "exp-u0-1000",
            "csv-aborted-cell",
            "not-utf8",
            "directory",
            "scheme-fem",
            "mode-p",
            "json-truncated",
            "csv-header",
            "linear-lam-inf",
            "linear-lam-minus-inf",
            "linear-lam-nan",
        ],
    )
    def test_exit_2_with_error_line(self, tmp_path, capsys, make_input, needle):
        verb, path = make_input(tmp_path)
        argv = [verb, "--config", path] + (["--model", "algebraic"] if verb == "fit" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    @pytest.mark.parametrize("verb,config", [("run", RUN_CONFIG), ("sweep", SWEEP_CONFIG)])
    @pytest.mark.parametrize("out", ["nodir/x.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_rejected_before_the_run(
        self, tmp_path, capsys, monkeypatch, verb, config, out
    ):
        def no_run(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "_solve", no_run)
        cfg = write_json(tmp_path / "c.json", config)
        target = str(tmp_path / out)
        assert main([verb, "--config", cfg, "--out", target]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output file {target}") and err.count("\n") == 1

    def test_degree_cap_is_inclusive(self, tmp_path):
        # 58 is the largest degree whose reconstruction, of degree 59,
        # has its residual interpolated at degree deg + 4 on 64 points
        cfg = write_json(tmp_path / "r58.json", {**RUN_CONFIG, "r": 58, "max_intervals": 1})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
