import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import binratio
from binratio import ModelParams, Regime, exact_distribution, runner, sampling
from binratio.cli import BOUND_CSV_HEADER, SWEEP_CSV_HEADER, _build_parser, main

# child interpreters import the binratio these tests import, installed or not
PACKAGE_ROOT = os.path.dirname(os.path.dirname(binratio.__file__))
CHILD_PATH = [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, CHILD_PATH))}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, out, err, message):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


class TestLimit:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--n", "40", "--m", "60", "--p", "0.5", "--s", "2",
             "--r", "1", "--regime", "case2", "--alpha", "1.5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["variance"]) == pytest.approx(0.112)
        assert float(payload["center"]) == pytest.approx(8.0)

    def test_balanced_alpha_defaults_to_ratio(self, capsys):
        code, out, _ = run_cli(
            ["limit", "--n", "100", "--m", "250", "--p", "0.5", "--s", "1",
             "--r", "1", "--regime", "case2"],
            capsys,
        )
        assert code == 0

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(
            ["limit", "--n", "0", "--m", "60", "--p", "0.5", "--s", "2",
             "--r", "1", "--regime", "case1"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_overflowing_variance_exit_2(self, capsys):
        argv = ["limit", "--n", "10", "--m", "10", "--p", "1e-12", "--s", "1",
                "--r", "30", "--regime", "case2"]
        assert_one_line_error(*run_cli(argv, capsys), "overflows")
        # (s(1 + alpha) - r)^2 of the balanced variance overflows
        model = ["limit", "--n", "100", "--m", "100", "--p", "0.5"]
        for exponents in (["--s", "1e300", "--r", "1"],
                          ["--s", "1", "--r", "1", "--alpha", "1e308"]):
            argv = [*model, *exponents, "--regime", "case2"]
            assert_one_line_error(*run_cli(argv, capsys), "overflows")

    @pytest.mark.parametrize("model, message", [
        # p^(2(s-r)-1) overflows
        ("--n 10 --m 10 --p 1e-12 --s 1 --r 30 --regime case1",
         "overflows at s=1.0, r=30.0, p=1e-12 under case1\n"),
        # (s(1 + alpha) - r)^2 overflows
        ("--n 100 --m 100 --p 0.5 --s 1e300 --r 1 --regime case2 --alpha 1",
         "overflows at s=1e+300, r=1.0, p=0.5 under case2 with alpha=1.0\n"),
        # (s - r)^2 overflows
        ("--n 1000 --m 10 --p 0.5 --s 1e300 --r 1 --regime case3",
         "overflows at s=1e+300, r=1.0, p=0.5 under case3\n"),
        # (s(1 + alpha) - r)^2 + alpha r^2 underflows to 0, at alpha = m/n
        ("--n 2 --m 300 --p 0.5 --s 1e-320 --r 1e-300 --regime case2",
         "underflows to 0 at s=1e-320, r=1e-300, p=0.5 under case2 with alpha=150.0\n"),
        # the prefactor is finite, its product with s^2 is not
        ("--n 10 --m 10 --p 1e-12 --s 100 --r 112.2 --regime case1",
         "overflows at s=100.0, r=112.2, p=1e-12 under case1\n"),
    ], ids=["prefactor", "balanced", "light", "balanced_numerator", "product"])
    def test_variance_error_names_its_inputs(self, capsys, model, message):
        argv = ["limit", *model.split()]
        assert_one_line_error(*run_cli(argv, capsys), "error: limiting variance " + message)

    @pytest.mark.parametrize("p, s", [("0.99", "10000"), ("0.5", "300")])
    def test_overflowing_center_exit_2(self, capsys, p, s):
        # the variance and log_center are finite; exp(log_center) is not
        argv = ["limit", "--n", "100", "--m", "100", "--p", p, "--s", s,
                "--r", "1", "--regime", "case3"]
        assert_one_line_error(*run_cli(argv, capsys), "a result is inf, not a finite")

    def test_unknown_regime_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["limit", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1",
             "--r", "1", "--regime", "case7"],
            capsys,
        )
        assert code == 2


class TestSimulate:
    def test_report_fields(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["simulate", "--n", "100000", "--m", "100000", "--p", "0.5",
             "--s", "2", "--r", "1", "--regime", "case2", "--samples", "2000",
             "--seed", "5", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_file.read_text(encoding="utf-8"))
        assert payload["direction"] == "forward"
        assert payload["bin_count"] == 100
        assert len(payload["simulated_histogram"]["edges"]) == 101
        assert len(payload["reference_histogram"]["mass"]) == 100

    def test_overflowing_variance_exit_2(self, capsys):
        argv = ["simulate", "--n", "10", "--m", "10", "--p", "1e-6", "--s", "1",
                "--r", "30", "--regime", "case3", "--samples", "100"]
        assert_one_line_error(*run_cli(argv, capsys), "overflows")
        argv = ["simulate", "--n", "100", "--m", "100", "--p", "0.5", "--s", "1",
                "--r", "1e300", "--regime", "case2", "--samples", "100"]
        assert_one_line_error(*run_cli(argv, capsys), "overflows")

    def test_non_finite_statistic_exit_2(self, capsys):
        # case 3 at r = s: the variance is exactly 0, scale * center
        # underflows to 0 and expm1 overflows where x/(x+y) > 0.537: 0 * inf
        argv = ["simulate", "--n", "100", "--m", "100", "--p", "0.5", "--s", "10000",
                "--r", "10000", "--regime", "case3", "--samples", "200"]
        assert_one_line_error(
            *run_cli(argv, capsys), "simulated sample holds a non-finite value"
        )

    @pytest.mark.parametrize("size", [
        ["--samples", "1000000000000"],
        ["--samples", "100", "--bins", "1000000000000"],
        ["--samples", str(10**400)],  # the MiB it needs are no float
    ], ids=["samples", "bins", "samples_beyond_float"])
    def test_over_memory_budget_exit_2_before_any_draw(self, capsys, monkeypatch, size):
        drawn = []
        monkeypatch.setattr(runner, "draw_counts", lambda *a, **kw: drawn.append(a))
        argv = ["simulate", "--n", "100", "--m", "100", "--p", "0.5", "--s", "1",
                "--r", "1", "--regime", "case2", *size]
        assert_one_line_error(*run_cli(argv, capsys), "over the run memory budget")
        assert drawn == []

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        argv = ["simulate", "--n", "100", "--m", "100", "--p", "0.5", "--s", "1",
                "--r", "1", "--regime", "case2", "--samples", "100",
                "--out", str(tmp_path / "absent" / "report.json")]
        assert_one_line_error(*run_cli(argv, capsys), "cannot write")

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--n", "10000", "--m", "10000", "--p", "0.5",
                "--s", "1", "--r", "1", "--regime", "case2",
                "--samples", "1000", "--seed", "3"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        a = {k: v for k, v in json.loads(out1).items() if k != "wall_time_ms"}
        b = {k: v for k, v in json.loads(out2).items() if k != "wall_time_ms"}
        assert a == b


SPEC = {
    "base": {"n": 100000, "m": 100000, "p": 0.5, "s": 2.0, "r": 1.0},
    "regime": {"kind": "case2", "alpha": None},
    "vary": "r",
    "grid": {"lo": 1.0, "hi": 3.0, "steps": 3},
    "samples": 1000,
}


class TestSweep:
    def test_preset_csv(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--preset", "fig3c", "--samples", "1000",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 31  # header + 30 grid points
        assert "\r" not in text

    def test_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**SPEC, "master_seed": 4}), encoding="utf-8")
        code, out, _ = run_cli(["sweep", "--spec", str(spec_file)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4

    @pytest.mark.parametrize("argv, message", [
        (["sweep"], "one of the arguments --preset --spec is required"),
        (["sweep", "--preset", "fig3c", "--spec", "spec.json"],
         "argument --spec: not allowed with argument --preset"),
    ], ids=["neither", "both"])
    def test_requires_exactly_one_source(self, capsys, argv, message):
        assert_one_line_error(*run_parser(argv, capsys), message)

    def test_missing_spec_file_exit_2(self, capsys, tmp_path):
        argv = ["sweep", "--spec", str(tmp_path / "absent.json")]
        assert_one_line_error(*run_cli(argv, capsys), "cannot read spec")

    def test_spec_not_json_exit_2(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{not json", encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_file)]
        assert_one_line_error(*run_cli(argv, capsys), "is not JSON")

    @pytest.mark.parametrize("key", ["base", "regime", "vary", "grid"])
    def test_spec_missing_key_exit_2(self, capsys, tmp_path, key):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps({k: v for k, v in SPEC.items() if k != key}), encoding="utf-8"
        )
        argv = ["sweep", "--spec", str(spec_file)]
        assert_one_line_error(*run_cli(argv, capsys), f"missing key {key!r}")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([SPEC], "must be a JSON object"),
            ({**SPEC, "base": {**SPEC["base"], "q": 1}}, "base has unknown key 'q'"),
            ({**SPEC, "sampels": 500}, "has unknown key 'sampels'"),
            ({**SPEC, "base": {"n": 10, "m": 10}}, "base is missing key 'p'"),
            ({**SPEC, "regime": "case2"}, "regime must be a JSON object"),
            ({**SPEC, "regime": {"kind": "case2", "beta": 1}}, "unknown key 'beta'"),
            ({**SPEC, "grid": {"lo": 1, "hi": 2}}, "grid is missing key 'steps'"),
            ({**SPEC, "direction": "sideways"}, "unknown direction 'sideways'"),
            ({**SPEC, "base": {**SPEC["base"], "p": "0.5"}}, "got '0.5'"),
            ({**SPEC, "grid": [1.0, "x"]}, "got 'x'"),
            ({**SPEC, "vary": "m", "grid": [1.0, "x"]}, "m must be an integer, got 'x'"),
            ({**SPEC, "vary": "n", "grid": [math.nan]}, "n must be an integer, got nan"),
            ({**SPEC, "samples": "abc"}, "samples must be an integer, got 'abc'"),
            ({**SPEC, "samples": True}, "samples must be an integer, got True"),
            ({**SPEC, "grid": 5}, "grid must be a JSON list or object"),
            ({**SPEC, "grid": {"lo": 1, "hi": 2, "steps": "a"}}, "'steps' must be"),
            ({**SPEC, "grid": {"lo": 1, "hi": 2, "steps": -2}}, "'steps' must be"),
            ({**SPEC, "grid": {"lo": "a", "hi": 2, "steps": 2}}, "'lo' must be"),
            ({**SPEC, "regime": {"kind": "case2", "alpha": "x"}}, "got 'x'"),
            ({**SPEC, "bins": None}, "bins must be an integer, got None"),
            ({**SPEC, "grid": {"lo": 0.1, "hi": 0.9, "steps": 10**11}},
             "'steps' must be >= 1 and <= 1000000, got 100000000000"),
            ({**SPEC, "replicates_per_point": 10**9}, "holds 1 to 1000000 runs"),
            ({**SPEC, "grid": {"lo": 10**400, "hi": 2, "steps": 2}},
             "'lo' must be a finite number"),
            ({**SPEC, "base": {**SPEC["base"], "n": True}},
             "n must be an integer, got True"),
            ({**SPEC, "base": {**SPEC["base"], "s": True}},
             "s must be a positive real, got True"),
            ({**SPEC, "regime": {"kind": "case2", "alpha": True}},
             "needs alpha > 0 and finite, got True"),
            ({**SPEC, "vary": "m", "grid": [True, 2]},
             "m must be an integer, got True"),
        ],
        ids=["list", "base-key", "top-key", "base-missing", "regime-str",
             "regime-key", "grid-missing", "direction", "p-str", "grid-str",
             "grid-m-str", "grid-n-nan", "samples-str", "samples-bool", "grid-int",
             "steps-str", "steps-negative", "lo-str", "alpha-str", "bins-null",
             "steps-over-limit", "runs-over-limit", "lo-huge-int", "n-bool",
             "s-bool", "alpha-bool", "grid-m-bool"],
    )
    def test_strict_spec_exit_2(self, capsys, tmp_path, spec, message):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_file)]
        assert_one_line_error(*run_cli(argv, capsys), message)

    @pytest.mark.parametrize("flag", ["--samples", "--bins", "--seed"])
    def test_run_setting_flag_with_spec_exit_2(self, capsys, tmp_path, flag):
        # the spec file is the one source of run settings
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC), encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_file), flag, "7"]
        assert_one_line_error(*run_cli(argv, capsys), "do not apply with --spec")

    def test_zero_threads_exit_2(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(SPEC), encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_file), "--threads", "0"]
        assert_one_line_error(*run_cli(argv, capsys), "threads must be >= 1")


class TestOracle:
    def test_moments_json(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--n", "2", "--m", "2", "--p", "0.5", "--s", "1",
             "--r", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["mean"]) == pytest.approx(15 / 32)
        assert len(payload["support"]) == 9

    @pytest.mark.parametrize("regime", [["--regime", "case2"], []],
                             ids=["standardized", "raw"])
    def test_support_as_the_json_encoder_prints_it(self, capsys, regime):
        # well above the pinned (40, 60) supports: 30k outcomes
        argv = ["oracle", "--n", "120", "--m", "250", "--p", "0.3", "--s", "2",
                "--r", "1", *regime]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        params = ModelParams(n=120, m=250, p=0.3, s=2.0, r=1.0)
        dist = exact_distribution(params, Regime.case_ii(None) if regime else None)
        payload = {**json.loads(out), "support": [
            [f"{v:.17g}", f"{p:.17g}"]
            for v, p in zip(dist.values.tolist(), dist.probabilities.tolist())
        ]}
        assert len(payload["support"]) == 121 * 251
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_budget_exceeded_exit_3(self, capsys):
        code, _, err = run_cli(
            ["oracle", "--n", "20000", "--m", "20000", "--p", "0.5",
             "--s", "1", "--r", "1"],
            capsys,
        )
        assert code == 3
        assert "budget" in err

    def test_overflowing_variance_exit_2(self, capsys):
        argv = ["oracle", "--n", "100", "--m", "100", "--p", "0.5", "--s", "1",
                "--r", "1e300", "--regime", "case2"]
        assert_one_line_error(*run_cli(argv, capsys), "overflows")

    def test_non_finite_moments_exit_2(self, capsys):
        # x^1e300 overflows for every x >= 2, so the mean is inf and the variance NaN
        argv = ["oracle", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1e300",
                "--r", "1"]
        assert_one_line_error(*run_cli(argv, capsys), "exact moments are not finite")

    def test_overflow_only_at_zero_probability_exit_2(self, capsys):
        # the statistic overflows only at outcomes whose probability is +0.0
        argv = ["oracle", "--n", "1000", "--m", "1000", "--p", "0.5", "--s", "1",
                "--r", "120", "--regime", "case2"]
        assert_one_line_error(*run_cli(argv, capsys), "exact moments are not finite")


class TestBound:
    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--n", "10000", "--m", "10000", "--p", "0.5", "--s", "2",
             "--r", "1", "--regime", "case2", "--samples", "1000"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == BOUND_CSV_HEADER
        assert len(lines) == 2

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_exit_2(self, capsys, samples):
        argv = ["bound", "--n", "100", "--m", "100", "--p", "0.5", "--s", "2",
                "--r", "1", "--regime", "case2", "--samples", samples]
        assert_one_line_error(*run_cli(argv, capsys), f"samples must be >= 1, got {samples}")

    def test_over_memory_budget_exit_2_before_any_draw(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("draw_counts called")

        monkeypatch.setattr(runner, "draw_counts", no_draw)
        argv = ["bound", "--n", "1000", "--m", "1000", "--p", "0.5", "--s", "1",
                "--r", "1", "--regime", "case2", "--samples", "1000000000000"]
        assert_one_line_error(*run_cli(argv, capsys), "over the run memory budget")


@pytest.mark.parametrize("command", ["simulate", "bound", "sweep"])
@pytest.mark.parametrize("oversized", ["--n", "--m"])
def test_trial_counts_above_int64_exit_2(capsys, tmp_path, command, oversized):
    if command == "sweep":  # the oversized grid point comes last
        spec_file = tmp_path / "spec.json"
        spec = {**SPEC, "vary": oversized[2:],
                "grid": {"lo": 100, "hi": 1e23, "steps": 2}}
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_file)]
    else:
        sizes = {"--n": "100", "--m": "100", oversized: "100000000000000000000000"}
        argv = [command, *(v for kv in sizes.items() for v in kv), "--p", "0.5",
                "--s", "1", "--r", "1", "--regime", "case2", "--samples", "10"]
    assert_one_line_error(*run_cli(argv, capsys), "at most 2**63 - 1")


@pytest.mark.parametrize("command", ["limit", "oracle", "simulate", "bound"])
@pytest.mark.parametrize("n, m", [(1, 10**400), (10**400, 1)],
                         ids=["m_over_n_overflows", "m_over_n_underflows"])
def test_balanced_m_over_n_not_a_float_exit_2(capsys, command, n, m):
    # case2 without --alpha takes alpha = m/n, which is no positive float here
    argv = [command, "--n", str(n), "--m", str(m), "--p", "0.5", "--s", "1",
            "--r", "1", "--regime", "case2"]
    if command in ("simulate", "bound"):
        argv += ["--samples", "10"]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_error(code, out, err, "m/n")
    assert "alpha" not in err  # none was given


@pytest.mark.parametrize("command, regime, message", [
    ("limit", ["--regime", "case1"], "regime case1 does not take alpha"),
    ("oracle", [], "--alpha needs --regime case2"),
], ids=["regime_without_alpha", "no_regime"])
def test_alpha_that_would_be_ignored_exit_2(capsys, command, regime, message):
    argv = [command, "--n", "4", "--m", "6", "--p", "0.5", "--s", "2", "--r", "1",
            *regime, "--alpha", "3"]
    assert_one_line_error(*run_cli(argv, capsys), message)


SHARED_PARSER_COMMANDS = [
    ["limit", "--n", "40", "--m", "60", "--p", "0.5", "--s", "2", "--r", "1",
     "--regime", "case2"],
    ["oracle", "--n", "4", "--m", "6", "--p", "0.5", "--s", "2", "--r", "1"],
    ["bound", "--n", "1000", "--m", "1000", "--p", "0.5", "--s", "2", "--r", "1",
     "--regime", "case2", "--samples", "200"],
]


@pytest.mark.parametrize("model", [
    # p^(2(s-r)-1) underflows; only case 3 at r = s has an exact 0 variance
    ["--n", "1", "--m", "1", "--p", "1e-300", "--s", "30", "--r", "1",
     "--regime", "case3"],
    # (1 + alpha)^-(2(r+1)) underflows
    ["--n", "10", "--m", "10", "--p", "0.5", "--s", "2", "--r", "2",
     "--regime", "case2", "--alpha", "1e150"],
], ids=["prefactor", "balanced_alpha"])
@pytest.mark.parametrize("command", ["limit", "simulate"])
def test_underflowing_variance_exit_2(capsys, command, model):
    argv = [command, *model, *(["--samples", "100"] if command == "simulate" else [])]
    assert_one_line_error(*run_cli(argv, capsys), "underflows to 0")


def run_parser(argv, capsys):
    """Like ``run_cli`` for argument lists the parser itself ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv, message", [
    (["oracle", "--n", "abc", "--m", "2", "--p", "0.5", "--s", "1", "--r", "1"],
     "argument --n: invalid int value: 'abc'"),
    (["sweep", "--preset", "fig9z"], "argument --preset: invalid choice: 'fig9z'"),
    (["limit", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1", "--r", "1",
      "--regime", "case2", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["oracle", "--n", "3"], "the following arguments are required: --m, --p, --s, --r"),
    ([], "the following arguments are required: command"),
], ids=["malformed_int", "bad_choice", "unknown_flag", "missing_flags", "no_command"])
def test_parser_error_is_one_line_exit_2(capsys, argv, message):
    assert_one_line_error(*run_parser(argv, capsys), message)


@pytest.mark.parametrize("argv, usage", [
    (["--help"], "usage: binratio [-h]"),
    (["oracle", "--help"], "usage: binratio oracle [-h]"),
], ids=["top_level", "subcommand"])
def test_help_exits_0(capsys, argv, usage):
    code, out, err = run_parser(argv, capsys)
    assert code == 0
    assert out.startswith(usage)
    assert err == ""


def test_one_parser_serves_every_command(capsys):
    # each command alone, on a freshly built parser
    alone = []
    for argv in SHARED_PARSER_COMMANDS:
        _build_parser.cache_clear()
        alone.append(run_cli(argv, capsys))
    # then all of them on one parser, after it has rejected an argument list
    _build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--n", "forty"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    shared = [run_cli(argv, capsys) for argv in SHARED_PARSER_COMMANDS]
    assert _build_parser.cache_info().misses == 1
    assert shared == alone
    assert all(code == 0 for code, _, _ in shared)


GENERATOR_COMMANDS = [
    ["simulate", "--n", "1000", "--m", "1000", "--p", "0.5", "--s", "2", "--r", "1",
     "--regime", "case2", "--samples", "200"],
    ["sweep", "--preset", "fig3c", "--samples", "200", "--threads", "1"],
    ["sweep", "--preset", "fig3c", "--samples", "200", "--threads", "2"],
    ["bound", "--n", "1000", "--m", "1000", "--p", "0.5", "--s", "2", "--r", "1",
     "--regime", "case2", "--samples", "200"],
]


def test_each_command_drops_its_generator(monkeypatch):
    # a command builds its thread's generator once and drops it at its end;
    # a sweep draws only on its pool threads, at any thread count
    main_thread_builds = []
    make = sampling.make_generator

    def counting(seed):
        if threading.current_thread() is threading.main_thread():
            main_thread_builds.append(seed)
        return make(seed)

    monkeypatch.setattr(sampling, "make_generator", counting)
    for argv, builds in zip(GENERATOR_COMMANDS, [1, 0, 0, 1]):
        main_thread_builds.clear()
        assert main(argv) == 0
        assert len(main_thread_builds) == builds, argv
        assert getattr(sampling._thread, "generator", None) is None, argv


@pytest.mark.parametrize("argv", [
    ["limit", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1", "--r", "1",
     "--regime", "case3"],
    GENERATOR_COMMANDS[0],
    GENERATOR_COMMANDS[1],
    ["oracle", "--n", "40", "--m", "60", "--p", "0.5", "--s", "2", "--r", "1",
     "--regime", "case2"],
    GENERATOR_COMMANDS[3],
], ids=["limit", "simulate", "sweep", "oracle", "bound"])
def test_no_command_loads_scipy(argv):
    script = ("import io, sys\nfrom contextlib import redirect_stdout\n"
              "from binratio.cli import main\n"
              "with redirect_stdout(io.StringIO()):\n    code = main(sys.argv[1:])\n"
              "print(code, 'scipy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, timeout=120,
                            env=CHILD_ENV)
    assert result.stdout == "0 False\n"


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "fig3c", "--samples", "200"],
    ["oracle", "--n", "40", "--m", "60", "--p", "0.5", "--s", "2", "--r", "1"],
    ["limit", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1", "--r", "1",
     "--regime", "case3"],
])
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the command starts, so its first write
    # to stdout fails, as it does under ``| head -1``
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "binratio.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == ""


NON_FINITE_SPEC = {
    "base": {"n": 100, "m": 100, "p": 0.5, "s": 10000, "r": 10000},
    "regime": {"kind": "case3"}, "vary": "p", "grid": [0.5, 0.6], "samples": 200,
}


@pytest.mark.parametrize("argv, message", [
    (["bound", "--n", "1000", "--m", "1000", "--p", "0.5", "--s", "1e6", "--r", "1e6",
      "--regime", "case3"], "bound diagnostics are not finite"),
    (["oracle", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1e300", "--r", "1"],
     "exact moments are not finite"),
    (["simulate", "--n", "100", "--m", "100", "--p", "0.5", "--s", "10000", "--r",
      "10000", "--regime", "case3", "--samples", "200"],
     "simulated sample holds a non-finite value"),
    (["sweep", "--spec", "SPEC", "--threads", "2"],
     "simulated sample holds a non-finite value"),
], ids=["bound", "oracle", "simulate", "sweep_threads_2"])
def test_non_finite_result_one_stderr_line(argv, message, tmp_path):
    # a subprocess, so that numpy warnings reach stderr as they do outside pytest
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(NON_FINITE_SPEC), encoding="utf-8")
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    result = subprocess.run([sys.executable, "-m", "binratio.cli", *argv],
                            capture_output=True, text=True, timeout=120,
                            env=CHILD_ENV)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert message in result.stderr


@pytest.mark.parametrize("name", runner.PRESET_NAMES)
def test_every_preset_exits_0_with_empty_stderr(name):
    code, out, err_lines = run_in_process(
        ["sweep", "--preset", name, "--samples", "200", "--bins", "10"])
    assert (code, err_lines) == (0, [])
    assert out.startswith(SWEEP_CSV_HEADER + "\n")


def test_invalid_sweep_setting_fails_before_any_run(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(runner, "run_single", lambda *args, **kw: ran.append(args))
    argv = ["sweep", "--preset", "fig3c", "--bins", "1", "--threads", "2"]
    assert_one_line_error(*run_cli(argv, capsys), "bins must be >= 2")
    assert ran == []


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "binratio.cli", "limit", "--n", "10", "--m", "10",
         "--p", "0.5", "--s", "1", "--r", "1", "--regime", "case3"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["variance"] == "0"


# p, s and r reach the ends of the float range: subnormals, the smallest
# normal, 1e-300, 1e155 (whose square overflows) and 1e308
EDGE_REALS = (5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-160, 1e-16,
              0.5, 1.0, 2.0, 15.0, 300.0, 1e155, 1e300, 1e308)
EDGE_PROBABILITIES = (5e-324, 1e-320, 1e-300, 1e-16, 0.01, 0.5, 0.999, 1 - 2**-53)
REGIMES = ("case1", "case2", "case3", "collapse")
# a printed number, or a non-finite float as repr or json would print it
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|Infinity|nan|NaN)\b")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("limit", "simulate", "oracle", "bound")))
    if command == "oracle":
        sizes = st.integers(1, 60)  # every outcome is enumerated
    else:
        sizes = st.one_of(st.integers(1, 100), st.integers(1, 2**63 + 1))
    reals = st.one_of(st.sampled_from(EDGE_REALS), st.floats(min_value=0.0))
    probabilities = st.one_of(st.sampled_from(EDGE_PROBABILITIES),
                              st.floats(0.0, 1.0))
    argv = [command, "--n", str(draw(sizes)), "--m", str(draw(sizes)),
            "--p", repr(draw(probabilities)),
            "--s", repr(draw(reals)), "--r", repr(draw(reals))]
    regime = draw(st.sampled_from(REGIMES + ((None,) if command == "oracle" else ())))
    if regime is not None:
        argv += ["--regime", regime]
    if command in ("simulate", "bound"):
        argv += ["--samples", str(draw(st.integers(1, 200)))]
    return argv


def run_in_process(argv):
    """Exit code, stdout and stderr of ``main(argv)``; a warning counts as stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser rejected argv or printed --help
                code = exc.code
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    return code, out.getvalue(), lines


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv())
# (s - r)**2 overflows in the case 3 variance
@example(argv=["limit", "--n", "1000", "--m", "10", "--p", "0.5", "--s", "1e300",
               "--r", "1", "--regime", "case3"])
# the numerator of the balanced variance underflows to 0 before its log
@example(argv=["oracle", "--n", "2", "--m", "300", "--p", "0.5", "--s", "1e-320",
               "--r", "1e-300", "--regime", "case2"])
@example(argv=["bound", "--n", "16", "--m", "3", "--p", "1e-300", "--s", "1e-300",
               "--r", "1e-320", "--regime", "case2", "--samples", "1"])
# x*(x+y) at the mean point underflows to 0 in the gradient
@example(argv=["bound", "--n", "16", "--m", "2000000000", "--p", "1e-300",
               "--s", "1e-300", "--r", "1e-160", "--regime", "collapse",
               "--samples", "1000"])
# numpy's quantile warns on a sample holding inf
@example(argv=["bound", "--n", "1", "--m", "242629059", "--p", "0.01",
               "--s", "2001000000.0", "--r", "2001000000.0", "--regime", "case1",
               "--samples", "31"])
# r*log(t) overflows in the raw oracle's table, where R is then 0
@example(argv=["oracle", "--n", "2", "--m", "16", "--p", "0.5", "--s", "1",
               "--r", "1e308"])
# the parser's own errors: a malformed int, a bad choice, an unknown flag and
# no subcommand; --help still exits 0
@example(argv=["oracle", "--n", "abc", "--m", "2", "--p", "0.5", "--s", "1",
               "--r", "1"])
@example(argv=["sweep", "--preset", "fig9z"])
@example(argv=["limit", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1",
               "--r", "1", "--regime", "case2", "--bogus", "1"])
@example(argv=[])
@example(argv=["--help"])
@example(argv=["oracle", "--help"])
def test_any_input_gives_finite_output_or_one_error_line(argv):
    assert_finite_output_or_one_error_line(argv)


def assert_finite_output_or_one_error_line(argv):
    code, out, err_lines = run_in_process(argv)
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert len(err_lines) == 1 and err_lines[0].startswith("error: ")
    else:
        assert err_lines == []
        assert all(math.isfinite(float(v)) for v in NUMBER.findall(out))


@st.composite
def sweep_spec(draw):
    """A spec file's content: edge values, at most 3 points and 200 samples.

    A grid given by its ends may also take integer ends up to 2**70 in size.
    """
    reals = st.sampled_from(EDGE_REALS)
    probabilities = st.sampled_from(EDGE_PROBABILITIES)
    sizes = st.one_of(st.integers(1, 100), st.integers(1, 2**63 + 1))
    vary = draw(st.sampled_from(("p", "s", "r", "m", "n")))
    values = {"p": probabilities, "m": sizes, "n": sizes}.get(vary, reals)
    ends = st.one_of(values, st.integers(-2**70, 2**70))  # beyond int64 and uint64 too
    steps = st.one_of(st.integers(1, 3), st.just(10**11))
    regime = {"kind": draw(st.sampled_from(REGIMES))}
    if regime["kind"] == "case2" and draw(st.booleans()):
        regime["alpha"] = draw(reals)
    spec = {
        "base": {"n": draw(sizes), "m": draw(sizes), "p": draw(probabilities),
                 "s": draw(reals), "r": draw(reals)},
        "regime": regime,
        "vary": vary,
        "grid": draw(st.one_of(
            st.lists(values, min_size=1, max_size=3),
            st.fixed_dictionaries({"lo": ends, "hi": ends, "steps": steps}),
        )),
        "samples": draw(st.integers(1, 200)),
        "replicates_per_point": draw(st.one_of(st.just(1), st.just(10**9))),
    }
    optional = {
        "bins": st.integers(2, 100),
        "direction": st.sampled_from(("forward", "reversed", "auto")),
        "master_seed": st.integers(0, 2**64),
    }
    for key, strategy in optional.items():
        if draw(st.booleans()):
            spec[key] = draw(strategy)
    return spec


ONE_POINT_SPEC = {**SPEC, "grid": [1.0], "samples": 200}
HUGE = 10**400  # a JSON integer no float can hold


@settings(max_examples=100, deadline=None)
@given(spec=sweep_spec(),
       threads=st.one_of(st.integers(1, 2), st.just(runner.MAX_THREADS + 1),
                         st.just(10**18)))
# a sweep too large to hold: np.linspace and the task list used to run out of memory
@example(spec={**ONE_POINT_SPEC, "grid": {"lo": 0.1, "hi": 0.9, "steps": 100000000000}},
         threads=1)
@example(spec={**ONE_POINT_SPEC, "replicates_per_point": 1000000000},
         threads=1)
@example(spec=ONE_POINT_SPEC, threads=runner.MAX_THREADS + 1)
# settings of the wrong type, which SweepSpec rejects
@example(spec={**ONE_POINT_SPEC, "samples": True}, threads=1)
@example(spec={**ONE_POINT_SPEC, "replicates_per_point": "2"}, threads=1)
# integers beyond float range, where a float conversion used to overflow
@example(spec={**SPEC, "base": {**SPEC["base"], "s": HUGE}}, threads=1)
@example(spec={**SPEC, "base": {**SPEC["base"], "s": 1, "r": 1}, "grid": [1, 2],
               "regime": {"kind": "case2", "alpha": HUGE}}, threads=1)
@example(spec={**SPEC, "vary": "m", "grid": [100, HUGE]}, threads=1)
@example(spec={**SPEC, "grid": {"lo": HUGE, "hi": 2, "steps": 2}}, threads=1)
# hi - lo overflows inside np.linspace
@example(spec={**SPEC, "grid": {"lo": 1e308, "hi": -1e308, "steps": 3}}, threads=1)
# integer ends beyond int64 and uint64, which np.linspace used to take as objects
@example(spec={"base": {"n": 1000, "m": 1000, "p": 0.5, "s": 2.0, "r": 1.0},
               "regime": {"kind": "case1"}, "vary": "r",
               "grid": {"lo": 0.5, "hi": 2**64, "steps": 1}, "samples": 54}, threads=1)
@example(spec={**SPEC, "vary": "s", "grid": {"lo": -2**64, "hi": 2, "steps": 2}},
         threads=1)
def test_any_sweep_spec_gives_finite_output_or_one_error_line(spec, threads,
                                                               tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "property_spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["sweep", "--spec", str(path), "--threads", str(threads)]
    assert_finite_output_or_one_error_line(argv)
