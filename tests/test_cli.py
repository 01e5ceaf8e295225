import json
import math
import os
import subprocess
import sys
import threading

import pytest

from binratio import sampling
from binratio.cli import BOUND_CSV_HEADER, SWEEP_CSV_HEADER, _build_parser, main


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

    # numpy's overflow warnings are left to the finite-output work
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_statistic_exit_2(self, capsys):
        # x^10000 overflows where x > np, and the statistic there is NaN
        argv = ["simulate", "--n", "100", "--m", "100", "--p", "0.5", "--s", "10000",
                "--r", "1", "--regime", "case3", "--samples", "200"]
        assert_one_line_error(
            *run_cli(argv, capsys), "simulated sample holds a non-finite value"
        )

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

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run_cli(["sweep"], capsys)
        assert code == 2

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
            ({**SPEC, "vary": "m", "grid": [1.0, "x"]}, "m must be a positive integer"),
            ({**SPEC, "vary": "n", "grid": [math.nan]}, "n must be a positive integer"),
            ({**SPEC, "samples": "abc"}, "'samples' must be an integer"),
            ({**SPEC, "samples": True}, "'samples' must be an integer"),
            ({**SPEC, "grid": 5}, "grid must be a JSON list or object"),
            ({**SPEC, "grid": {"lo": 1, "hi": 2, "steps": "a"}}, "'steps' must be"),
            ({**SPEC, "grid": {"lo": 1, "hi": 2, "steps": -2}}, "'steps' must be"),
            ({**SPEC, "grid": {"lo": "a", "hi": 2, "steps": 2}}, "'lo' must be"),
            ({**SPEC, "regime": {"kind": "case2", "alpha": "x"}}, "got 'x'"),
            ({**SPEC, "bins": None}, "'bins' must be an integer"),
        ],
        ids=["list", "base-key", "top-key", "base-missing", "regime-str",
             "regime-key", "grid-missing", "direction", "p-str", "grid-str",
             "grid-m-str", "grid-n-nan", "samples-str", "samples-bool", "grid-int",
             "steps-str", "steps-negative", "lo-str", "alpha-str", "bins-null"],
    )
    def test_strict_spec_exit_2(self, capsys, tmp_path, spec, message):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        argv = ["sweep", "--spec", str(spec_file)]
        assert_one_line_error(*run_cli(argv, capsys), message)

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

    # numpy's overflow warnings are left to the finite-output work
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_moments_exit_2(self, capsys):
        # x^1e300 overflows for every x >= 2, so the mean is inf and the variance NaN
        argv = ["oracle", "--n", "10", "--m", "10", "--p", "0.5", "--s", "1e300",
                "--r", "1"]
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
        assert_one_line_error(*run_cli(argv, capsys), "count must be >= 1")


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
    # a sweep on two threads draws only on its pool threads
    main_thread_builds = []
    make = sampling.make_generator

    def counting(seed):
        if threading.current_thread() is threading.main_thread():
            main_thread_builds.append(seed)
        return make(seed)

    monkeypatch.setattr(sampling, "make_generator", counting)
    for argv, builds in zip(GENERATOR_COMMANDS, [1, 1, 0, 1]):
        main_thread_builds.clear()
        assert main(argv) == 0
        assert len(main_thread_builds) == builds, argv
        assert getattr(sampling._thread, "generator", None) is None, argv


@pytest.mark.parametrize("argv, loads_scipy", [
    (GENERATOR_COMMANDS[0], False),
    (["oracle", "--n", "4", "--m", "6", "--p", "0.5", "--s", "2", "--r", "1"], True),
], ids=["simulate", "oracle"])
def test_scipy_loaded_only_by_the_oracle(argv, loads_scipy):
    script = ("import sys\nfrom binratio.cli import main\nmain(sys.argv[1:])\n"
              "print('scipy' in sys.modules, file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", script, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert result.stderr == f"{loads_scipy}\n"


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
        )
    finally:
        os.close(write_end)
    assert result.returncode == 0
    assert result.stderr == ""


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "binratio.cli", "limit", "--n", "10", "--m", "10",
         "--p", "0.5", "--s", "1", "--r", "1", "--regime", "case3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["variance"] == "0"
