"""tools/bench_record.py's Tier-1 record with the test run stubbed: the passed,
failed and error counts are read from the summary line."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def test_tier1_records_passed_failed_and_errors(monkeypatch, tmp_path):
    calls = []

    def run(argv, cwd, env, **kwargs):
        calls.append((argv[1:], cwd, env["PYTHONPATH"]))
        stdout = "..F.F.....\nERROR tests/test_a.py\n2 failed, 630 passed, 3 errors in 21.0s\n"
        return subprocess.CompletedProcess(argv, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    tier1 = bench_record.run_tier1(tmp_path)
    assert calls == [(["-m", "pytest", "-q", "--continue-on-collection-errors"],
                      tmp_path, "src")]
    assert {key: tier1[key] for key in ("passed", "failed", "errors", "exit_code")} == {
        "passed": 630, "failed": 2, "errors": 3, "exit_code": 1}
