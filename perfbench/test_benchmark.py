"""Self-test of the benchmark on reduced (one-second) runs.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SWEEPS = {"exponent_sweep", "small_batch_sweep"}
DRAWS = SWEEPS | {"oracle_moments"}  # the bound commands draw X and Y too

# Per-layer metric prefix -> workloads on which it must be nonzero; it must
# be zero on every other workload. Unlisted metrics are nonzero everywhere.
APPLIES = {
    "runner.run_single.": SWEEPS,
    "runner.pool_efficiency": SWEEPS,
    "sampling.draw_binomial.": DRAWS,
    "sampling.make_generator.": DRAWS,
    "sampling.reference_normal_batch.": SWEEPS,
    "sampling.simulate_batch.": SWEEPS,
    "divergence.": SWEEPS,
    "oracle.": {"oracle_moments"},
    "calculus.": {"oracle_moments"},
}
# Differences of two timings may read zero or negative.
SIGNED = {"trace.overhead_frac"}
REPEATED_COUNTS = (
    "model.limit_law.calls",
    "sampling.make_generator.calls",
    "oracle.evals_per_outcome",
)

@functools.cache
def bench(workload: str, trace: int, attempt: int = 0) -> dict:
    """Result of one reduced run; ``attempt`` tells repeated runs apart."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _applies(metric: str, workload: str) -> bool:
    for prefix, names in APPLIES.items():
        if metric.startswith(prefix):
            return workload in names
    return True


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_reported_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if metric["name"] in SIGNED:
            continue
        if _applies(metric["name"], workload):
            assert reported["value"] > 0, metric["name"]
        else:
            assert reported["value"] == 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_between_traced_runs(workload):
    first, second = bench(workload, 1), bench(workload, 1, attempt=1)
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOAD_NAMES[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(ROOT / "src"))
    import binratio.cli
    import binratio.runner

    before = {
        (module.__name__, name): obj
        for module in (binratio.cli, binratio.runner)
        for name, obj in vars(module).items()
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert binratio.runner.simulate_batch is not before[("binratio.runner", "simulate_batch")]
        assert binratio.cli.run_sweep is not before[("binratio.cli", "run_sweep")]
    finally:
        assert tracer.restore() == []
    after = {
        (module.__name__, name): obj
        for module in (binratio.cli, binratio.runner)
        for name, obj in vars(module).items()
    }
    assert after == before
