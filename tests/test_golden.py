"""Golden gate: every preset's sweep CSV at 2000 samples, pinned by sha256.

The hash covers the CSV with the ``wall_time_ms`` column removed, so it pins
the draws (``Generator.binomial`` and ``Generator.normal`` streams), the
standardization, the binning and the KL bit for bit. Two ``simulate``
reports, and one output each of ``limit``, ``oracle`` (standardized and raw,
support printed; two more standardized, moments only) and ``bound``, are
pinned the same way. numpy may change its
streams between versions (NEP 19); when it does, this test fails for every
preset instead of letting "bitwise reproducible" results drift silently.

Regenerate after a deliberate, documented change with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from binratio.cli import main
from binratio.runner import PRESET_NAMES

GOLDEN_PATH = Path(__file__).with_name("golden_presets.json")
SAMPLES = 2000


def preset_digest(name: str, out_file: Path) -> str:
    """sha256 of ``sweep --preset name --samples 2000`` without wall_time_ms."""
    code = main(["sweep", "--preset", name, "--samples", str(SAMPLES),
                 "--out", str(out_file)])
    assert code == 0
    text = out_file.read_text(encoding="utf-8")
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in text.split("\n"))
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()


# simulate reports (histograms included), pinned the same way
SIMULATE_ARGV = {
    "case2": ["--n", "100000", "--m", "100000", "--p", "0.5", "--s", "2",
              "--r", "1", "--regime", "case2", "--seed", "5"],
    "collapse": ["--n", "200000", "--m", "2000000000", "--p", "0.5", "--s", "15",
                 "--r", "15", "--regime", "collapse", "--seed", "1"],
}


def simulate_digest(case: str, out_file: Path) -> str:
    """sha256 of a ``simulate`` JSON report without its wall_time_ms line."""
    argv = ["simulate", *SIMULATE_ARGV[case], "--samples", str(SAMPLES),
            "--out", str(out_file)]
    assert main(argv) == 0
    lines = out_file.read_text(encoding="utf-8").split("\n")
    kept = [line for line in lines if not line.startswith('  "wall_time_ms": ')]
    assert len(kept) == len(lines) - 1
    return hashlib.sha256("\n".join(kept).encode("utf-8")).hexdigest()


# limit, oracle and bound outputs, pinned whole (they carry no timing)
COMMAND_ARGV = {
    "limit_case3": ["limit", "--n", "1100000000", "--m", "3800000", "--p", "0.5",
                    "--s", "16", "--r", "15", "--regime", "case3"],
    "oracle_case2": ["oracle", "--n", "40", "--m", "60", "--p", "0.5", "--s", "2",
                     "--r", "1", "--regime", "case2"],
    "oracle_raw": ["oracle", "--n", "40", "--m", "60", "--p", "0.5", "--s", "2",
                   "--r", "1"],
    # moments only: most enumeration blocks have no outcome with a nonzero
    # probability, and at p = 0.999 the nonzero ones sit at the right edge
    "oracle_dead_blocks": ["oracle", "--n", "20000", "--m", "300", "--p", "0.01",
                           "--s", "2", "--r", "1", "--regime", "case2"],
    "oracle_right_edge": ["oracle", "--n", "3000", "--m", "2000", "--p", "0.999",
                          "--s", "2", "--r", "1", "--regime", "case2"],
    "bound_case2": ["bound", "--n", "100000", "--m", "100000", "--p", "0.5",
                    "--s", "15", "--r", "15", "--regime", "case2"],
}


def command_digest(case: str, out_file: Path) -> str:
    """sha256 of the whole output of one ``COMMAND_ARGV`` command."""
    assert main([*COMMAND_ARGV[case], "--out", str(out_file)]) == 0
    return hashlib.sha256(out_file.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_preset(golden):
    assert sorted(golden["sha256"]) == sorted(PRESET_NAMES)
    assert sorted(golden["simulate_sha256"]) == sorted(SIMULATE_ARGV)
    assert sorted(golden["command_sha256"]) == sorted(COMMAND_ARGV)
    assert golden["samples"] == SAMPLES


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_csv_matches_golden(name, tmp_path, golden):
    got = preset_digest(name, tmp_path / f"{name}.csv")
    assert got == golden["sha256"][name], (
        f"{name}: sweep CSV changed (golden made with numpy "
        f"{golden['numpy_version']}, running numpy {np.__version__})"
    )


@pytest.mark.parametrize("case", sorted(SIMULATE_ARGV))
def test_simulate_report_matches_golden(case, tmp_path, golden):
    got = simulate_digest(case, tmp_path / f"{case}.json")
    assert got == golden["simulate_sha256"][case], (
        f"simulate {case}: report changed (golden made with numpy "
        f"{golden['numpy_version']}, running numpy {np.__version__})"
    )


@pytest.mark.parametrize("case", sorted(COMMAND_ARGV))
def test_command_output_matches_golden(case, tmp_path, golden):
    got = command_digest(case, tmp_path / f"{case}.out")
    assert got == golden["command_sha256"][case], (
        f"{case}: output changed (golden made with numpy "
        f"{golden['numpy_version']}, running numpy {np.__version__})"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: preset_digest(name, Path(tmp) / "out.csv")
                   for name in PRESET_NAMES}
        simulate = {case: simulate_digest(case, Path(tmp) / "out.json")
                    for case in sorted(SIMULATE_ARGV)}
        commands = {case: command_digest(case, Path(tmp) / "out.txt")
                    for case in sorted(COMMAND_ARGV)}
    payload = {"numpy_version": np.__version__, "samples": SAMPLES,
               "sha256": digests, "simulate_sha256": simulate,
               "command_sha256": commands}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    total = len(digests) + len(simulate) + len(commands)
    sys.stdout.write(f"wrote {total} digests to {GOLDEN_PATH}\n")
