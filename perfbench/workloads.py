"""The benchmark's workloads: binratio CLI argument lists and their output checks.

Each workload is a fixed list of CLI commands generated from the seed; one
pass runs all of them. Outputs are checked against ``golden.json``, which
holds the values the commands print at seed 0 (the CLI's default seed):

- sweep CSV: sha256 of the text with the ``wall_time_ms`` column removed;
  at any other seed only the row count, the columns and finiteness;
- oracle JSON: ``mean``, ``variance`` and ``probability_total`` within
  1e-12 relative at every seed (the oracle takes no seed), and no support
  above the support limit;
- bound CSV: the requested sizes and finite values.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
ORACLE_RTOL = 1e-12
ORACLE_KEYS = ("mean", "variance", "probability_total")
SWEEP_HEADER = (
    "varied_param,varied_value,kl,direction,smoothed_bins,"
    "zero_denominator_count,seed,wall_time_ms"
)
BOUND_HEADER = "n,m,bound,q50,q99,q100"
SWEEP_SAMPLES = 100_000  # the CLI default
BOUND_SAMPLES = 10_000  # the CLI default


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must look like."""

    argv: tuple[str, ...]
    kind: str  # "sweep", "oracle" or "bound"
    threads: int = 1
    pairs: int = 0  # (x, y) pairs whose statistic the command computes
    rows: int = 0  # sweep CSV data rows

    def normalized(self, text: str) -> str:
        """Output with the run-time column removed, for byte comparison."""
        if self.kind != "sweep":
            return text
        return "\n".join(line.rsplit(",", 1)[0] for line in text.split("\n"))

    def check(self, text: str, seed: int, golden: dict | None) -> list[str]:
        """Problems found in the command's output; empty when it is correct."""
        try:
            return getattr(self, f"_check_{self.kind}")(text, seed, golden or {})
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparsable output: {exc!r}"]

    def _check_sweep(self, text, seed, golden):
        lines = text.split("\n")
        if lines[0] != SWEEP_HEADER or lines[-1] != "":
            return ["bad sweep header or line ending"]
        rows = [line.split(",") for line in lines[1:-1]]
        problems = []
        if len(rows) != self.rows:
            problems.append(f"{len(rows)} sweep rows, expected {self.rows}")
        for row in rows:
            if len(row) != 8 or not all(math.isfinite(float(row[i])) for i in (1, 2, 7)):
                problems.append(f"bad sweep row {row}")
                break
            if row[6].split(":")[0] != str(seed):
                problems.append(f"row seeded {row[6]}, expected master seed {seed}")
                break
        if seed == DEFAULT_SEED:
            digest = hashlib.sha256(self.normalized(text).encode()).hexdigest()
            if digest != golden["sha256"]:
                problems.append(f"sweep sha256 {digest} != stored {golden['sha256']}")
        return problems

    def _check_oracle(self, text, seed, golden):
        payload = json.loads(text)
        problems = []
        for key in ORACLE_KEYS:
            got, want = float(payload[key]), float(golden[key])
            if not abs(got - want) <= ORACLE_RTOL * abs(want):
                problems.append(f"oracle {key} {got!r} != stored {want!r}")
        if "support" in payload:
            problems.append("support printed above the support limit")
        return problems

    def _check_bound(self, text, seed, golden):
        lines = text.split("\n")
        if lines[0] != BOUND_HEADER or len(lines) != 3 or lines[2] != "":
            return ["bad bound table"]
        row = lines[1].split(",")
        want = [self.argv[self.argv.index("--n") + 1], self.argv[self.argv.index("--m") + 1]]
        problems = []
        if row[:2] != want:
            problems.append(f"bound row for {row[:2]}, expected {want}")
        if len(row) != 6 or not all(math.isfinite(float(v)) for v in row[2:]):
            problems.append(f"non-finite bound row {row}")
        return problems


def _sweep_preset(name: str, seed: int) -> Command:
    return Command(
        argv=("sweep", "--preset", name, "--seed", str(seed), "--threads", "2"),
        kind="sweep",
        threads=2,
        pairs=30 * SWEEP_SAMPLES,
        rows=30,
    )


def _bound(size: int, seed: int) -> Command:
    return Command(
        argv=("bound", "--n", str(size), "--m", str(size), "--p", "0.5",
              "--s", "15", "--r", "15", "--regime", "case2", "--seed", str(seed)),
        kind="bound",
        pairs=BOUND_SAMPLES,
    )


def exponent_sweep(seed: int, workdir: Path) -> list[Command]:
    # Collapse/reversed-KL, balanced and light-denominator exponent sweeps at
    # 100k samples on two threads: Binomial draws dominate, and they do not
    # depend on the swept exponent.
    return [_sweep_preset(name, seed) for name in ("fig1b", "fig3c", "fig4b")]


SMALL_POINTS, SMALL_REPLICATES, SMALL_SAMPLES = 25, 40, 2000


def small_batch_sweep(seed: int, workdir: Path) -> list[Command]:
    # 1000 runs of 2000 samples over a p grid, single-threaded: fixed per-run
    # costs dominate and the draws change at every point.
    spec = {
        "base": {"n": 3_800_000, "m": 1_100_000_000, "p": 0.5, "s": 15.0, "r": 15.0},
        "regime": {"kind": "case1"},
        "vary": "p",
        "grid": {"lo": 0.05, "hi": 0.95, "steps": SMALL_POINTS},
        "replicates_per_point": SMALL_REPLICATES,
        "samples": SMALL_SAMPLES,
        "master_seed": seed,
    }
    path = workdir / f"small_batch_sweep-seed{seed}.spec.json"
    path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    runs = SMALL_POINTS * SMALL_REPLICATES
    return [
        Command(
            argv=("sweep", "--spec", str(path), "--threads", "1"),
            kind="sweep",
            pairs=runs * SMALL_SAMPLES,
            rows=runs,
        )
    ]


def oracle_moments(seed: int, workdir: Path) -> list[Command]:
    # 3.85M outcomes, above the support limit, so only moments are printed;
    # then the remainder bound at n = m = 1e3 .. 1e7, the only calculus use.
    oracle = Command(
        argv=("oracle", "--n", "1600", "--m", "2400", "--p", "0.5",
              "--s", "2", "--r", "1", "--regime", "case2"),
        kind="oracle",
        pairs=1601 * 2401,
    )
    return [oracle] + [_bound(10**k, seed) for k in range(3, 8)]


WORKLOADS = {
    "exponent_sweep": exponent_sweep,
    "small_batch_sweep": small_batch_sweep,
    "oracle_moments": oracle_moments,
}

_TINY = ("--p", "0.5", "--s", "2", "--r", "1", "--regime", "case2")


def setup_command(workload: str, seed: int) -> tuple[str, ...]:
    """The first tiny command a fresh interpreter runs when timing set-up."""
    if workload.endswith("sweep"):
        return ("simulate", "--n", "1000", "--m", "1000", *_TINY,
                "--samples", "1000", "--seed", str(seed))
    return ("oracle", "--n", "16", "--m", "24", *_TINY)
