"""Record the benchmark of one source checkout as BENCH_<short-commit>.json.

Usage (from the root of a source checkout):

    python3 tools/bench_record.py [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout (this one by default) for every
workload in its ``BENCHMARK.json``, at seed 0 for the ``run_seconds`` that
file sets, once with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), one run at a time, then runs the
checkout's Tier-1 tests once (``python -m pytest -q`` with ``PYTHONPATH=src``),
then times the checkout's ``oracle`` command at the sizes of
``ORACLE_SIZES`` (three runs each, median kept, in one interpreter warmed by a
tiny oracle first). It writes each run's result and provenance, as run.py
prints them, the tests' wall seconds, passed and failed counts and exit code,
and the oracle wall seconds to ``BENCH_<short-commit>.json`` at the root of
this repository. A checkout whose tracked files differ from its HEAD is
recorded as ``<short-commit>-<first 7 hex digits of src_sha256>``, the digest
of the sources it measured, so records of different uncommitted trees on one
commit keep apart.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (640, 960) prints its support, so JSON formatting bounds it; the other two
# are above the support limit and print moments only.
ORACLE_SIZES = ((640, 960), (1600, 2400), (5000, 5000))
ORACLE_RUNS = 3

_ORACLE_TIMER = """\
import json, os, statistics, sys, time
sys.path.insert(0, "src")
from binratio.cli import main

def oracle(n, m):
    argv = ["oracle", "--n", str(n), "--m", str(m), "--p", "0.5", "--s", "2",
            "--r", "1", "--regime", "case2", "--out", os.devnull]
    start = time.perf_counter()
    if main(argv) != 0:
        sys.exit(f"oracle at ({n}, {m}) failed")
    return time.perf_counter() - start

oracle(16, 24)
sizes, runs = json.loads(sys.argv[1]), int(sys.argv[2])
rows = []
for n, m in sizes:
    times = [oracle(n, m) for _ in range(runs)]
    rows.append({"n": n, "m": m, "outcomes": (n + 1) * (m + 1),
                 "runs_s": times, "median_s": statistics.median(times)})
print(json.dumps(rows))
"""


def _git(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)


def record_name(checkout: Path, src_sha256: str) -> str:
    head = _git(checkout, "rev-parse", "--short=7", "HEAD")
    if head.returncode != 0:
        raise SystemExit(f"error: {checkout} is not a git checkout: "
                         f"{head.stderr.strip()}")
    dirty = _git(checkout, "diff", "--quiet", "HEAD").returncode != 0
    return head.stdout.strip() + (f"-{src_sha256[:7]}" if dirty else "")


def run_workload(checkout: Path, workload: str, trace: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {workload} --trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    provenance, result = (json.loads(line) for line in lines[-2:])
    return {"provenance": provenance["provenance"], "result": result}


def run_tier1(checkout: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q"], cwd=checkout,
        env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
    )
    wall_s = time.perf_counter() - start
    summary = proc.stdout.strip().rsplit("\n", 1)[-1]  # "2 failed, 386 passed in 20.3s"
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"wall_s": wall_s, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0), "exit_code": proc.returncode}


def run_oracle_scaling(checkout: Path) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_TIMER, json.dumps(ORACLE_SIZES),
         str(ORACLE_RUNS)],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: oracle scaling exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            run = run_workload(checkout, workload, trace, spec["run_seconds"])
            runs.append(run)
            print(f"{workload} --trace {trace}: correct={run['result']['correct']}",
                  file=sys.stderr)
    tier1 = run_tier1(checkout)
    print(f"tier1: {tier1['passed']} passed, {tier1['failed']} failed "
          f"in {tier1['wall_s']:.1f} s", file=sys.stderr)
    oracle_scaling = run_oracle_scaling(checkout)
    for row in oracle_scaling:
        print(f"oracle ({row['n']}, {row['m']}): {row['median_s']:.3f} s",
              file=sys.stderr)
    name = record_name(checkout, runs[0]["provenance"]["src_sha256"])
    path = ROOT / f"BENCH_{name}.json"
    record = {"commit": name, "runs": runs, "tier1": tier1,
              "oracle_scaling": oracle_scaling}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
