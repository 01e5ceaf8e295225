"""Record the benchmark of one source checkout as BENCH_<short-commit>.json.

Usage (from the root of a source checkout):

    python3 tools/bench_record.py [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout (this one by default) for every
workload in its ``BENCHMARK.json``, at seed 0 for the ``run_seconds`` that
file sets, once with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), one run at a time, and writes each run's
result and provenance, as run.py prints them, to
``BENCH_<short-commit>.json`` at the root of this repository. A checkout
whose tracked files differ from its HEAD is recorded as
``<short-commit>-<first 7 hex digits of src_sha256>``, the digest of the
sources it measured, so records of different uncommitted trees on one
commit keep apart.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    name = record_name(checkout, runs[0]["provenance"]["src_sha256"])
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps({"commit": name, "runs": runs}, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
