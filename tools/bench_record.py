"""Record the benchmark of one source checkout as BENCH_<short-commit>.json.

Usage (from the root of a source checkout):

    python3 tools/bench_record.py [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout (this one by default) for every
workload in its ``BENCHMARK.json``, at seed 0 for the ``run_seconds`` that
file sets, once with ``--trace 0`` (end-to-end metrics) and once with
``--trace 1`` (per-layer metrics), one run at a time, then runs the
checkout's Tier-1 tests once (``python -m pytest -q`` with ``PYTHONPATH=src``),
then times the checkout's ``oracle`` command at the sizes and regimes of
``ORACLE_SIZES`` (three runs each, median kept, in one interpreter warmed by a
tiny oracle first), then measures a run's memory (``run_memory``): the
tracemalloc peak of ``run_single`` per sample for each of
``RUN_MEMORY_CASES``, in one interpreter, and the peak RSS of ``simulate`` at
each of ``RSS_SAMPLES`` samples in fresh interpreters (``RSS_RUNS`` each,
median kept) with its growth per sample between the two sizes, then times
``sweep --preset NAME --threads 1`` at 100k samples for all 20 presets, once
each, and ``sweep --preset fig3c`` at each of ``SCALING_THREADS`` (three runs
each, median kept), all in one interpreter warmed by a tiny sweep first. It
writes each run's result and provenance, as run.py prints them, the tests'
wall seconds, passed and failed counts and exit code, the oracle wall
seconds, the run memory and the sweep wall seconds to
``BENCH_<short-commit>.json`` at the root of this repository. A checkout whose
tracked files differ from its HEAD is recorded as ``<short-commit>-<first 7 hex digits of src_sha256>``, the
digest of the sources it measured, so records of different uncommitted trees
on one commit keep apart.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (n, m, regime), regime None for the raw oracle. (640, 960) prints its
# support, so JSON formatting bounds it; the others are above the support
# limit and print moments only. (400000, 30) has 400001 strata, most of
# weight +0.0, so it times the per-stratum work, standardized and raw.
ORACLE_SIZES = ((640, 960, "case2"), (1600, 2400, "case2"), (5000, 5000, "case2"),
                (400000, 30, "case2"), (400000, 30, None))
ORACLE_RUNS = 3
# (label, (n, m, p, s, r), samples) of the tracemalloc probe, all under case2
# with alpha = m/n: the fig3 preset base, and a model whose draws hold x = 0.
RUN_MEMORY_CASES = (("fig3", (10**6, 10**6, 0.5, 15.0, 15.0), 10**5),
                    ("fig3", (10**6, 10**6, 0.5, 15.0, 15.0), 10**6),
                    ("x = 0", (3, 3, 0.5, 1.0, 1.0), 10**5))
# ``simulate`` sizes whose peak RSS difference gives the growth per sample.
RSS_SAMPLES = (10**6, 4 * 10**6)
RSS_RUNS = 3
SCALING_THREADS = (1, 2, 4, 8)
SCALING_RUNS = 3

_ORACLE_TIMER = """\
import json, os, statistics, sys, time
sys.path.insert(0, "src")
from binratio.cli import main

def oracle(n, m, regime):
    argv = ["oracle", "--n", str(n), "--m", str(m), "--p", "0.5", "--s", "2",
            "--r", "1", "--out", os.devnull]
    if regime is not None:
        argv += ["--regime", regime]
    start = time.perf_counter()
    if main(argv) != 0:
        sys.exit(f"oracle at ({n}, {m}, {regime}) failed")
    return time.perf_counter() - start

oracle(16, 24, "case2")
sizes, runs = json.loads(sys.argv[1]), int(sys.argv[2])
rows = []
for n, m, regime in sizes:
    times = [oracle(n, m, regime) for _ in range(runs)]
    rows.append({"n": n, "m": m, "regime": regime, "outcomes": (n + 1) * (m + 1),
                 "runs_s": times, "median_s": statistics.median(times)})
print(json.dumps(rows))
"""

_TRACEMALLOC_PROBE = """\
import json, sys, tracemalloc
sys.path.insert(0, "src")
from binratio import ModelParams, Regime, run_single

rows = []
for label, (n, m, p, s, r), samples in json.loads(sys.argv[1]):
    params = ModelParams(n=n, m=m, p=p, s=s, r=r)
    run_single(params, Regime.case_ii(None), samples=100)  # imports, generator
    tracemalloc.start()
    result = run_single(params, Regime.case_ii(None), samples=samples)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rows.append({"case": label, "n": n, "m": m, "p": p, "s": s, "r": r,
                 "samples": samples, "peak_bytes_per_sample": peak / samples,
                 "zero_numerator_count": result.simulated.zero_numerator_count,
                 "kl": result.report.kl})
print(json.dumps(rows))
"""

_RSS_PROBE = """\
import json, os, resource, sys
sys.path.insert(0, "src")
from binratio.cli import main

argv = ["simulate", "--n", "1000000", "--m", "1000000", "--p", "0.5", "--s", "15",
        "--r", "15", "--regime", "case2", "--samples", sys.argv[1], "--out", os.devnull]
if main(argv) != 0:
    sys.exit(f"simulate at {sys.argv[1]} samples failed")
print(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024))
"""

_SWEEP_TIMER = """\
import json, os, statistics, sys, time
sys.path.insert(0, "src")
from binratio.cli import main
from binratio.runner import PRESET_NAMES

def sweep(name, threads, samples=100_000):
    argv = ["sweep", "--preset", name, "--samples", str(samples),
            "--threads", str(threads), "--out", os.devnull]
    start = time.perf_counter()
    if main(argv) != 0:
        sys.exit(f"sweep {name} on {threads} threads failed")
    return time.perf_counter() - start

sweep("fig3c", 1, samples=100)
presets = [{"preset": name, "wall_s": sweep(name, 1)} for name in PRESET_NAMES]
threads, runs = json.loads(sys.argv[1]), int(sys.argv[2])
scaling = []
for count in threads:
    times = [sweep("fig3c", count) for _ in range(runs)]
    scaling.append({"threads": count, "runs_s": times,
                    "median_s": statistics.median(times)})
print(json.dumps({"presets_serial": presets, "fig3c_threads": scaling}))
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


def run_timer(checkout: Path, label: str, script: str, *args: str):
    """The JSON that a timer script prints, run in one interpreter in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {label} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def run_memory(checkout: Path) -> dict:
    """Tracemalloc peaks of ``run_single`` and the RSS growth of ``simulate``."""
    peaks = run_timer(checkout, "run_single tracemalloc", _TRACEMALLOC_PROBE,
                      json.dumps(RUN_MEMORY_CASES))
    rss = []
    for samples in RSS_SAMPLES:
        runs = [run_timer(checkout, f"simulate RSS at {samples}", _RSS_PROBE, str(samples))
                for _ in range(RSS_RUNS)]
        rss.append({"samples": samples, "peak_rss_bytes": runs,
                    "median_bytes": statistics.median(runs)})
    lo, hi = rss[0], rss[-1]
    growth = (hi["median_bytes"] - lo["median_bytes"]) / (hi["samples"] - lo["samples"])
    return {"tracemalloc": peaks, "simulate_rss": rss, "rss_bytes_per_sample": growth}


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
    oracle_scaling = run_timer(checkout, "oracle scaling", _ORACLE_TIMER,
                               json.dumps(ORACLE_SIZES), str(ORACLE_RUNS))
    for row in oracle_scaling:
        print(f"oracle ({row['n']}, {row['m']}, {row['regime'] or 'raw'}): "
              f"{row['median_s']:.3f} s", file=sys.stderr)
    memory = run_memory(checkout)
    for row in memory["tracemalloc"]:
        print(f"run_single {row['case']} at {row['samples']}: "
              f"{row['peak_bytes_per_sample']:.2f} B/sample", file=sys.stderr)
    print(f"simulate RSS growth: {memory['rss_bytes_per_sample']:.2f} B/sample",
          file=sys.stderr)
    sweeps = run_timer(checkout, "sweep timings", _SWEEP_TIMER,
                       json.dumps(SCALING_THREADS), str(SCALING_RUNS))
    serial_s = sum(row["wall_s"] for row in sweeps["presets_serial"])
    print(f"20 presets serially: {serial_s:.2f} s", file=sys.stderr)
    for row in sweeps["fig3c_threads"]:
        print(f"fig3c on {row['threads']} threads: {row['median_s']:.3f} s",
              file=sys.stderr)
    name = record_name(checkout, runs[0]["provenance"]["src_sha256"])
    path = ROOT / f"BENCH_{name}.json"
    record = {"commit": name, "runs": runs, "tier1": tier1,
              "oracle_scaling": oracle_scaling, "run_memory": memory, **sweeps}
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
