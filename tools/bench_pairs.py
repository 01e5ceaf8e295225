"""Judge a change by alternating benchmark pairs against a revision.

Usage (from the root of a source checkout):

    python3 tools/bench_pairs.py REV [--pairs N] [--workload W]

Exports commit ``REV`` with ``diff_outputs.export`` into a temporary directory.
Then, for every workload of this checkout's ``BENCHMARK.json`` (or only ``W``),
it runs ``N`` pairs (default 10) of

    perfbench/run.py --workload W --seed K --seconds S --trace 0

once in REV's tree and once in this working tree, one run at a time. K is
the pair number, 1 to N, and S is the file's ``run_seconds``. REV runs first
in odd pairs, the working tree in even ones.

It prints one JSON object. Per workload it gives each side's failed and
attempted operations and, per end-to-end metric, each side's runs, median and
quartiles (q1, q3); the pairs the change won and lost (ties count for
neither); its median's change relative to REV's; whether that is worse than
the metric's bound; and whether the metric is unresolved, that is REV's own
interquartile range exceeds the bound and not every run of the change reads
better than every run of REV. It exits 1 if a median is worse than its bound
or the change fails more operations than REV.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
from diff_outputs import export  # noqa: E402

SIDES = ("rev", "change")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run in ``tree``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(rev_tree: Path, workload: str, pairs: int, seconds: float) -> dict:
    """Each side's results of ``pairs`` alternating pairs, in pair order."""
    runs = {side: [] for side in SIDES}
    order = (("rev", rev_tree), ("change", ROOT))
    for pair in range(1, pairs + 1):
        for side, tree in order if pair % 2 else order[::-1]:
            runs[side].append(run_bench(tree, workload, pair, seconds))
            print(f"{workload} pair {pair} {side}: done", file=sys.stderr, flush=True)
    return runs


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Failures, quartiles, wins and verdicts of one workload's pairs."""
    summary = {side: {key: sum(run[key] for run in runs[side])
                      for key in ("failed", "attempted")} for side in SIDES}
    summary["metrics"] = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[side] = {"runs": values[side], "median": statistics.median(values[side]),
                           "q1": q1, "q3": q3}
        # signed so that lower is better on every metric
        signed = {side: [sign * value for value in values[side]] for side in SIDES}
        steps = [new - old for old, new in zip(signed["rev"], signed["change"])]
        base = entry["rev"]["median"]
        relative = (entry["change"]["median"] - base) / base
        spread = (entry["rev"]["q3"] - entry["rev"]["q1"]) / base
        entry.update(
            wins=sum(step < 0 for step in steps),
            losses=sum(step > 0 for step in steps),
            relative_change=relative,
            worse_beyond_bound=sign * relative > metric["bound"],
            unresolved=(spread > metric["bound"]
                        and not max(signed["change"]) < min(signed["rev"])),
        )
        summary["metrics"][name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the commit to compare this working tree with")
    parser.add_argument("--pairs", type=int, default=10,
                        help="alternating pairs per workload (default 10)")
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that quartiles exist")
    report = {"rev": args.rev, "pairs": args.pairs, "seconds": spec["run_seconds"],
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        rev_tree = export(args.rev, Path(tmp) / "tree").parent
        for workload in [args.workload] if args.workload else names:
            runs = run_pairs(rev_tree, workload, args.pairs, spec["run_seconds"])
            report["workloads"][workload] = summarize(runs, spec["end_to_end"])
    print(json.dumps(report, indent=2))
    results = report["workloads"].values()
    worse = any(entry["worse_beyond_bound"] for result in results
                for entry in result["metrics"].values())
    failing = any(result["change"]["failed"] > result["rev"]["failed"]
                  for result in results)
    return 1 if worse or failing else 0


if __name__ == "__main__":
    sys.exit(main())
