"""tools/bench_pairs.py with the perfbench runs and the export stubbed: the
runs alternate, untraced, and the medians, quartiles, wins and verdicts are right."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# per side, per metric: the value of the run in pairs 1 .. 4
VALUES = {
    "rev": {"wall_s": [1.0, 2.0, 3.0, 4.0], "pairs_per_s": [10.0, 20.0, 30.0, 40.0],
            "cpu_s": [1.0, 1.0, 1.0, 1.0], "peak_rss_mb": [40.0, 40.0, 40.0, 40.0],
            "setup_s": [0.2, 0.2, 0.2, 0.2]},
    "change": {"wall_s": [0.9, 2.5, 2.9, 3.0], "pairs_per_s": [11.0, 19.0, 30.0, 41.0],
               "cpu_s": [1.0, 1.0, 1.0, 1.0], "peak_rss_mb": [44.0, 44.0, 44.0, 44.0],
               "setup_s": [0.1, 0.1, 0.1, 0.1]},
}


@pytest.fixture
def report(monkeypatch, tmp_path, capsys):
    calls = []

    def export(rev, into):
        assert rev == "REV"
        return into / "src"

    def run_workload(tree, workload, seed, seconds, trace):
        side = "change" if tree == bench_pairs.ROOT else "rev"
        calls.append((workload, seed, side, seconds, trace))
        metrics = {name: {"value": values[seed - 1], "unit": "?"}
                   for name, values in VALUES[side].items()}
        result = {"correct": True, "attempted": 10,
                  "failed": int(side == "change" and seed == 3), "metrics": metrics}
        return {"provenance": {}, "result": result}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_workload", run_workload)
    code = bench_pairs.main(["REV", "--pairs", "4", "--workload", "small_batch_sweep"])
    return code, json.loads(capsys.readouterr().out), calls


def test_pairs_alternate_which_side_runs_first(report):
    _, _, calls = report
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert calls == [("small_batch_sweep", seed, side, seconds, 0) for seed, side in [
        (1, "rev"), (1, "change"), (2, "change"), (2, "rev"),
        (3, "rev"), (3, "change"), (4, "change"), (4, "rev")]]


def test_medians_quartiles_and_wins(report):
    code, out, _ = report
    assert code == 1  # peak_rss_mb is 10% worse against a bound of 5%
    result = out["workloads"]["small_batch_sweep"]
    assert result["rev"] == {"failed": 0, "attempted": 40}
    assert result["change"] == {"failed": 1, "attempted": 40}
    wall = result["metrics"]["wall_s"]
    assert wall["rev"] == {"runs": [1.0, 2.0, 3.0, 4.0], "median": 2.5, "q1": 1.75, "q3": 3.25}
    assert wall["change"]["median"] == pytest.approx(2.7)
    assert wall["change"]["q1"] == pytest.approx(2.1)
    assert wall["change"]["q3"] == pytest.approx(2.925)
    assert (wall["wins"], wall["losses"]) == (3, 1)
    assert wall["relative_change"] == pytest.approx(0.08)
    # REV's interquartile range is 60% of its median, over the 25% bound
    assert not wall["worse_beyond_bound"] and wall["unresolved"]
    rate = result["metrics"]["pairs_per_s"]  # higher is better; pair 3 is a tie
    assert (rate["wins"], rate["losses"]) == (2, 1)
    cpu = result["metrics"]["cpu_s"]
    assert (cpu["wins"], cpu["losses"], cpu["unresolved"]) == (0, 0, False)
    rss = result["metrics"]["peak_rss_mb"]
    assert rss["worse_beyond_bound"] and (rss["wins"], rss["losses"]) == (0, 4)
    setup = result["metrics"]["setup_s"]
    assert (setup["wins"], setup["worse_beyond_bound"]) == (4, False)
