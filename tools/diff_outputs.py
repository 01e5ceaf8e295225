"""Compare what two source trees print for one corpus of CLI argument lists.

Usage (from the root of a source checkout):

    python3 tools/diff_outputs.py REV [--count N]

Exports commit ``REV`` with ``git archive`` into a temporary directory (no
network, and ``.git`` is left alone), then runs one corpus through
``binratio.cli.main`` of that export and of this working tree, each tree in
its own interpreter. The corpus holds the golden commands of
``tests/test_golden.py`` (every preset sweep, the two ``simulate`` reports and
the ``limit``, ``oracle`` and ``bound`` commands pinned there) and, for each of
the five subcommands, ``N`` random argument lists drawn from a fixed seed: about
half valid, the others with one bad value, flag or spec-file field. Spec files
are written once to a directory both trees read, so their paths match.

For every argument list it compares the exit code, stdout and stderr, with
only the ``wall_time_ms`` values masked. A warning counts as a stderr line,
and an exception that escapes ``main`` as exit code ``"crash"`` with its type
and message as stderr. It prints the number of argument lists compared and
every difference, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("limit", "simulate", "sweep", "oracle", "bound")
REGIMES = ("case1", "case2", "case3", "collapse")
# values a mutated argument list puts in place of a valid one
BAD_TOKENS = ("0", "-1", "2.5", "3.0", "abc", "", "nan", "inf", "-inf", "1e400",
              "True", "18446744073709551616", str(10**30))
BAD_JSON = (0, -1, 2.5, 3.0, True, None, "x", [], 10**400, 2**64)
CORPUS_SEED = 0  # a larger --count draws more lists from the same stream

_WORKER = """\
import io, json, sys, warnings
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
from binratio.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the parser rejected argv or printed --help
                code = exc.code
            except Exception as exc:
                code = "crash"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    lines = [str(w.message) + "\\n" for w in caught]
    results.append([code, out.getvalue(), err.getvalue() + "".join(lines)])
json.dump(results, sys.stdout)
"""


def golden_corpus() -> list[list[str]]:
    """The argument lists ``tests/test_golden.py`` pins, without their ``--out``."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # test_golden imports binratio
    spec = importlib.util.spec_from_file_location("test_golden",
                                                  ROOT / "tests" / "test_golden.py")
    test_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(test_golden)

    samples = ["--samples", str(test_golden.SAMPLES)]
    return (
        [["sweep", "--preset", name, *samples] for name in test_golden.PRESET_NAMES]
        + [["simulate", *argv, *samples] for argv in test_golden.SIMULATE_ARGV.values()]
        + [list(argv) for argv in test_golden.COMMAND_ARGV.values()]
    )


def _model_args(rng: random.Random, small: bool) -> list[str]:
    sizes = (1, 2, 3, 10, 40) if small else (1, 10, 1000, 10**6, 10**9, 2**63 - 1, 2**63)
    reals = (1e-300, 0.5, 1.0, 2.0, 15.0, 30.0, 300.0, 1e300, round(rng.uniform(0.1, 30), 3))
    probabilities = (1e-300, 0.01, 0.3, 0.5, 0.999, round(rng.uniform(0.01, 0.99), 4))
    args = ["--n", str(rng.choice(sizes)), "--m", str(rng.choice(sizes)),
            "--p", repr(rng.choice(probabilities)),
            "--s", repr(rng.choice(reals)), "--r", repr(rng.choice(reals))]
    regime = rng.choice(REGIMES)
    args += ["--regime", regime]
    if regime == "case2" and rng.random() < 0.5:
        args += ["--alpha", repr(rng.choice(reals))]
    return args


def _spec(rng: random.Random) -> dict:
    vary = rng.choice(("p", "s", "r", "m", "n"))
    values = {"p": (0.1, 0.5, 0.9), "m": (10, 1000, 10**6), "n": (10, 1000, 10**6)}
    grid_values = values.get(vary, (0.5, 1.0, 2.0, 15.0))
    if rng.random() < 0.5:
        grid = rng.sample(grid_values, rng.randint(1, 3))
    else:
        grid = {"lo": grid_values[0], "hi": grid_values[-1], "steps": rng.randint(1, 3)}
    spec = {"base": {"n": 1000, "m": 1000, "p": 0.5, "s": 2.0, "r": 1.0},
            "regime": {"kind": rng.choice(REGIMES)}, "vary": vary, "grid": grid,
            "samples": rng.randint(1, 200)}
    optional = {"bins": rng.randint(2, 60), "replicates_per_point": rng.randint(1, 2),
                "master_seed": rng.randint(0, 2**64 - 1),
                "direction": rng.choice(("forward", "reversed", "auto"))}
    spec.update({key: value for key, value in optional.items() if rng.random() < 0.5})
    return spec


def _mutate_spec(rng: random.Random, spec: dict) -> None:
    """Put one bad value in ``spec``: a setting, a base field, the grid or alpha."""
    where = rng.choice(("setting", "base", "grid", "alpha", "key"))
    bad = rng.choice(BAD_JSON)
    if where == "setting":
        spec[rng.choice(("samples", "bins", "replicates_per_point", "master_seed"))] = bad
    elif where == "base":
        spec["base"][rng.choice(("n", "m", "p", "s", "r"))] = bad
    elif where == "grid":
        if isinstance(spec["grid"], dict):
            spec["grid"][rng.choice(("lo", "hi", "steps"))] = bad
        else:
            spec["grid"][0] = bad
    elif where == "alpha":
        spec["regime"] = {"kind": "case2", "alpha": bad}
    else:
        spec[rng.choice(("direction", "vary", "sampels"))] = rng.choice(("sideways", bad))


def random_argv(rng: random.Random, command: str, workdir: Path, index: int) -> list[str]:
    """One argument list for ``command``; about half carry one bad value."""
    bad = rng.random() < 0.5
    if command == "sweep":
        if rng.random() < 0.3:
            from_preset = ["--preset", f"fig{rng.randint(1, 4)}{rng.choice('abcde')}",
                           "--samples", str(rng.randint(20, 100)),
                           "--bins", str(rng.randint(2, 30)),
                           "--seed", str(rng.randint(0, 2**64 - 1))]
            argv = ["sweep", *from_preset, "--threads", str(rng.randint(1, 2))]
        else:
            spec = _spec(rng)
            if bad:
                _mutate_spec(rng, spec)
                bad = False  # the spec file carries the bad value
            path = workdir / f"spec{index}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            argv = ["sweep", "--spec", str(path), "--threads", str(rng.randint(1, 2))]
    else:
        argv = [command, *_model_args(rng, small=command == "oracle")]
        if command == "oracle" and rng.random() < 0.3:
            regime = argv.index("--regime")  # the raw, unstandardized oracle
            del argv[regime:regime + 2]
            if "--alpha" in argv:
                alpha = argv.index("--alpha")
                del argv[alpha:alpha + 2]
        if command in ("simulate", "bound"):
            argv += ["--samples", str(rng.randint(1, 2000)),
                     "--seed", str(rng.randint(0, 2**64 - 1))]
        if command == "simulate":
            argv += ["--bins", str(rng.randint(2, 100)),
                     "--direction", rng.choice(("forward", "reversed", "auto"))]
    if bad:
        values = [i for i, token in enumerate(argv) if i and argv[i - 1].startswith("--")]
        choice = rng.random()
        if choice < 0.7:
            argv[rng.choice(values)] = rng.choice(BAD_TOKENS)
        elif choice < 0.85:
            flag = rng.choice(values) - 1
            del argv[flag:flag + 2]
        else:
            argv += ["--bogus", "1"]
    return argv


def random_corpus(rng: random.Random, count: int, workdir: Path) -> list[list[str]]:
    """``count`` argument lists per subcommand; spec files go to ``workdir``."""
    return [random_argv(rng, command, workdir, i * len(COMMANDS) + k)
            for i in range(count) for k, command in enumerate(COMMANDS)]


def run_tree(src: Path, corpus: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of every argument list, run by ``src``'s binratio."""
    done = subprocess.run([sys.executable, "-c", _WORKER, str(src)],
                          input=json.dumps(corpus), capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"the run of {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def masked(stdout: str) -> str:
    """``stdout`` with every ``wall_time_ms`` value replaced by ``*``."""
    lines = stdout.split("\n")
    if lines[0].endswith(",wall_time_ms"):  # a sweep CSV: its last column
        return "\n".join(lines[:1] + [line.rsplit(",", 1)[0] + ",*" if line else line
                                      for line in lines[1:]])
    return re.sub(r'("wall_time_ms": )"[^"]*"', r'\1"*"', stdout)


def differences(corpus: list[list[str]], old: list[list], new: list[list]) -> list[dict]:
    """One entry per argument list whose exit code, stdout or stderr differ.

    ``old`` and ``new`` are the two trees' ``run_tree`` results for ``corpus``.
    Each entry holds the ``argv``, the differing ``parts`` and the ``old`` and
    ``new`` [exit code, masked stdout, stderr].
    """
    found = []
    for argv, old_run, new_run in zip(corpus, old, new):
        old_run = [old_run[0], masked(old_run[1]), old_run[2]]
        new_run = [new_run[0], masked(new_run[1]), new_run[2]]
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"),
                                            old_run, new_run) if a != b]
        if parts:
            found.append({"argv": argv, "parts": parts, "old": old_run, "new": new_run})
    return found


def export(rev: str, into: Path) -> Path:
    """Extract commit ``rev`` of this repository into ``into``; return its ``src``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    return into / "src"


def _describe(found: dict) -> str:
    lines = [f"- {' '.join(found['argv'])}: {', '.join(found['parts'])} differ"]
    for part in found["parts"]:
        index = ("exit code", "stdout", "stderr").index(part)
        for side in ("old", "new"):
            text = str(found[side][index])
            lines.append(f"    {side} {part}: {text[:400]!r}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the commit to compare this working tree with")
    parser.add_argument("--count", type=int, default=40,
                        help="random argument lists per subcommand (default 40)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_src = export(args.rev, Path(tmp) / "tree")
        specs = Path(tmp) / "specs"
        specs.mkdir()
        rng = random.Random(CORPUS_SEED)
        corpus = golden_corpus() + random_corpus(rng, args.count, specs)
        old, new = run_tree(old_src, corpus), run_tree(ROOT / "src", corpus)
        found = differences(corpus, old, new)
    print(f"compared {len(corpus)} argument lists against {args.rev}: "
          f"{len(found)} differ")
    for entry in found:
        print(_describe(entry))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
