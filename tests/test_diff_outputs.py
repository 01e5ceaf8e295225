"""tools/diff_outputs.py on a tiny corpus, with no git: a tree compared with
itself differs nowhere, a copy whose error lines changed differs exactly on
the argument lists that fail, and ``main`` exports a revision and reports."""

import importlib.util
import io
import random
import shutil
import subprocess
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("diff_outputs", ROOT / "tools" / "diff_outputs.py")
diff_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(diff_outputs)

INVALID = ["limit", "--n", "0", "--m", "10", "--p", "0.5", "--s", "1", "--r", "1",
           "--regime", "case2"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> list[list[str]]:
    golden = diff_outputs.golden_corpus()
    # a preset sweep and a simulate report carry wall_time_ms, which is masked
    picked = [argv for argv in golden if argv[:3] == ["sweep", "--preset", "fig3c"]]
    picked += [argv for argv in golden if argv[0] in ("simulate", "limit")][:2]
    workdir = tmp_path_factory.mktemp("specs")
    return picked + diff_outputs.random_corpus(random.Random(7), 2, workdir) + [INVALID]


@pytest.fixture(scope="module")
def results(corpus) -> list[list]:
    return diff_outputs.run_tree(ROOT / "src", corpus)


@pytest.fixture(scope="module")
def changed_src(tmp_path_factory) -> Path:
    """A copy of ``src`` whose CLI prints "failed:" where it printed "error:"."""
    changed = tmp_path_factory.mktemp("changed") / "src"
    shutil.copytree(ROOT / "src" / "binratio", changed / "binratio",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "binratio" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    cli.write_text(text.replace('"error: ', '"failed: '), encoding="utf-8")
    assert cli.read_text(encoding="utf-8") != text
    return changed


def test_tree_against_itself_has_no_difference(corpus, results):
    assert [code for code, _, _ in results[:3]] == [0, 0, 0]
    again = diff_outputs.run_tree(ROOT / "src", corpus)
    assert diff_outputs.differences(corpus, results, again) == []


def test_changed_error_lines_are_reported(corpus, results, changed_src):
    changed = diff_outputs.run_tree(changed_src, corpus)
    found = diff_outputs.differences(corpus, results, changed)
    failing = [argv for argv, (code, _, _) in zip(corpus, results) if code != 0]
    assert INVALID in failing
    assert [entry["argv"] for entry in found] == failing
    assert all(entry["parts"] == ["stderr"] for entry in found)


@pytest.mark.parametrize("changed, code", [(False, 0), (True, 1)], ids=["same", "changed"])
def test_main_exports_rev_and_compares(monkeypatch, capsys, changed_src, changed, code):
    """``main`` with ``git archive`` replaced by a tar of a source tree."""
    archive = io.BytesIO()
    with tarfile.open(fileobj=archive, mode="w") as tar:
        tar.add(changed_src if changed else ROOT / "src", arcname="src",
                filter=lambda info: None if "__pycache__" in info.name else info)
    real_run = subprocess.run

    def run(args, **kw):
        if args[0] == "git":
            assert args == ["git", "archive", "--format=tar", "REV"]
            return subprocess.CompletedProcess(args, 0, stdout=archive.getvalue())
        return real_run(args, **kw)

    monkeypatch.setattr(diff_outputs.subprocess, "run", run)
    monkeypatch.setattr(diff_outputs, "golden_corpus", lambda: [INVALID])
    assert diff_outputs.main(["REV", "--count", "1"]) == code
    report = capsys.readouterr().out
    assert report.startswith("compared 6 argument lists against REV: ")
    assert ("limit --n 0 --m 10" in report) == changed
    if not changed:
        assert report == "compared 6 argument lists against REV: 0 differ\n"
