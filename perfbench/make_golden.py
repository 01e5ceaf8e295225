"""Regenerate golden.json: the outputs the benchmark checks, at seed 0.

Run from the root of a source checkout, only when a change to binratio's
output is intended:

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from binratio.cli import main as cli_main

    run.OUT_DIR.mkdir(exist_ok=True)
    golden = {}
    for name, make in workloads.WORKLOADS.items():
        entries = []
        for command in make(workloads.DEFAULT_SEED, run.OUT_DIR):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if cli_main(list(command.argv)) != 0:
                    raise SystemExit(f"{' '.join(command.argv)} failed")
            text = out.getvalue()
            if command.kind == "sweep":
                normalized = command.normalized(text).encode()
                entries.append({"sha256": hashlib.sha256(normalized).hexdigest()})
            elif command.kind == "oracle":
                payload = json.loads(text)
                entries.append({key: payload[key] for key in workloads.ORACLE_KEYS})
            else:
                entries.append(None)
        golden[name] = entries
    path = run.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
