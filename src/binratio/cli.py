"""Command-line interface.

Subcommands:
  limit      print the closed-form limit law as JSON
  simulate   one simulate/compare run; JSON report with histograms
  sweep      a preset or spec-file parameter sweep; CSV rows
  oracle     exact enumeration at small sizes; JSON moments (+ support)
  bound      remainder-bound diagnostics table; CSV

Exit codes: 0 success (also when stdout is closed early), 2 invalid
parameters, 3 enumeration budget exceeded.
All output is UTF-8 with LF line endings; floats carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .divergence import DEFAULT_BIN_COUNT, Direction
from .errors import BudgetError, ParameterError, RegimeError
from .model import ModelParams, Regime, RegimeKind, limit_law
from .oracle import SUPPORT_LIMIT, exact_distribution
from .runner import (
    DEFAULT_BOUND_SAMPLES,
    DEFAULT_SAMPLES,
    PRESET_NAMES,
    SweepSpec,
    preset,
    run_bound_diagnostics,
    run_single,
    run_sweep,
)
from .sampling import SeedSpec, thread_generator_scope

SWEEP_CSV_HEADER = (
    "varied_param,varied_value,kl,direction,smoothed_bins,"
    "zero_denominator_count,seed,wall_time_ms"
)

BOUND_CSV_HEADER = "n,m,bound,q50,q99,q100"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_regime(name: str, alpha: float | None) -> Regime:
    try:
        kind = RegimeKind(name)
    except ValueError:
        raise RegimeError(
            f"unknown regime {name!r}; choose from "
            f"{', '.join(k.value for k in RegimeKind)}"
        ) from None
    return Regime(kind, alpha)


def _parse_direction(name: str) -> Direction | None:
    if name == "auto":
        return None
    try:
        return Direction(name)
    except ValueError:
        raise ParameterError(
            f"unknown direction {name!r}; choose from forward, reversed, auto"
        ) from None


def _add_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--s", type=float, required=True)
    sub.add_argument("--r", type=float, required=True)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--out", default=None)


def _params_from(args) -> ModelParams:
    return ModelParams(n=args.n, m=args.m, p=args.p, s=args.s, r=args.r)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {out!r}: {exc.strerror}") from None


def _histogram_json(hist) -> dict:
    return {"edges": [_fmt(e) for e in hist.edges],
            "mass": [_fmt(v) for v in hist.mass]}


def _cmd_limit(args) -> None:
    params = _params_from(args)
    law = limit_law(params, _parse_regime(args.regime, args.alpha))
    payload = {
        "center": _fmt(law.center),
        "log_center": _fmt(law.log_center),
        "log_scale": _fmt(law.log_scale),
        "variance": _fmt(law.variance),
        "s": _fmt(law.s),
        "r": _fmt(law.r),
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_simulate(args) -> None:
    params = _params_from(args)
    regime = _parse_regime(args.regime, args.alpha)
    result = run_single(
        params,
        regime,
        samples=args.samples,
        bins=args.bins,
        direction=_parse_direction(args.direction),
        seed=SeedSpec(args.seed),
    )
    simulated_hist, reference_hist = result.report.histograms
    payload = {
        "kl": _fmt(result.report.kl),
        "direction": result.report.direction.value,
        "smoothed_bins": result.report.smoothed_bins,
        "bin_count": result.report.bin_count,
        "zero_numerator_count": result.simulated.zero_numerator_count,
        "zero_denominator_count": result.simulated.zero_denominator_count,
        "seed": args.seed,
        "wall_time_ms": _fmt(result.wall_time_ms),
        "simulated_histogram": _histogram_json(simulated_hist),
        "reference_histogram": _histogram_json(reference_hist),
    }
    _write(json.dumps(payload, indent=2) + "\n", args.out)


_SPEC_KEYS = ("base", "regime", "vary", "grid")
_SPEC_OPTIONAL_KEYS = (
    "replicates_per_point", "samples", "bins", "direction", "master_seed"
)


def _spec_object(value, where: str, required, optional=()) -> dict:
    """``value`` as a JSON object holding every required key and no other."""
    if not isinstance(value, dict):
        raise ParameterError(f"{where} must be a JSON object")
    for key in required:
        if key not in value:
            raise ParameterError(f"{where} is missing key {key!r}")
    for key in value:
        if key not in required and key not in optional:
            raise ParameterError(f"{where} has unknown key {key!r}")
    return value


def _spec_number(obj: dict, key: str, where: str, default=None, kind=int):
    """``obj[key]``, or ``default`` when absent, checked to be a non-bool ``kind``."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"{where} {key!r} must be {noun}, got {value!r}")
    return value


def _spec_from_file(path: str) -> SweepSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read spec {path!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParameterError(f"spec {path!r} is not JSON: {exc}") from None
    where = f"spec {path!r}"
    _spec_object(raw, where, _SPEC_KEYS, _SPEC_OPTIONAL_KEYS)
    base = _spec_object(raw["base"], f"{where} base", ("n", "m", "p", "s", "r"))
    regime_raw = _spec_object(raw["regime"], f"{where} regime", ("kind",), ("alpha",))
    grid = raw["grid"]
    if isinstance(grid, dict):
        _spec_object(grid, f"{where} grid", ("lo", "hi", "steps"))
        lo = _spec_number(grid, "lo", f"{where} grid", kind=(int, float))
        hi = _spec_number(grid, "hi", f"{where} grid", kind=(int, float))
        steps = _spec_number(grid, "steps", f"{where} grid")
        if steps < 1:
            raise ParameterError(f"{where} grid 'steps' must be >= 1, got {steps}")
        grid = list(np.linspace(lo, hi, steps))
    elif not isinstance(grid, list):
        raise ParameterError(f"{where} grid must be a JSON list or object")
    return SweepSpec(
        base=ModelParams(**base),
        regime=_parse_regime(regime_raw["kind"], regime_raw.get("alpha")),
        vary=raw["vary"],
        grid=tuple(grid),
        replicates_per_point=_spec_number(raw, "replicates_per_point", where, 1),
        samples=_spec_number(raw, "samples", where, DEFAULT_SAMPLES),
        bins=_spec_number(raw, "bins", where, DEFAULT_BIN_COUNT),
        direction=_parse_direction(raw.get("direction", "auto")),
        master_seed=_spec_number(raw, "master_seed", where, 0),
    )


def _cmd_sweep(args) -> None:
    if (args.preset is None) == (args.spec is None):
        raise ParameterError("provide exactly one of --preset or --spec")
    if args.preset is not None:
        spec = preset(
            args.preset, samples=args.samples, bins=args.bins, master_seed=args.seed
        )
    else:
        spec = _spec_from_file(args.spec)
    rows = run_sweep(spec, threads=args.threads)
    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.varied_param,
                    _fmt(row.varied_value),
                    _fmt(row.kl),
                    row.direction.value,
                    str(row.smoothed_bins),
                    str(row.zero_denominator_count),
                    f"{row.seed.master_seed}:{row.seed.stream_index}",
                    _fmt(row.wall_time_ms),
                ]
            )
        )
    _write("\n".join(lines) + "\n", args.out)


def _cmd_oracle(args) -> None:
    params = _params_from(args)
    if args.regime is None and args.alpha is not None:
        raise RegimeError(f"--alpha needs --regime {RegimeKind.BALANCED.value}")
    regime = None if args.regime is None else _parse_regime(args.regime, args.alpha)
    dist = exact_distribution(params, regime)
    payload = {
        "mean": _fmt(dist.mean),
        "variance": _fmt(dist.variance),
        "probability_total": _fmt(dist.probability_total),
        "standardized": regime is not None,
        "support_limit": SUPPORT_LIMIT,
    }
    if dist.values is not None:
        payload["support"] = [
            [_fmt(v), _fmt(p)] for v, p in zip(dist.values, dist.probabilities)
        ]
    _write(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_bound(args) -> None:
    params = _params_from(args)
    regime = _parse_regime(args.regime, args.alpha)
    row = run_bound_diagnostics(
        params, regime, samples=args.samples, seed=SeedSpec(args.seed)
    )
    lines = [
        BOUND_CSV_HEADER,
        ",".join(
            [str(row.n), str(row.m), _fmt(row.bound),
             _fmt(row.q50), _fmt(row.q99), _fmt(row.q100)]
        ),
    ]
    _write("\n".join(lines) + "\n", args.out)


@functools.cache  # parsing does not change the parser; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binratio",
        description="Simulation lab for the limiting Normal law of "
        "X^s/(X+Y)^r with Binomial X, Y.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_limit = subs.add_parser("limit", help="print the limit law as JSON")
    _add_model_args(p_limit)
    p_limit.add_argument("--regime", required=True)
    p_limit.set_defaults(func=_cmd_limit)

    p_sim = subs.add_parser("simulate", help="one simulate/compare run")
    _add_model_args(p_sim)
    p_sim.add_argument("--regime", required=True)
    p_sim.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_sim.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT)
    p_sim.add_argument(
        "--direction", choices=["forward", "reversed", "auto"], default="auto"
    )
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = subs.add_parser("sweep", help="run a parameter sweep; CSV output")
    p_sweep.add_argument("--preset", choices=list(PRESET_NAMES), default=None)
    p_sweep.add_argument("--spec", default=None, help="JSON sweep spec file")
    p_sweep.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p_sweep.add_argument("--bins", type=int, default=DEFAULT_BIN_COUNT)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = subs.add_parser("oracle", help="exact enumeration at small sizes")
    _add_model_args(p_oracle)
    p_oracle.add_argument("--regime", default=None, help="standardize under this regime")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_bound = subs.add_parser("bound", help="remainder bound diagnostics; CSV")
    _add_model_args(p_bound)
    p_bound.add_argument("--regime", required=True)
    p_bound.add_argument("--samples", type=int, default=DEFAULT_BOUND_SAMPLES)
    p_bound.add_argument("--seed", type=int, default=0)
    p_bound.set_defaults(func=_cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with thread_generator_scope():
            args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``): nothing is left to
        # report. Point stdout at devnull so the flush at exit is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParameterError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
