"""Span tracing of binratio's layers, done entirely from outside the package.

Every binratio module calls its neighbours through names bound in its own
namespace (``from .sampling import simulate_batch``), so a call between
layers can be observed by replacing that name in the *calling* module with a
wrapper that records a span. ``Tracer.install`` does this for every public
function of a layer module, at every place a layer module holds it, and
``Tracer.restore`` puts the original objects back.

A span is ``(id, parent, name, site, thread, start, end, attrs)``: ``name``
is ``<defining layer>.<function>``, ``site`` the layer whose namespace held
the wrapped name, ``parent`` the innermost open span of the same thread
(sweeps run ``run_single`` on pool threads, so each thread keeps its own
stack), and ``attrs`` the work counts read from the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

# binratio.errors holds only exception types, so it is not a layer.
LAYERS = ("cli", "runner", "model", "sampling", "divergence", "oracle", "calculus")


def _threads_attr(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[1] if len(args) > 1 else 1)}


def _size_attr(key):
    return lambda args, kwargs, result: {key: int(np.size(result))}


def _outcomes_attr(args, kwargs, result):
    params = args[0]
    return {"outcomes": (params.n + 1) * (params.m + 1)}


def _smoothed_attr(args, kwargs, result):
    return {"smoothed_bins": result.smoothed_bins}


# Work counts read from the call, by span name.
ATTRS = {
    "runner.run_sweep": _threads_attr,
    "sampling.draw_binomial": _size_attr("variates"),
    "sampling.standardized_statistic": _size_attr("elements"),
    "oracle.exact_distribution": _outcomes_attr,
    "divergence.kl_divergence": _smoothed_attr,
}


class Tracer:
    """Records spans while installed; not reentrant across installs."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, site: str):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                with self._lock:
                    self.spans.append(
                        (sid, parent, name, site, threading.get_ident(), start, end, extra)
                    )

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever a layer module binds them."""
        modules = {layer: importlib.import_module(f"binratio.{layer}") for layer in LAYERS}
        owners = {f"binratio.{layer}": layer for layer in LAYERS}
        for site, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = owners.get(obj.__module__)
                if owner is None:
                    continue
                name = f"{owner}.{obj.__name__}"
                self._patched.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, name, site))

    def restore(self) -> list[str]:
        """Put every wrapped name back; return the names that did not restore."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        broken = [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]
        self._patched.clear()
        return broken


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children share their parent's thread and nest inside it, so they never
    overlap one another and their durations add.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid] for sid, _, _, _, _, start, end, _ in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced pass, derived from its spans."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    single_ms = []
    sweep_thread_s = 0.0
    oracle_elements = 0
    for sid, _, name, site, _, start, end, extra in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        total_s[name] += end - start
        if name == "runner.run_single":
            single_ms.append((end - start) * 1e3)
        if extra:
            if name == "runner.run_sweep":
                sweep_thread_s += extra["threads"] * (end - start)
            elif name == "sampling.standardized_statistic":
                if site == "oracle":
                    oracle_elements += extra["elements"]
            else:
                for key, value in extra.items():
                    counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(q):
        return float(np.percentile(single_ms, q)) if single_ms else 0.0

    return {
        "runner.run_single.calls": calls["runner.run_single"],
        "runner.run_single.p50_ms": pct(50),
        "runner.run_single.p90_ms": pct(90),
        "runner.run_single.self_s": self_s["runner.run_single"],
        "runner.pool_efficiency": ratio(total_s["runner.run_single"], sweep_thread_s),
        "model.limit_law.calls": calls["model.limit_law"],
        "model.limit_law.self_s": self_s["model.limit_law"],
        "sampling.draw_binomial.variates": counts["variates"],
        "sampling.draw_binomial.self_s": self_s["sampling.draw_binomial"],
        "sampling.draw_binomial.variates_per_s": ratio(
            counts["variates"], total_s["sampling.draw_binomial"]
        ),
        "sampling.make_generator.calls": calls["sampling.make_generator"],
        "sampling.make_generator.self_s": self_s["sampling.make_generator"],
        "sampling.standardized_statistic.self_s": self_s["sampling.standardized_statistic"],
        "sampling.reference_normal_batch.self_s": self_s["sampling.reference_normal_batch"],
        "sampling.simulate_batch.self_s": self_s["sampling.simulate_batch"],
        "divergence.common_bins.self_s": self_s["divergence.common_bins"],
        "divergence.histogram.calls": calls["divergence.histogram"],
        "divergence.histogram.self_s": self_s["divergence.histogram"],
        "divergence.kl_divergence.self_s": self_s["divergence.kl_divergence"],
        "divergence.smoothed_bins": counts["smoothed_bins"],
        "oracle.exact_distribution.self_s": self_s["oracle.exact_distribution"],
        "oracle.outcomes": counts["outcomes"],
        "oracle.evals_per_outcome": ratio(oracle_elements, counts["outcomes"]),
        "calculus.scaled_remainder_samples.self_s": self_s["calculus.scaled_remainder_samples"],
        "calculus.scaled_remainder_bound.self_s": self_s["calculus.scaled_remainder_bound"],
        "cli.self_s": self_s["cli.main"],
    }
