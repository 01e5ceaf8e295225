import importlib
import inspect
import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from binratio import (
    Direction,
    ModelParams,
    ParameterError,
    Regime,
    RegimeKind,
    SweepSpec,
    run_bound_diagnostics,
    run_single,
    run_sweep,
)
from binratio import runner, sampling
from binratio.calculus import scaled_remainder_samples
from binratio.model import limit_law
from binratio.runner import PRESET_NAMES, preset
from binratio.sampling import STREAMS_PER_RUN, SeedSpec, thread_generator_scope


BALANCED_PARAMS = ModelParams(n=10**5, m=10**5, p=0.5, s=2.0, r=1.0)


def small_spec(**overrides):
    kwargs = dict(
        base=BALANCED_PARAMS,
        regime=Regime(RegimeKind.BALANCED, None),
        vary="r",
        grid=(1.0, 2.0, 3.0),
        samples=2000,
        bins=50,
        master_seed=9,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestRunSingle:
    def test_deterministic(self):
        a = run_single(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, 1.0), samples=2000,
                       seed=SeedSpec(3))
        b = run_single(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, 1.0), samples=2000,
                       seed=SeedSpec(3))
        assert a.report == b.report
        assert np.array_equal(a.simulated.values, b.simulated.values)

    def test_seed_stability_of_kl(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        kls = [
            run_single(params, Regime(RegimeKind.BALANCED, 1.0), samples=10**5,
                       seed=SeedSpec(seed)).report.kl
            for seed in (101, 202)
        ]
        assert abs(kls[0] - kls[1]) < 0.02

    def test_direction_defaults(self):
        fwd = run_single(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, 1.0), samples=1000)
        assert fwd.report.direction is Direction.FORWARD
        collapse_params = ModelParams(n=10**4, m=10**7, p=0.5, s=3.0, r=3.0)
        rev = run_single(collapse_params, Regime(RegimeKind.COLLAPSE), samples=1000)
        assert rev.report.direction is Direction.REVERSED

    def test_unresolved_balanced_alpha_is_m_over_n(self):
        params = ModelParams(n=1000, m=2500, p=0.5, s=2.0, r=1.0)
        implicit = run_single(params, Regime(RegimeKind.BALANCED, None), samples=2000)
        explicit = run_single(params, Regime(RegimeKind.BALANCED, 2.5), samples=2000)
        assert_same_run(implicit, explicit)

    @pytest.mark.parametrize("setting, message", [
        ({"samples": 0}, "samples must be >= 1"), ({"bins": 1}, "bins must be >= 2"),
        ({"samples": 2.5}, "samples must be an integer, got 2.5"),
        ({"bins": True}, "bins must be an integer, got True"),
        # the value string used to run, computing the reversed KL as "forward"
        ({"direction": "forward"}, "direction must be a Direction, got 'forward'"),
    ], ids=["samples", "bins", "samples_float", "bins_bool", "direction_str"])
    def test_settings_checked_before_any_draw(self, monkeypatch, setting, message):
        def no_draw(*args, **kw):
            raise AssertionError("draw_counts called")

        monkeypatch.setattr(runner, "draw_counts", no_draw)
        with pytest.raises(ParameterError, match=message):
            run_single(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, None), **setting)

    # calls one run makes through the names its modules bind at module level
    STAGE_CALLS = {"limit_law": 1, "draw_counts": 1, "draw_binomial": 2, "simulate_batch": 1,
                   "standardized_statistic": 1, "reference_normal_batch": 1,
                   "compare_batches": 1, "common_bins": 1, "histogram": 2,
                   "kl_divergence": 1}

    def test_stages_are_called_through_module_level_names(self, monkeypatch):
        # a tracer that wraps each public function where a module binds it
        # times the stages; a stage reached another way reads as 0 calls
        calls = Counter()

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for layer in ("cli", "runner", "model", "sampling", "divergence", "oracle",
                      "calculus"):
            module = importlib.import_module(f"binratio.{layer}")
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__.startswith("binratio.")):
                    monkeypatch.setattr(module, name, counted(obj))
        run_single(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, None), samples=2000)
        assert {name: calls[name] for name in self.STAGE_CALLS} == self.STAGE_CALLS


def assert_same_run(a, b):
    assert a.report == b.report
    got, want = a.simulated, b.simulated
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
    assert got.zero_numerator_count == want.zero_numerator_count
    assert got.zero_denominator_count == want.zero_denominator_count
    for got, want in zip(a.report.histograms, b.report.histograms):
        assert np.array_equal(got.mass, want.mass)
        assert np.array_equal(got.edges, want.edges)


class TestRepeatedRunsInOneProcess:
    # each thread re-keys one generator for every stream, so no run may
    # depend on what ran before it
    RUNS = [
        (BALANCED_PARAMS, Regime(RegimeKind.BALANCED, 1.0), SeedSpec(3)),
        (ModelParams(n=12, m=9, p=0.2, s=1.0, r=1.0), Regime(RegimeKind.BALANCED, None),
         SeedSpec(3, 7)),
        (ModelParams(n=10**4, m=10**7, p=0.5, s=3.0, r=3.0), Regime(RegimeKind.COLLAPSE),
         SeedSpec(8)),
    ]

    def _run(self, index):
        params, regime, seed = self.RUNS[index]
        return run_single(params, regime, samples=2000, bins=40, seed=seed)

    def test_same_run_twice(self):
        assert_same_run(self._run(0), self._run(0))

    def test_interleaved_seeds(self):
        first = [self._run(i) for i in range(3)]
        again = [self._run(i) for i in (2, 0, 1, 0)]
        for got, index in zip(again, (2, 0, 1, 0)):
            assert_same_run(got, first[index])

    def test_sweep_on_one_and_two_threads(self):
        spec = small_spec(vary="p", grid=(0.05, 0.5, 0.95), replicates_per_point=3)
        serial = run_sweep(spec, threads=1)
        self._run(1)
        threaded = run_sweep(spec, threads=2)
        again = run_sweep(spec, threads=1)
        for a, b, c in zip(serial, threaded, again):
            assert (a.kl, a.direction, a.smoothed_bins, a.zero_denominator_count) == (
                b.kl, b.direction, b.smoothed_bins, b.zero_denominator_count
            )
            assert (a.varied_value, a.seed) == (b.varied_value, b.seed)
            assert (a.kl, a.seed) == (c.kl, c.seed)
        assert len(serial) == len(threaded) == 9


class TestGeneratorsBuilt:
    # a thread builds one generator per scope and re-keys it for every
    # stream; each test counts inside scopes it opens itself, so what an
    # earlier test left on this thread does not change the count
    @pytest.fixture
    def built(self, monkeypatch):
        seeds = []
        make = sampling.make_generator

        def counting(seed):
            seeds.append(seed)
            return make(seed)

        with thread_generator_scope():
            pass  # drops any generator this thread still holds
        monkeypatch.setattr(sampling, "make_generator", counting)
        return seeds

    def test_one_per_serial_sweep(self, built):
        spec = small_spec(replicates_per_point=2)
        with thread_generator_scope():
            run_sweep(spec)
        assert len(built) == 1
        with thread_generator_scope():
            run_sweep(spec)
        assert len(built) == 2

    def test_at_most_one_per_pool_thread(self, built):
        with thread_generator_scope():
            run_sweep(small_spec(replicates_per_point=2), threads=2)
        assert 1 <= len(built) <= 2

    def test_one_per_bound_diagnostic(self, built):
        for _ in range(2):
            with thread_generator_scope():
                run_bound_diagnostics(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, 1.0),
                                      samples=100)
        assert len(built) == 2

    def test_counts_hold_after_a_bare_run(self, built):
        # a bare run_single leaves this thread its generator; a sweep that
        # drew on this thread would reuse it and count no build
        run_single(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, 1.0), samples=2000,
                   seed=SeedSpec(3))
        assert len(built) == 1
        with thread_generator_scope():
            run_sweep(small_spec(replicates_per_point=2))
        assert len(built) == 2


# what _run_point reads of a run, for sweeps with run_single stubbed out
STUB_RUN = SimpleNamespace(
    report=SimpleNamespace(kl=0.0, direction=Direction.FORWARD, smoothed_bins=0),
    simulated=SimpleNamespace(zero_denominator_count=0),
    wall_time_ms=0.0,
)


class TestRunSweep:
    def test_rows_in_grid_order(self):
        rows = run_sweep(small_spec())
        assert [row.varied_value for row in rows] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("vary", ["n", "m"])
    def test_trial_counts_checked_before_any_run(self, monkeypatch, vary):
        ran = []
        monkeypatch.setattr(runner, "run_single", lambda *args, **kw: ran.append(args))
        spec = small_spec(vary=vary, grid=(100, 2**63))
        with pytest.raises(ParameterError, match="at most 2\\*\\*63 - 1"):
            run_sweep(spec)
        assert ran == []

    @pytest.mark.parametrize("setting", [
        {"samples": 0}, {"bins": 1}, {"master_seed": -1}, {"master_seed": 2**64},
        {"samples": 10**12}, {"bins": 10**12}, {"samples": "5"}, {"bins": True},
        {"replicates_per_point": 2.0}, {"master_seed": None},
        {"replicates_per_point": 0}, {"replicates_per_point": runner.SWEEP_RUN_LIMIT},
        {"direction": "sideways"},
    ], ids=["samples", "bins", "negative_seed", "wide_seed", "samples_over_budget",
            "bins_over_budget", "samples_str", "bins_bool", "replicates_float",
            "seed_none", "no_replicates", "runs_over_limit", "direction_str"])
    def test_settings_checked_before_any_run(self, monkeypatch, setting):
        ran = []
        monkeypatch.setattr(runner, "run_single", lambda *args, **kw: ran.append(args))
        with pytest.raises(ParameterError):
            run_sweep(small_spec(**setting))
        with pytest.raises(ParameterError):
            replace(preset("fig3c"), **setting)
        assert ran == []

    def test_largest_sweep_within_limit(self):
        most = runner.SWEEP_RUN_LIMIT // 2
        small_spec(grid=(1.0, 2.0), replicates_per_point=most)
        with pytest.raises(ParameterError, match=f"holds 1 to {runner.SWEEP_RUN_LIMIT} runs"):
            small_spec(grid=(1.0, 2.0), replicates_per_point=most + 1)

    @pytest.mark.parametrize("threads", [0, runner.MAX_THREADS + 1, 10**18])
    def test_threads_checked_before_any_run(self, monkeypatch, threads):
        # a pool is never built, so no thread starts
        ran = []
        monkeypatch.setattr(runner, "run_single", lambda *args, **kw: ran.append(args))
        monkeypatch.setattr(runner, "ThreadPoolExecutor", None)
        with pytest.raises(ParameterError, match="threads must be >= 1 and <= "):
            run_sweep(small_spec(), threads=threads)
        assert ran == []

    def test_single_point_matches_run_single(self):
        spec = small_spec(grid=(2.0,))
        row = run_sweep(spec)[0]
        params = spec.params_at(2.0)
        result = run_single(params, spec.regime, samples=spec.samples,
                            bins=spec.bins, seed=SeedSpec(spec.master_seed, 0))
        assert row.kl == result.report.kl
        assert row.smoothed_bins == result.report.smoothed_bins

    def test_replicates_have_distinct_seeds(self):
        spec = small_spec(grid=(2.0,), replicates_per_point=3)
        rows = run_sweep(spec)
        seeds = {row.seed for row in rows}
        assert len(seeds) == 3
        kls = {row.kl for row in rows}
        assert len(kls) == 3  # independent replicates

    # 300 runs make shares of two runs each
    @pytest.mark.parametrize("spec", [
        small_spec(), small_spec(samples=200, replicates_per_point=100),
    ], ids=["single_run_shares", "two_run_shares"])
    def test_thread_count_does_not_change_results(self, spec):
        serial = run_sweep(spec, threads=1)
        parallel = run_sweep(spec, threads=4)
        assert len(serial) == len(parallel) == len(spec.grid) * spec.replicates_per_point
        for a, b in zip(serial, parallel):
            assert a.kl == b.kl
            assert a.smoothed_bins == b.smoothed_bins
            assert a.varied_value == b.varied_value
            assert a.seed == b.seed

    @pytest.mark.parametrize("threads", [1, 2])
    def test_submits_at_most_max_threads_shares(self, monkeypatch, threads):
        monkeypatch.setattr(runner, "run_single", lambda *args, **kw: STUB_RUN)
        submitted = []
        submit = ThreadPoolExecutor.submit

        def counting(pool, *args, **kw):
            submitted.append(args)
            return submit(pool, *args, **kw)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting)
        spec = small_spec(grid=(1.0, 2.0), replicates_per_point=5000)
        rows = run_sweep(spec, threads=threads)
        assert len(submitted) <= runner.MAX_THREADS
        assert [row.seed for row in rows] == [
            SeedSpec(spec.master_seed, run * STREAMS_PER_RUN) for run in range(2 * 5000)
        ]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_share_starts_after_a_failed_one(self, monkeypatch, threads):
        calls = []

        def fail_on_run_0(*args, seed, **kw):
            calls.append(seed)
            if seed.stream_index == 0:
                raise ParameterError("run 0 failed")
            return STUB_RUN

        monkeypatch.setattr(runner, "run_single", fail_on_run_0)
        spec = small_spec(grid=(1.0, 2.0), replicates_per_point=5000)
        with pytest.raises(ParameterError, match="run 0 failed"):
            run_sweep(spec, threads=threads)
        assert len(calls) <= threads * math.ceil(10**4 / runner.MAX_THREADS)

    def test_first_error_under_rapid_thread_switches(self, monkeypatch):
        # from run 500 on every 7th run fails, in many shares at once
        def fail_from_run_500(*args, seed, **kw):
            run = seed.stream_index // STREAMS_PER_RUN
            if run >= 500 and run % 7 == 0:
                raise ParameterError(f"run {run} failed")
            return STUB_RUN

        monkeypatch.setattr(runner, "run_single", fail_from_run_500)
        spec = small_spec(grid=(1.0, 2.0), replicates_per_point=5000)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                with pytest.raises(ParameterError, match="^run 504 failed$"):
                    run_sweep(spec, threads=8)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_error_is_the_first_failing_runs(self, threads):
        # (s - r)**2 overflows under case 3 at s = 1e160 and 1e170; 300 runs
        # make shares of two runs each
        spec = small_spec(regime=Regime(RegimeKind.LIGHT_DENOMINATOR), vary="s", samples=200,
                          grid=(1.5, 2.0, 1e160, 3.0, 1e170), replicates_per_point=60)
        with pytest.raises(ParameterError, match=r"overflows at s=1e\+160,"):
            run_sweep(spec, threads=threads)

    def test_invalid_grid_point_fails_fast(self):
        spec = small_spec(vary="p", grid=(0.5, 1.5))
        with pytest.raises(ParameterError):
            run_sweep(spec)

    def test_real_size_values_round_as_floats_do(self):
        # np.float32 (not a float subclass) used to reach ModelParams unrounded
        spec = small_spec(vary="m")
        want = spec.params_at(1000.4)
        assert want.m == 1000
        for value in (np.float32(1000.4), np.float64(1000.4), np.float16(1000.0),
                      Fraction(5002, 5), Fraction(2001, 2)):
            assert spec.params_at(value) == want
        assert spec.params_at(np.int64(7)).m == 7
        for value in (True, np.float32("inf"), np.float32("nan"), Fraction(10**400)):
            with pytest.raises(ParameterError, match="m must be an integer, got "):
                spec.params_at(value)

    def test_rejects_unknown_vary(self):
        with pytest.raises(ParameterError):
            small_spec(vary="q")

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            small_spec(grid=())


class TestPresets:
    def test_all_presets_constructible(self):
        for name in PRESET_NAMES:
            spec = replace(preset(name), samples=100)
            assert len(spec.grid) >= 2
            for value in spec.grid:
                spec.params_at(value)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            preset("fig9z")

    def test_p_grids_stay_interior(self):
        spec = replace(preset("fig2a"), samples=100)
        assert min(spec.grid) >= 0.01
        assert max(spec.grid) <= 0.99


class TestRunMemoryBudget:
    def test_presets_and_benchmark_sizes_within_budget(self):
        for name in PRESET_NAMES:
            preset(name)  # 100k samples, the default bins
        # the benchmark's two sweep workloads run 100k and 2000 samples
        for samples in (runner.DEFAULT_SAMPLES, 2000):
            small_spec(samples=samples, bins=runner.DEFAULT_BIN_COUNT)

    def test_largest_run_within_budget(self):
        budget = runner.RUN_MEMORY_BUDGET
        most = (budget - 2 * runner._BIN_BYTES) // runner._SAMPLE_BYTES
        runner._check_run_size(most, 2)
        with pytest.raises(ParameterError, match="over the run memory budget"):
            runner._check_run_size(most + 1, 2)

    def test_largest_bound_within_budget(self, monkeypatch):
        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted  # the size passed the check; nothing is drawn

        monkeypatch.setattr(runner, "draw_counts", admitted)
        budget = runner.RUN_MEMORY_BUDGET
        most = budget // runner._BOUND_SAMPLE_BYTES
        with pytest.raises(Admitted):
            run_bound_diagnostics(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, None),
                                  samples=most)
        # the need is rounded up, so it reads above the budget it names
        message = (f"{most + 1} samples need about {(budget >> 20) + 1} MiB, "
                   f"over the run memory budget of {budget >> 20} MiB")
        with pytest.raises(ParameterError, match=f"^{message}$"):
            run_bound_diagnostics(BALANCED_PARAMS, Regime(RegimeKind.BALANCED, None),
                                  samples=most + 1)


class TestRunPeakMemory:
    """A run holds two sample-length float arrays at once, plus byte masks."""

    @staticmethod
    def peak_bytes_per_sample(params, regime, samples):
        run_single(params, regime, samples=100)  # imports and the thread generator
        tracemalloc.start()
        try:
            run_single(params, regime, samples=samples)
            return tracemalloc.get_traced_memory()[1] / samples
        finally:
            tracemalloc.stop()

    def test_positive_counts(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        assert self.peak_bytes_per_sample(params, Regime(RegimeKind.BALANCED, None), 10**5) <= 18

    def test_zero_counts(self):
        params = ModelParams(n=3, m=3, p=0.5, s=1.0, r=1.0)
        assert self.peak_bytes_per_sample(params, Regime(RegimeKind.BALANCED, None), 10**5) <= 20


class TestBoundDiagnostics:
    def test_balanced_quantiles_shrink_with_size(self):
        rows = [
            run_bound_diagnostics(
                ModelParams(n=n, m=n, p=0.5, s=15.0, r=15.0),
                Regime(RegimeKind.BALANCED, 1.0),
                samples=10_000,
                seed=SeedSpec(1),
            )
            for n in (10**4, 10**5)
        ]
        assert rows[1].q99 < rows[0].q99
        assert rows[1].bound < rows[0].bound

    def test_collapse_bound_dwarfs_balanced_bound(self):
        collapse = run_bound_diagnostics(
            ModelParams(n=200_000, m=2_000_000_000, p=0.5, s=15.0, r=15.0),
            Regime(RegimeKind.COLLAPSE),
            samples=1000,
            seed=SeedSpec(2),
        )
        assert collapse.bound > 1.0
        assert collapse.q100 >= collapse.q99 >= collapse.q50 >= 0.0

    @pytest.mark.parametrize("params, regime", [
        (ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0),
         Regime(RegimeKind.BALANCED, None)),
        (ModelParams(n=3, m=3, p=0.5, s=1.0, r=1.0), Regime(RegimeKind.BALANCED, None)),  # x = 0
        (ModelParams(n=200_000, m=2_000_000_000, p=0.5, s=15.0, r=15.0),
         Regime(RegimeKind.COLLAPSE)),
    ], ids=["fig3", "zero_counts", "collapse"])
    def test_same_bits_as_the_copying_path(self, params, regime):
        # the quantiles of |scale * Q| formed from counts that stay as drawn
        seed = SeedSpec(5)
        law = limit_law(params, regime)
        with thread_generator_scope():
            x, y = sampling.draw_counts(params, 5000, seed)
        scaled_q = np.abs(scaled_remainder_samples(params, law, x, y))
        q50, q99 = np.quantile(scaled_q, [0.5, 0.99])
        with thread_generator_scope():
            row = run_bound_diagnostics(params, regime, samples=5000, seed=seed)
        assert (row.q50, row.q99, row.q100) == (q50, q99, scaled_q.max())

    def test_peak_memory_per_sample(self):
        # the two count buffers, the linear term and one temporary of it
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        run_bound_diagnostics(params, Regime(RegimeKind.BALANCED, None), samples=100)
        tracemalloc.start()
        try:
            run_bound_diagnostics(params, Regime(RegimeKind.BALANCED, None), samples=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 10**5 <= 33

    def test_non_finite_quantiles_rejected(self):
        # case 3 at r = s: the variance is exactly 0, scale * center
        # underflows to 0 and expm1 overflows where x/(x+y) > 0.50036,
        # so 0 * inf makes the quantiles NaN
        with pytest.raises(ParameterError, match="bound diagnostics are not finite"):
            run_bound_diagnostics(
                ModelParams(n=1000, m=1000, p=0.5, s=1e6, r=1e6),
                Regime(RegimeKind.LIGHT_DENOMINATOR),
                samples=100,
            )
