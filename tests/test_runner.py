import numpy as np
import pytest

from binratio import (
    Direction,
    ModelParams,
    ParameterError,
    Regime,
    SweepSpec,
    run_bound_diagnostics,
    run_single,
    run_sweep,
)
from binratio import runner, sampling
from binratio.runner import PRESET_NAMES, _point_seed, preset
from binratio.sampling import SeedSpec


BALANCED_PARAMS = ModelParams(n=10**5, m=10**5, p=0.5, s=2.0, r=1.0)


def small_spec(**overrides):
    kwargs = dict(
        base=BALANCED_PARAMS,
        regime=Regime.case_ii(None),
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
        a = run_single(BALANCED_PARAMS, Regime.case_ii(1.0), samples=2000,
                       seed=SeedSpec(3))
        b = run_single(BALANCED_PARAMS, Regime.case_ii(1.0), samples=2000,
                       seed=SeedSpec(3))
        assert a.report == b.report
        assert np.array_equal(a.simulated.values, b.simulated.values)

    def test_seed_stability_of_kl(self):
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=15.0, r=15.0)
        kls = [
            run_single(params, Regime.case_ii(1.0), samples=10**5,
                       seed=SeedSpec(seed)).report.kl
            for seed in (101, 202)
        ]
        assert abs(kls[0] - kls[1]) < 0.02

    def test_direction_defaults(self):
        fwd = run_single(BALANCED_PARAMS, Regime.case_ii(1.0), samples=1000)
        assert fwd.report.direction is Direction.FORWARD
        collapse_params = ModelParams(n=10**4, m=10**7, p=0.5, s=3.0, r=3.0)
        rev = run_single(collapse_params, Regime.collapse(), samples=1000)
        assert rev.report.direction is Direction.REVERSED

    def test_unresolved_balanced_alpha_is_m_over_n(self):
        params = ModelParams(n=1000, m=2500, p=0.5, s=2.0, r=1.0)
        implicit = run_single(params, Regime.case_ii(None), samples=2000)
        explicit = run_single(params, Regime.case_ii(2.5), samples=2000)
        assert implicit.report == explicit.report
        assert np.array_equal(implicit.simulated.values, explicit.simulated.values)
        assert np.array_equal(implicit.reference.values, explicit.reference.values)


def assert_same_run(a, b):
    assert a.report == b.report and a.seed == b.seed
    for got, want in ((a.simulated, b.simulated), (a.reference, b.reference)):
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
        (BALANCED_PARAMS, Regime.case_ii(1.0), SeedSpec(3)),
        (ModelParams(n=12, m=9, p=0.2, s=1.0, r=1.0), Regime.case_ii(None),
         SeedSpec(3, 7)),
        (ModelParams(n=10**4, m=10**7, p=0.5, s=3.0, r=3.0), Regime.collapse(),
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
    # each thread builds one generator per sweep or bound diagnostic and
    # re-keys it for every stream
    @pytest.fixture
    def built(self, monkeypatch):
        seeds = []
        make = sampling.make_generator

        def counting(seed):
            seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(sampling, "make_generator", counting)
        return seeds

    def test_one_per_serial_sweep(self, built):
        spec = small_spec(replicates_per_point=2)
        run_sweep(spec)
        assert len(built) == 1
        run_sweep(spec)
        assert len(built) == 2

    def test_at_most_one_per_pool_thread(self, built):
        run_sweep(small_spec(replicates_per_point=2), threads=2)
        assert 1 <= len(built) <= 2

    def test_one_per_bound_diagnostic(self, built):
        for _ in range(2):
            run_bound_diagnostics(BALANCED_PARAMS, Regime.case_ii(1.0), samples=100)
        assert len(built) == 2


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

    def test_single_point_matches_run_single(self):
        spec = small_spec(grid=(2.0,))
        row = run_sweep(spec)[0]
        params = spec.params_at(2.0)
        result = run_single(params, spec.regime, samples=spec.samples,
                            bins=spec.bins, seed=_point_seed(spec, 0, 0))
        assert row.kl == result.report.kl
        assert row.smoothed_bins == result.report.smoothed_bins

    def test_replicates_have_distinct_seeds(self):
        spec = small_spec(grid=(2.0,), replicates_per_point=3)
        rows = run_sweep(spec)
        seeds = {row.seed for row in rows}
        assert len(seeds) == 3
        kls = {row.kl for row in rows}
        assert len(kls) == 3  # independent replicates

    def test_thread_count_does_not_change_results(self):
        spec = small_spec()
        serial = run_sweep(spec, threads=1)
        parallel = run_sweep(spec, threads=4)
        for a, b in zip(serial, parallel):
            assert a.kl == b.kl
            assert a.varied_value == b.varied_value
            assert a.seed == b.seed

    def test_invalid_grid_point_fails_fast(self):
        spec = small_spec(vary="p", grid=(0.5, 1.5))
        with pytest.raises(ParameterError):
            run_sweep(spec)

    def test_rejects_unknown_vary(self):
        with pytest.raises(ParameterError):
            small_spec(vary="q")

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            small_spec(grid=())


class TestPresets:
    def test_all_presets_constructible(self):
        import warnings

        for name in PRESET_NAMES:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                spec = preset(name, samples=100)
            assert len(spec.grid) >= 2
            for value in spec.grid:
                spec.params_at(value)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            preset("fig9z")

    def test_fig4d_warns_about_published_range(self):
        with pytest.warns(UserWarning):
            preset("fig4d", samples=100)

    def test_p_grids_stay_interior(self):
        spec = preset("fig2a", samples=100)
        assert min(spec.grid) >= 0.01
        assert max(spec.grid) <= 0.99


class TestBoundDiagnostics:
    def test_balanced_quantiles_shrink_with_size(self):
        rows = [
            run_bound_diagnostics(
                ModelParams(n=n, m=n, p=0.5, s=15.0, r=15.0),
                Regime.case_ii(1.0),
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
            Regime.collapse(),
            samples=1000,
            seed=SeedSpec(2),
        )
        assert collapse.bound > 1.0
        assert collapse.q100 >= collapse.q99 >= collapse.q50 >= 0.0
