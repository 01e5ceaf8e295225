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


class TestRunSweep:
    def test_rows_in_grid_order(self):
        rows = run_sweep(small_spec())
        assert [row.varied_value for row in rows] == [1.0, 2.0, 3.0]

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
