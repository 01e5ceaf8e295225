import math
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binratio import (
    ModelParams,
    ParameterError,
    Regime,
    RegimeError,
    RegimeKind,
    SweepSpec,
    exact_distribution,
    limit_law,
    run_bound_diagnostics,
    run_single,
)
from binratio.model import _balanced_variance, _light_denominator_variance
from binratio.runner import preset


class TestModelParams:
    def test_valid(self):
        p = ModelParams(n=10, m=20, p=0.5, s=2.0, r=1.0)
        assert p.n == 10 and p.m == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, m=1, p=0.5, s=1.0, r=1.0),
            dict(n=1, m=0, p=0.5, s=1.0, r=1.0),
            dict(n=1, m=1, p=0.0, s=1.0, r=1.0),
            dict(n=1, m=1, p=1.0, s=1.0, r=1.0),
            dict(n=1, m=1, p=0.5, s=0.0, r=1.0),
            dict(n=1, m=1, p=0.5, s=1.0, r=-2.0),
            dict(n=1, m=1, p=0.5, s=math.inf, r=1.0),
            dict(n=1, m=1, p="0.5", s=1.0, r=1.0),
            dict(n=1, m=1, p=0.5, s="1", r=1.0),
            dict(n=1, m=1, p=0.5, s=1.0, r=None),
            dict(n=1, m=1, p=0.5, s=10**400, r=1.0),  # no float holds it
            dict(n=1, m=1, p=0.5, s=1.0, r=10**400),
            # a bool is an int to Python, but no model number
            dict(n=True, m=1, p=0.5, s=1.0, r=1.0),
            dict(n=1, m=True, p=0.5, s=1.0, r=1.0),
            dict(n=1, m=1, p=0.5, s=True, r=1.0),
            dict(n=1, m=1, p=0.5, s=1.0, r=True),
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    def test_stores_python_floats(self):
        params = ModelParams(n=1, m=1, p=np.float64(0.25), s=2, r=np.float64(0.5))
        assert astuple(params) == (1, 1, 0.25, 2.0, 0.5)
        assert all(type(v) is float for v in (params.p, params.s, params.r))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_numpy_floats_check_without_warning(self, dtype):
        # float_info.max cast to a narrow float warned "overflow encountered in cast"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            params = ModelParams(n=1, m=1, p=0.5, s=dtype(2.0), r=dtype(0.5))
            assert (params.s, params.r) == (2.0, 0.5)
            assert Regime.case_ii(dtype(1.5)).alpha == 1.5
            with pytest.raises(ParameterError, match="s must be"):
                ModelParams(n=1, m=1, p=0.5, s=dtype("inf"), r=1.0)
            with pytest.raises(RegimeError):
                Regime.case_ii(dtype(0.0))

    def test_fraction_beyond_float_range_rejected_exactly(self):
        # float() of it raises OverflowError, so it is compared as it is
        with pytest.raises(ParameterError, match="r must be"):
            ModelParams(n=1, m=1, p=0.5, s=1.0, r=Fraction(2**1026, 3))

    def test_numpy_scalar_p_overflow_is_one_clean_error(self):
        # in numpy, p ** (2(s-r)-1) warned and returned inf
        params = ModelParams(n=10, m=10, p=np.float64(1e-12), s=1.0, r=30.0)
        message = r"overflows at s=1\.0, r=30\.0, p=1e-12 "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=message):
                limit_law(params, Regime.case_i())


class TestRegime:
    def test_balanced_needs_positive_alpha(self):
        with pytest.raises(RegimeError):
            Regime.case_ii(0.0)
        with pytest.raises(RegimeError):
            Regime.case_ii(-1.0)
        with pytest.raises(RegimeError):
            Regime.case_ii(math.inf)
        with pytest.raises(RegimeError):
            Regime.case_ii("x")
        with pytest.raises(RegimeError):
            Regime.case_ii(10**400)
        with pytest.raises(RegimeError):
            Regime(RegimeKind.BALANCED, True)

    @pytest.mark.parametrize("args", [("case2", 1.0), ("case1",), ("collapse",)],
                             ids=["case2-str", "case1-str", "collapse-str"])
    def test_kind_must_be_a_regime_kind(self, args):
        # a plain string is not a RegimeKind, though it equals one's value
        with pytest.raises(RegimeError, match="must be a RegimeKind"):
            Regime(*args)

    def test_alpha_only_for_balanced(self):
        with pytest.raises(RegimeError):
            Regime(RegimeKind.HEAVY_DENOMINATOR, alpha=1.0)

    @pytest.mark.parametrize("params", [
        ModelParams(n=250, m=100, p=0.3, s=2.0, r=1.5),
        ModelParams(n=100, m=250, p=0.5, s=1.0, r=1.0),
        preset("fig3a").base,
    ], ids=["m_below_n", "m_above_n", "fig3_base"])
    def test_limit_law_without_alpha_takes_m_over_n(self, params):
        implicit = limit_law(params, Regime.case_ii(None))
        explicit = limit_law(params, Regime.case_ii(params.m / params.n))
        assert [v.hex() for v in astuple(implicit)] == [
            v.hex() for v in astuple(explicit)
        ]


class TestLimitLaw:
    def test_balanced_variance_direct_substitution(self):
        # p^-1 (1-p) ((2-1)^2 + 1) / 2^4 = 2/16
        params = ModelParams(n=10**6, m=10**6, p=0.5, s=1.0, r=1.0)
        law = limit_law(params, Regime.case_ii(1.0))
        assert law.variance == pytest.approx(0.125, rel=1e-12)

    def test_degenerate_variance_at_equal_exponents(self):
        params = ModelParams(n=123, m=456, p=0.3, s=7.0, r=7.0)
        law = limit_law(params, Regime.case_iii())
        assert law.variance == 0.0

    @pytest.mark.parametrize("params, regime", [
        # p^(2(s-r)-1) = 1e-300^57 underflows; (s - r)^2 is not 0
        (ModelParams(n=1, m=1, p=1e-300, s=30.0, r=1.0), Regime.case_iii()),
        # (1 + alpha)^-(2(r+1)) underflows at alpha = 1e150
        (ModelParams(n=10, m=10, p=0.5, s=2.0, r=2.0), Regime.case_ii(1e150)),
        # (s(1 + alpha) - r)^2 + alpha r^2 underflows to 0 before its log
        (ModelParams(n=2, m=300, p=0.5, s=1e-320, r=1e-300), Regime.case_ii(None)),
    ], ids=["prefactor", "balanced_alpha", "balanced_numerator"])
    def test_underflowing_variance_is_parameter_error(self, params, regime):
        with pytest.raises(ParameterError, match="underflows to 0"):
            limit_law(params, regime)

    def test_center_half_for_symmetric_unit_exponents(self):
        for regime in [Regime.case_i(), Regime.case_ii(1.0), Regime.case_iii()]:
            params = ModelParams(n=500, m=500, p=0.5, s=1.0, r=1.0)
            law = limit_law(params, regime)
            assert law.center == pytest.approx(0.5, rel=1e-12)

    def test_log_center_reproduces_center(self):
        params = ModelParams(n=1234, m=987, p=0.37, s=3.5, r=2.25)
        law = limit_law(params, Regime.case_i())
        assert math.exp(law.log_center) == pytest.approx(law.center, rel=1e-12)

    def test_log_center_finite_when_powers_overflow(self):
        # n^s alone is ~1e270; the log-space center stays finite.
        params = ModelParams(n=10**9, m=10**9, p=0.5, s=30.0, r=30.0)
        law = limit_law(params, Regime.case_ii(1.0))
        assert math.isfinite(law.log_center)
        assert law.center > 0

    def test_variance_within_25pct_of_enumeration(self):
        from binratio import exact_distribution

        params = ModelParams(n=40, m=60, p=0.5, s=2.0, r=1.0)
        regime = Regime.case_ii(1.5)
        law = limit_law(params, regime)
        exact = exact_distribution(params, regime)
        assert law.variance == pytest.approx(exact.variance, rel=0.25)

    def test_collapse_uses_heavy_denominator_variance(self):
        params = ModelParams(n=200_000, m=2_000_000_000, p=0.5, s=15.0, r=15.0)
        collapse = limit_law(params, Regime.collapse())
        heavy = limit_law(params, Regime.case_i())
        assert collapse.variance == heavy.variance
        # but the collapse scaling is the balanced/light one
        balanced_like = limit_law(params, Regime.case_iii())
        assert collapse.log_scale == balanced_like.log_scale

    @pytest.mark.parametrize("regime", [
        Regime.case_i(), Regime.case_ii(1.0), Regime.case_iii(), Regime.collapse(),
    ])
    def test_overflowing_prefactor_is_parameter_error(self, regime):
        # p^(2(s-r)-1) = 1e-12^-59 is not a float
        params = ModelParams(n=10, m=10, p=1e-12, s=1.0, r=30.0)
        with pytest.raises(ParameterError, match="overflows"):
            limit_law(params, regime)

    def test_overflowing_variance_is_parameter_error(self):
        # the prefactor 1e-12^-25.4 is finite, its product with s^2 is not
        params = ModelParams(n=10, m=10, p=1e-12, s=100.0, r=112.2)
        with pytest.raises(ParameterError, match="overflows"):
            limit_law(params, Regime.case_i())
        # (s(1 + alpha) - r)^2 of the balanced variance overflows on its own
        for s, r, alpha in [(1e300, 1.0, 1.0), (1.0, 1.0, 1e308), (1.0, 1e300, 1.0)]:
            params = ModelParams(n=100, m=100, p=0.5, s=s, r=r)
            with pytest.raises(ParameterError, match="overflows"):
                limit_law(params, Regime.case_ii(alpha))
        # and (s - r)^2 of the light-denominator variance
        params = ModelParams(n=1000, m=10, p=0.5, s=1e300, r=1.0)
        with pytest.raises(ParameterError, match="overflows"):
            limit_law(params, Regime.case_iii())


# every entry point that makes a law, called with (params, regime)
LAW_MAKERS = {
    "limit_law": limit_law,
    "run_single": lambda params, regime: run_single(params, regime, samples=100),
    "run_bound_diagnostics": lambda params, regime: run_bound_diagnostics(
        params, regime, samples=100),
    "exact_distribution": exact_distribution,
    "SweepSpec": lambda params, regime: SweepSpec(
        base=params, regime=regime, vary="p", grid=(0.5,), samples=100),
}


@pytest.mark.parametrize("make", LAW_MAKERS.values(), ids=LAW_MAKERS)
class TestArgumentTypes:
    """A wrong params or regime type is one ParameterError or RegimeError."""

    PARAMS = ModelParams(n=1000, m=1000, p=0.5, s=2.0, r=1.0)

    def test_params_must_be_model_params(self, make):
        with pytest.raises(ParameterError, match=r"must be a ModelParams, got \(1000, "):
            make(astuple(self.PARAMS), Regime.case_ii(None))

    def test_regime_must_be_a_regime(self, make):
        with pytest.raises(RegimeError, match="regime must be a Regime, got 'case2'"):
            make(self.PARAMS, "case2")


def test_raw_oracle_params_must_be_model_params():
    with pytest.raises(ParameterError, match=r"params must be a ModelParams, got \(1, 2\)"):
        exact_distribution((1, 2))


class TestVarianceConsistency:
    def test_continuity_at_zero_alpha(self):
        v2 = _balanced_variance(0.5, 2.0, 1.0, 1e-9)
        v3 = _light_denominator_variance(0.5, 2.0, 1.0)
        assert v2 == pytest.approx(v3, rel=1e-6)

    def test_degenerate_light_component(self):
        assert _light_denominator_variance(0.5, 15.0, 15.0) == 0.0

    def test_both_positive(self):
        v2 = _balanced_variance(0.3, 3.0, 2.0, 2.0)
        v3 = _light_denominator_variance(0.3, 3.0, 2.0)
        assert v2 > 0 and v3 > 0

    @pytest.mark.parametrize("alpha", [1e-3, 1e-6, 1e-9])
    def test_balanced_tends_to_light(self, alpha):
        v2 = _balanced_variance(0.4, 2.0, 1.0, alpha)
        v3 = _light_denominator_variance(0.4, 2.0, 1.0)
        assert v2 == pytest.approx(v3, rel=20 * alpha)

    def test_balanced_tends_to_heavy_at_large_alpha(self):
        # (1+a)^(2(r+1)) v2(a) / (s(1+a))^2 -> p^(2(s-r)-1)(1-p)
        p, s, r = 0.5, 2.0, 1.0
        alpha = 1e9
        v2 = _balanced_variance(p, s, r, alpha)
        limit = v2 * (1 + alpha) ** (2 * (r + 1)) / (s * (1 + alpha)) ** 2
        assert limit == pytest.approx(p ** (2 * (s - r) - 1) * (1 - p), rel=1e-6)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(0.01, 0.99),
    s=st.floats(0.5, 30.0),
    r=st.floats(0.5, 30.0),
    alpha=st.floats(1e-6, 1e6),
)
def test_variances_never_negative(p, s, r, alpha):
    params = ModelParams(n=100, m=100, p=p, s=s, r=r)
    for regime in [
        Regime.case_i(),
        Regime.case_ii(alpha),
        Regime.case_iii(),
        Regime.collapse(),
    ]:
        try:
            law = limit_law(params, regime)
        except ParameterError:
            # only the balanced formula underflows here (alpha and r large),
            # and a variance that underflows to 0 is rejected
            assert regime.kind is RegimeKind.BALANCED
            assert _balanced_variance(p, s, r, alpha) == 0.0
            continue
        assert law.variance >= 0


@settings(max_examples=100, deadline=None)
@given(p=st.floats(0.01, 0.99), s=st.floats(0.5, 30.0), r=st.floats(0.5, 30.0))
def test_variance_zero_only_for_light_regime_equal_exponents(p, s, r):
    zero = _light_denominator_variance(p, s, r) == 0.0
    assert zero == (s == r)
