import math

import numpy as np
import pytest

from binratio import (
    Direction,
    ParameterError,
    common_bins,
    compare_batches,
    kl_divergence,
)
from binratio.divergence import Histogram, histogram
from binratio.sampling import SeedSpec, make_generator


def sorted_of(values):
    return np.sort(np.asarray(values, dtype=np.float64))


def hist_of(mass, edges=None, count=1000):
    mass = np.asarray(mass, dtype=np.float64)
    if edges is None:
        edges = np.arange(len(mass) + 1, dtype=np.float64)
    return Histogram(
        edges=np.asarray(edges, dtype=np.float64),
        mass=mass,
        count=count,
    )


def reference_histogram(values, edges):
    """np.histogram's mass: what ``histogram`` must match."""
    values = np.asarray(values, dtype=np.float64)
    counts, _ = np.histogram(values, bins=edges)
    return counts / len(values)


def assert_matches_reference(values, edges):
    h = histogram(sorted_of(values), edges)
    mass = reference_histogram(values, edges)
    assert np.array_equal(h.mass.view(np.uint64), mass.view(np.uint64))
    assert np.array_equal(h.edges, np.asarray(edges, dtype=np.float64))
    return h


def reference_common_bins(a, b, bin_count):
    """The pooled range from four min/max passes, as binning did before it
    read the range from the sorted ends."""
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bin_count + 1)


def reference_binned_histogram(values, edges):
    """A histogram that sorts its own copy of the sample and edges."""
    edges = np.array(edges, dtype=np.float64)
    ordered = np.sort(values)
    cum = ordered.searchsorted(edges)
    cum[-1] = ordered.searchsorted(edges[-1], side="right")
    return Histogram(
        edges=edges,
        mass=(cum[1:] - cum[:-1]) / len(values),
        count=len(values),
    )


def reference_compare(a, b, direction, bin_count):
    edges = reference_common_bins(a, b, bin_count)
    return kl_divergence(
        reference_binned_histogram(a, edges),
        reference_binned_histogram(b, edges),
        direction,
    )


class TestCommonBins:
    def test_unit_range_width(self):
        edges = common_bins(sorted_of([0.0]), sorted_of([1.0]), 100)
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert np.allclose(np.diff(edges), 0.01)

    def test_degenerate_range_widens(self):
        edges = common_bins(sorted_of([3.0, 3.0]), sorted_of([3.0]), 100)
        assert edges[0] == pytest.approx(2.5)
        assert edges[-1] == pytest.approx(3.5)

    def test_pooled_width(self):
        edges = common_bins(sorted_of([-3.2, 0.0]), sorted_of([4.8]), 100)
        assert np.allclose(np.diff(edges), 0.08)

    def test_rejects_tiny_bin_count(self):
        with pytest.raises(ParameterError):
            common_bins(sorted_of([0.0]), sorted_of([1.0]), 1)

    @pytest.mark.parametrize("bin_count", [2.5, 3.0, True, "3"])
    def test_rejects_non_integer_bin_count(self, bin_count):
        with pytest.raises(ParameterError, match="bin_count must be an integer, got "):
            common_bins(sorted_of([0.0]), sorted_of([1.0]), bin_count)


class TestHistogram:
    def test_mass_sums_to_one_inside_range(self):
        gen = make_generator(SeedSpec(1))
        a = sorted_of(gen.normal(size=5000))
        edges = common_bins(a, a, 100)
        h = histogram(a, edges)
        assert math.fsum(h.mass) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_counted(self):
        h = histogram(sorted_of([-5.0, 0.5, 7.0]), np.linspace(0, 1, 11))
        assert math.fsum(h.mass) == pytest.approx(1 / 3)

    def test_caller_edges_stay_writable(self):
        edges = np.linspace(0, 1, 11)
        h = histogram(sorted_of([0.2, 0.5]), edges)
        assert h.edges is edges and edges.flags.writeable  # held as given

    def test_common_bins_edges_are_shared_read_only(self):
        a = sorted_of([0.2, 0.5])
        edges = common_bins(a, a, 10)
        assert not edges.flags.writeable
        assert histogram(a, edges).edges is edges

    def test_rejects_bad_edges(self):
        with pytest.raises(ParameterError):
            hist_of([1.0], edges=[0.0, 0.0])

    def test_rejects_decreasing_and_nan_edges(self):
        with pytest.raises(ParameterError):
            hist_of([1.0, 1.0], edges=[0.0, 2.0, 1.0])
        with pytest.raises(ParameterError):
            hist_of([1.0, 1.0], edges=[0.0, np.nan, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_batches_with_ties_match_np_histogram(self, seed):
        rng = np.random.default_rng(seed)
        # coarse rounding makes many ties and many values sit on edges
        values = np.round(rng.normal(size=3000) * 4) / 4
        a = sorted_of(values)
        assert_matches_reference(values, common_bins(a, a, 100))
        assert_matches_reference(values, np.linspace(-2.0, 2.0, 17))  # on-edge values
        assert_matches_reference(values, np.linspace(-1.1, 0.3, 7))  # most outside

    def test_values_on_every_edge(self):
        edges = np.linspace(0.0, 1.0, 11)
        h = assert_matches_reference(np.repeat(edges, 3), edges)
        # the last bin is right-inclusive, every other bin right-open
        assert np.array_equal(h.mass * h.count, [3] * 9 + [6])

    def test_outside_both_ends(self):
        values = [-np.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 1.0 + 1e-15, 3.0, np.inf]
        h = assert_matches_reference(values, np.linspace(0, 1, 4))
        assert round(h.mass.sum() * h.count) == 3  # 0.0, 0.5 and 1.0

    def test_all_values_outside(self):
        h = assert_matches_reference([-3.0, -2.0, 5.0], np.linspace(0, 1, 3))
        assert not h.mass.any()


class TestKLDivergence:
    def test_identical_histograms_give_exact_zero(self):
        h = hist_of([0.25, 0.5, 0.25])
        report = kl_divergence(h, h, Direction.FORWARD)
        assert report.kl == 0.0
        assert report.smoothed_bins == 0

    def test_two_bin_hand_computation(self):
        a = hist_of([0.5, 0.5])
        b = hist_of([0.25, 0.75])
        report = kl_divergence(a, b, Direction.FORWARD)
        expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert report.kl == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.1438, abs=1e-4)

    def test_concentrated_vs_spread_smoothing_structure(self):
        concentrated = hist_of([1.0, 0.0, 0.0, 0.0], count=100)
        spread = hist_of([0.25, 0.25, 0.25, 0.25], count=100)
        fwd = kl_divergence(spread, concentrated, Direction.FORWARD)
        rev = kl_divergence(spread, concentrated, Direction.REVERSED)
        # forward (spread as numerator) needs the 1/(2N) floor in 3 bins;
        # reversed is finite without any smoothing
        assert fwd.smoothed_bins == 3
        assert rev.smoothed_bins == 0
        assert math.isfinite(fwd.kl) and math.isfinite(rev.kl)

    @pytest.mark.parametrize("direction", ["forward", "reversed", "sideways", None])
    def test_direction_must_be_a_direction(self, direction):
        # a value string equals its Direction but is not one; "forward" used
        # to compute the reversed KL under the label "forward"
        a, b = hist_of([0.5, 0.5]), hist_of([0.25, 0.75])
        with pytest.raises(ParameterError, match="direction must be a Direction, got "):
            kl_divergence(a, b, direction)

    def test_mismatched_edges_rejected(self):
        a = hist_of([0.5, 0.5], edges=[0, 1, 2])
        b = hist_of([0.5, 0.5], edges=[0, 1, 3])
        with pytest.raises(ParameterError):
            kl_divergence(a, b, Direction.FORWARD)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = rng.integers(2, 30)
            a = rng.dirichlet(np.ones(k))
            b = rng.dirichlet(np.ones(k))
            # randomly zero some denominator bins to exercise smoothing
            mask = rng.random(k) < 0.2
            b[mask] = 0.0
            edges = np.arange(k + 1, dtype=np.float64)
            report = kl_divergence(
                hist_of(a, edges), hist_of(b, edges), Direction.FORWARD
            )
            assert report.kl >= -1e-12


class TestCompareBatches:
    def test_same_distribution_low_divergence(self):
        a = sorted_of(make_generator(SeedSpec(0, 0)).normal(size=10**5))
        b = sorted_of(make_generator(SeedSpec(0, 1)).normal(size=10**5))
        report = compare_batches(a, b, Direction.FORWARD, 100)
        assert report.kl < 0.01

    def test_point_mass_reference_vs_diffuse_sample(self):
        diffuse = sorted_of(make_generator(SeedSpec(2)).normal(size=10**4))
        zeros = np.zeros(10**4)
        report = compare_batches(diffuse, zeros, Direction.FORWARD, 100)
        assert math.isfinite(report.kl)
        assert report.kl > 1.0

    def test_report_carries_compared_histograms(self):
        gen = make_generator(SeedSpec(4))
        a = sorted_of(gen.normal(size=2000))
        b = sorted_of(gen.normal(size=2000))
        report = compare_batches(a, b, Direction.FORWARD, 50)
        edges = common_bins(a, b, 50)
        for got, values in zip(report.histograms, (a, b)):
            want = histogram(values, edges)
            assert np.array_equal(got.edges, want.edges)
            assert np.array_equal(got.mass, want.mass)
            assert got.count == len(values)
        assert report == kl_divergence(*report.histograms, Direction.FORWARD)

    def test_only_reads_its_samples(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([0.5, 1.5, 2.5])
        compare_batches(a, b, Direction.FORWARD, 4)
        assert a.tolist() == [1.0, 2.0, 3.0] and b.tolist() == [0.5, 1.5, 2.5]

    def test_refining_bins_does_not_decrease_forward_kl(self):
        rng_pairs = np.random.default_rng(5)
        worst = 0.0
        for i in range(100):
            # uniform batches keep every refined bin populated
            a = sorted_of(rng_pairs.uniform(0, 1, 5000))
            b = sorted_of(rng_pairs.uniform(0, 1, 5000))
            coarse = compare_batches(a, b, Direction.FORWARD, 100)
            fine = compare_batches(a, b, Direction.FORWARD, 200)
            worst = min(worst, fine.kl - coarse.kl)
        assert worst >= -1e-12


def _bits(arr):
    return np.asarray(arr, dtype=np.float64).view(np.uint64)


def _tied(seed, size):
    rng = np.random.default_rng(seed)
    return np.round(rng.normal(size=size) * 4) / 4


def _with(values, index, extra):
    out = np.array(values, dtype=np.float64)
    out[index] = extra
    return out


_NORMAL = make_generator(SeedSpec(6)).normal(size=500)
_EDGE_VALUES = np.linspace(-1.0, 1.0, 21)

# (simulated, reference) pairs on which binning the sorted samples must agree
# with the min/max range plus per-histogram sort it replaced
EQUIVALENCE_CASES = {
    "ties": (_tied(0, 2000), _tied(1, 2000)),
    "values_on_edges": (np.repeat(_EDGE_VALUES, 3), _EDGE_VALUES[::-1].copy()),
    "one_sided_range": (np.linspace(0.0, 1.0, 50), np.full(50, 0.5)),
    "degenerate_pooled_range": (np.full(40, 3.0), np.full(40, 3.0)),
    "degenerate_zero_reference": (np.zeros(30), np.zeros(30)),
    "single_values": (np.array([2.0]), np.array([-1.0])),
}

# (simulated, reference, the sample the error names): a non-finite value
# in either sample has no place in the pooled range
NON_FINITE_CASES = {
    "inf_in_simulated": (_with(_NORMAL, 7, np.inf), _NORMAL[::-1].copy(), "simulated"),
    "minus_inf_in_reference": (_NORMAL, _with(_NORMAL, 3, -np.inf), "reference"),
    "nan_in_simulated": (_with(_NORMAL, 11, np.nan), _NORMAL[::-1].copy(), "simulated"),
    "nan_in_reference": (_NORMAL, _with(_NORMAL, 5, np.nan), "reference"),
    "nan_in_reference_outside_range": (
        np.linspace(-0.5, 0.5, 100),
        _with(_NORMAL, [0, 9], np.nan),
        "reference",
    ),
    "nan_in_both": (_with(_NORMAL, 2, np.nan), _with(_NORMAL, 4, np.nan), "simulated"),
    "all_nan_reference": (_NORMAL, np.full(20, np.nan), "reference"),
    "inf_at_both_ends": (
        _with(_NORMAL, [0, 1], [-np.inf, np.inf]), _NORMAL, "simulated",
    ),
}


class TestSortOnceMatchesReference:
    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("bin_count", [2, 7, 100])
    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_same_edges_bins_and_kl(self, case, bin_count, direction):
        a, b = EQUIVALENCE_CASES[case]
        want = reference_compare(a, b, direction, bin_count)
        got = compare_batches(sorted_of(a), sorted_of(b), direction, bin_count)
        assert got == want and got.bin_count == bin_count
        assert _bits(got.kl).tobytes() == _bits(want.kl).tobytes()
        for g, w in zip(got.histograms, want.histograms):
            assert np.array_equal(_bits(g.edges), _bits(w.edges))
            assert np.array_equal(_bits(g.mass), _bits(w.mass))
            assert g.count == w.count

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
    def test_non_finite_value_names_its_sample(self, recwarn, case, direction):
        a, b, culprit = NON_FINITE_CASES[case]
        with pytest.raises(ParameterError, match=f"^{culprit} sample holds a non-finite"):
            compare_batches(sorted_of(a), sorted_of(b), direction)
        assert len(recwarn) == 0  # rejected before any edge is computed

    def test_histograms_share_one_edge_array(self):
        report = compare_batches(sorted_of(_NORMAL), sorted_of(_NORMAL), Direction.FORWARD)
        a_hist, b_hist = report.histograms
        assert a_hist.edges is b_hist.edges
        assert not a_hist.edges.flags.writeable
