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
from binratio.sampling import SampleBatch, SeedSpec, make_generator


def batch_of(values):
    arr = np.asarray(values, dtype=np.float64)
    return SampleBatch(
        values=arr,
        count=len(arr),
        zero_numerator_count=0,
        zero_denominator_count=0,
    )


def hist_of(mass, edges=None, count=1000):
    mass = np.asarray(mass, dtype=np.float64)
    if edges is None:
        edges = np.arange(len(mass) + 1, dtype=np.float64)
    return Histogram(
        edges=np.asarray(edges, dtype=np.float64),
        mass=mass,
        count=count,
        undercount=0,
        overcount=0,
    )


def reference_histogram(batch, edges):
    """np.histogram plus two counting passes: what ``histogram`` must match."""
    counts, _ = np.histogram(batch.values, bins=edges)
    under = int(np.count_nonzero(batch.values < edges[0]))
    over = int(np.count_nonzero(batch.values > edges[-1]))
    return counts / batch.count, under, over


def assert_matches_reference(batch, edges):
    h = histogram(batch, edges)
    mass, under, over = reference_histogram(batch, edges)
    assert np.array_equal(h.mass.view(np.uint64), mass.view(np.uint64))
    assert (h.undercount, h.overcount) == (under, over)
    assert np.array_equal(h.edges, np.asarray(edges, dtype=np.float64))
    return h


class TestCommonBins:
    def test_unit_range_width(self):
        edges = common_bins(batch_of([0.0]), batch_of([1.0]), 100)
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert np.allclose(np.diff(edges), 0.01)

    def test_degenerate_range_widens(self):
        edges = common_bins(batch_of([3.0, 3.0]), batch_of([3.0]), 100)
        assert edges[0] == pytest.approx(2.5)
        assert edges[-1] == pytest.approx(3.5)

    def test_pooled_width(self):
        edges = common_bins(batch_of([-3.2, 0.0]), batch_of([4.8]), 100)
        assert np.allclose(np.diff(edges), 0.08)

    def test_rejects_tiny_bin_count(self):
        with pytest.raises(ParameterError):
            common_bins(batch_of([0.0]), batch_of([1.0]), 1)


class TestHistogram:
    def test_mass_sums_to_one_inside_range(self):
        gen = make_generator(SeedSpec(1))
        a = batch_of(gen.normal(size=5000))
        edges = common_bins(a, a, 100)
        h = histogram(a, edges)
        assert math.fsum(h.mass) == pytest.approx(1.0, abs=1e-12)
        assert h.undercount == 0 and h.overcount == 0

    def test_out_of_range_counted(self):
        h = histogram(batch_of([-5.0, 0.5, 7.0]), np.linspace(0, 1, 11))
        assert h.undercount == 1 and h.overcount == 1
        assert math.fsum(h.mass) == pytest.approx(1 / 3)

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
        a = batch_of(values)
        assert_matches_reference(a, common_bins(a, a, 100))
        assert_matches_reference(a, np.linspace(-2.0, 2.0, 17))  # on-edge values
        assert_matches_reference(a, np.linspace(-1.1, 0.3, 7))  # most outside

    def test_values_on_every_edge(self):
        edges = np.linspace(0.0, 1.0, 11)
        h = assert_matches_reference(batch_of(np.repeat(edges, 3)), edges)
        # the last bin is right-inclusive, every other bin right-open
        assert np.array_equal(h.mass * h.count, [3] * 9 + [6])
        assert h.undercount == h.overcount == 0

    def test_outside_both_ends(self):
        values = [-np.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 1.0 + 1e-15, 3.0, np.inf]
        h = assert_matches_reference(batch_of(values), np.linspace(0, 1, 4))
        assert (h.undercount, h.overcount) == (3, 3)
        assert h.undercount + h.overcount + round(h.mass.sum() * h.count) == 9

    def test_all_values_outside(self):
        h = assert_matches_reference(batch_of([-3.0, -2.0, 5.0]), np.linspace(0, 1, 3))
        assert (h.undercount, h.overcount) == (2, 1)
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
        a = batch_of(make_generator(SeedSpec(0, 0)).normal(size=10**5))
        b = batch_of(make_generator(SeedSpec(0, 1)).normal(size=10**5))
        report = compare_batches(a, b, Direction.FORWARD, 100)
        assert report.kl < 0.01

    def test_point_mass_reference_vs_diffuse_sample(self):
        diffuse = batch_of(make_generator(SeedSpec(2)).normal(size=10**4))
        zeros = batch_of(np.zeros(10**4))
        report = compare_batches(diffuse, zeros, Direction.FORWARD, 100)
        assert math.isfinite(report.kl)
        assert report.kl > 1.0

    def test_order_invariance(self):
        gen = make_generator(SeedSpec(3))
        vals = gen.normal(size=2000)
        ref = gen.normal(size=2000)
        fwd = compare_batches(batch_of(vals), batch_of(ref), Direction.FORWARD)
        perm = compare_batches(
            batch_of(vals[::-1].copy()), batch_of(ref), Direction.FORWARD
        )
        assert fwd == perm

    def test_report_carries_compared_histograms(self):
        gen = make_generator(SeedSpec(4))
        a = batch_of(gen.normal(size=2000))
        b = batch_of(gen.normal(size=2000))
        report = compare_batches(a, b, Direction.FORWARD, 50)
        edges = common_bins(a, b, 50)
        for got, batch in zip(report.histograms, (a, b)):
            want = histogram(batch, edges)
            assert np.array_equal(got.edges, want.edges)
            assert np.array_equal(got.mass, want.mass)
            assert got.count == batch.count
        assert report == kl_divergence(*report.histograms, Direction.FORWARD)

    def test_refining_bins_does_not_decrease_forward_kl(self):
        rng_pairs = np.random.default_rng(5)
        worst = 0.0
        for i in range(100):
            # uniform batches keep every refined bin populated
            a = batch_of(rng_pairs.uniform(0, 1, 5000))
            b = batch_of(rng_pairs.uniform(0, 1, 5000))
            coarse = compare_batches(a, b, Direction.FORWARD, 100)
            fine = compare_batches(a, b, Direction.FORWARD, 200)
            worst = min(worst, fine.kl - coarse.kl)
        assert worst >= -1e-12
