"""Common binning and discrete KL divergence for comparing two sample batches.

Both batches are histogrammed on equal-width bins spanning their pooled
range, then compared with the discrete KL divergence. Binning sorts each
batch once and reads every bin boundary, and the counts below and above the
edges, from one binary search of the sorted values. When the simulated
statistic degenerates (all draws in one bin), the forward divergence is
uninformative and the reversed direction is used instead. Every comparison
names its direction; the runner, which holds the regime, picks reversed for
the collapse regime and forward otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParameterError
from .sampling import SampleBatch

__all__ = [
    "Direction",
    "Histogram",
    "DivergenceReport",
    "common_bins",
    "histogram",
    "kl_divergence",
    "compare_batches",
]

DEFAULT_BIN_COUNT = 100


class Direction(str, Enum):
    FORWARD = "forward"    # D(A || B): simulated relative to reference
    REVERSED = "reversed"  # D(B || A): reference relative to simulated


@dataclass(frozen=True)
class Histogram:
    """Binned empirical distribution on shared edges.

    ``mass`` is normalized by the source batch size ``count``; values outside
    [edges[0], edges[-1]] land in undercount/overcount (zero when the edges
    came from ``common_bins`` over the same data). ``histogram`` reads both
    counts from the same search of the sorted batch that yields the bins, so
    they cost no extra pass.
    """

    edges: np.ndarray
    mass: np.ndarray
    count: int
    undercount: int
    overcount: int

    def __post_init__(self) -> None:
        self.edges.flags.writeable = False
        self.mass.flags.writeable = False
        if len(self.edges) != len(self.mass) + 1:
            raise ParameterError("need len(edges) == len(mass) + 1")
        if not (self.edges[1:] > self.edges[:-1]).all():
            raise ParameterError("edges must be strictly increasing")


def common_bins(
    a: SampleBatch, b: SampleBatch, bin_count: int = DEFAULT_BIN_COUNT
) -> np.ndarray:
    """Equal-width edges spanning the pooled range of both batches.

    A degenerate pooled range (all values identical) widens to +/- 1/2
    around the common value.
    """
    if a.count == 0 or b.count == 0:
        raise ParameterError("both batches must be nonempty")
    if bin_count < 2:
        raise ParameterError(f"bin_count must be >= 2, got {bin_count!r}")
    lo = min(a.values.min(), b.values.min())
    hi = max(a.values.max(), b.values.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return np.linspace(lo, hi, bin_count + 1)


def histogram(batch: SampleBatch, edges: np.ndarray) -> Histogram:
    """Bin a batch on the given edges (right-inclusive last bin).

    One sort of the batch, then one binary search per edge: ``cum[i]`` is the
    number of values below ``edges[i]``, except that the last entry also
    takes the values equal to ``edges[-1]``. Bin counts are the differences;
    the count below the first edge and above the last fall out of the ends.
    Same counts as ``np.histogram`` on these edges; a NaN value sorts above
    every edge and so counts as over.
    """
    edges = np.array(edges, dtype=np.float64)
    ordered = np.sort(batch.values)
    cum = ordered.searchsorted(edges)
    cum[-1] = ordered.searchsorted(edges[-1], side="right")
    return Histogram(
        edges=edges,
        mass=(cum[1:] - cum[:-1]) / batch.count,
        count=batch.count,
        undercount=int(cum[0]),
        overcount=batch.count - int(cum[-1]),
    )


@dataclass(frozen=True)
class DivergenceReport:
    """KL result; ``histograms`` holds the (a, b) pair it was computed from.

    The histograms take no part in equality: two reports are equal when
    their numbers are.
    """

    kl: float
    direction: Direction
    smoothed_bins: int
    bin_count: int
    histograms: tuple[Histogram, Histogram] = field(compare=False, repr=False)


def kl_divergence(
    a_hist: Histogram, b_hist: Histogram, direction: Direction
) -> DivergenceReport:
    """Discrete KL between two histograms sharing identical edges.

    Forward computes sum A(x) [log A(x) - log B(x)], reversed swaps the
    roles. Bins with zero numerator mass contribute nothing; a bin with
    positive numerator mass but zero denominator mass has the denominator
    mass replaced by 1/(2N), N the denominator batch size, and is counted in
    ``smoothed_bins``.
    """
    if len(a_hist.edges) != len(b_hist.edges) or not np.array_equal(
        a_hist.edges, b_hist.edges
    ):
        raise ParameterError("histograms must share identical edges")
    if direction is Direction.FORWARD:
        num, den, n_den = a_hist.mass, b_hist.mass, b_hist.count
    else:
        num, den, n_den = b_hist.mass, a_hist.mass, a_hist.count
    active = num > 0
    needs_floor = active & (den == 0)
    den_eff = np.where(needs_floor, 1.0 / (2 * n_den), den)
    kl = float(np.sum(num[active] * (np.log(num[active]) - np.log(den_eff[active]))))
    return DivergenceReport(
        kl=kl,
        direction=direction,
        smoothed_bins=int(np.count_nonzero(needs_floor)),
        bin_count=len(num),
        histograms=(a_hist, b_hist),
    )


def compare_batches(
    a: SampleBatch,
    b: SampleBatch,
    direction: Direction,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> DivergenceReport:
    """Full comparison: common bins, two histograms, KL in one direction.

    ``a`` is the simulated batch, ``b`` the reference; the report's
    ``histograms`` are theirs, in that order.
    """
    edges = common_bins(a, b, bin_count)
    return kl_divergence(histogram(a, edges), histogram(b, edges), direction)
