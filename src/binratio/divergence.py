"""Common binning and discrete KL divergence for comparing two samples.

Both samples are histogrammed on equal-width bins spanning their pooled
range, then compared with the discrete KL divergence. ``compare_batches``
sorts each sample once; the pooled range comes from the sorted ends
(``common_bins``) and every bin boundary, with the counts below and above
the edges, from one binary search of the same sorted values
(``histogram``). The functions take plain arrays; ``common_bins`` and
``histogram`` take them already sorted and, like ``np.searchsorted``, do
not check the order. When the simulated
statistic degenerates (all draws in one bin), the forward divergence is
uninformative and the reversed direction is used instead. Every comparison
names its direction; the runner, which holds the regime, picks reversed for
the collapse regime and forward otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ParameterError

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

    ``mass`` is normalized by the source sample size ``count``; values
    outside [edges[0], edges[-1]] land in undercount/overcount (zero when
    the edges came from ``common_bins`` over the same data). ``histogram``
    reads both counts from the same search of the sorted sample that yields
    the bins, so they cost no extra pass.
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
    a_sorted: np.ndarray, b_sorted: np.ndarray, bin_count: int = DEFAULT_BIN_COUNT
) -> np.ndarray:
    """Equal-width edges spanning the pooled range of two ascending-sorted samples.

    Both samples must already be in ``np.sort`` order (NaN last), as for
    ``np.searchsorted``: the order is not checked, and an unsorted sample
    gives a wrong range. The range is read from the sorted ends, where any
    NaN or inf of a sample sits, so a non-finite value is rejected naming
    its sample (``a`` simulated, ``b`` reference, as in ``compare_batches``).
    A degenerate pooled range (all values identical) widens to +/- 1/2
    around the common value. The edges come back read-only, so
    ``histogram`` can share them.
    """
    if len(a_sorted) == 0 or len(b_sorted) == 0:
        raise ParameterError("both samples must be nonempty")
    if bin_count < 2:
        raise ParameterError(f"bin_count must be >= 2, got {bin_count!r}")
    for name, ordered in (("simulated", a_sorted), ("reference", b_sorted)):
        if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
            raise ParameterError(f"{name} sample holds a non-finite value (NaN or inf)")
    lo = min(a_sorted[0], b_sorted[0])
    hi = max(a_sorted[-1], b_sorted[-1])
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bin_count + 1)
    edges.flags.writeable = False
    return edges


def histogram(ordered: np.ndarray, edges: np.ndarray) -> Histogram:
    """Bin an ascending-sorted sample on the given edges (right-inclusive last bin).

    ``ordered`` must already be in ``np.sort`` order (NaN last), as for
    ``np.searchsorted``: the order is not checked, and an unsorted sample
    gives wrong counts. One binary search per edge: ``cum[i]`` is the number
    of values below ``edges[i]``, except that the last entry also takes the
    values equal to ``edges[-1]``. Bin counts are the differences; the count
    below the first edge and above the last fall out of the ends. Same
    counts as ``np.histogram`` on these edges; a NaN value sorts above every
    edge and so counts as over. Read-only float64 edges (as ``common_bins``
    returns) are held as given, so histograms binned on them share one
    array; writable edges are copied, and the caller's array stays writable.
    """
    edges = np.asarray(edges, dtype=np.float64)
    if edges.flags.writeable:
        edges = edges.copy()
    count = len(ordered)
    cum = ordered.searchsorted(edges)
    cum[-1] = ordered.searchsorted(edges[-1], side="right")
    return Histogram(
        edges=edges,
        mass=(cum[1:] - cum[:-1]) / count,
        count=count,
        undercount=int(cum[0]),
        overcount=count - int(cum[-1]),
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
    if a_hist.edges is not b_hist.edges and not np.array_equal(
        a_hist.edges, b_hist.edges
    ):
        raise ParameterError("histograms must share identical edges")
    if direction is Direction.FORWARD:
        num, den, n_den = a_hist.mass, b_hist.mass, b_hist.count
    else:
        num, den, n_den = b_hist.mass, a_hist.mass, a_hist.count
    active = num > 0
    num_a, den_a = num[active], den[active]  # fancy indexing copies
    needs_floor = den_a == 0
    den_a[needs_floor] = 1.0 / (2 * n_den)
    kl = float(np.sum(num_a * (np.log(num_a) - np.log(den_a))))
    return DivergenceReport(
        kl=kl,
        direction=direction,
        smoothed_bins=int(np.count_nonzero(needs_floor)),
        bin_count=len(num),
        histograms=(a_hist, b_hist),
    )


def compare_batches(
    a: np.ndarray,
    b: np.ndarray,
    direction: Direction,
    bin_count: int = DEFAULT_BIN_COUNT,
) -> DivergenceReport:
    """Full comparison: common bins, two histograms, KL in one direction.

    ``a`` is the simulated sample, ``b`` the reference; each is sorted once
    and both the edges and the bins are read from the sorted copies. The
    report's ``histograms`` are theirs, in that order.
    """
    a_sorted, b_sorted = np.sort(a), np.sort(b)
    edges = common_bins(a_sorted, b_sorted, bin_count)
    return kl_divergence(
        histogram(a_sorted, edges), histogram(b_sorted, edges), direction
    )
