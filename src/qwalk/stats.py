"""Summary statistics and transforms for position distributions.

Moments use compensated (exact) summation because probabilities span many
orders of magnitude and the third central moment is sign-sensitive; they
sum over the occupied sites only, which skips the parity zeros of an
origin-started walk.
Entropy is in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .walk import PositionDistribution

__all__ = [
    "SummaryStats",
    "Histogram",
    "moments",
    "aggregate_histogram",
    "normalize_to_reference",
    "total_variation",
]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, variance (second cumulant), skewness (k3 / k2^{3/2}) and
    Shannon entropy of a discrete distribution over integer sites.

    ``skewness_defined`` is False (and ``skewness`` NaN) when the variance
    is zero, where the skewness ratio is 0/0.
    """

    mean: float
    variance: float
    skewness: float
    entropy: float
    skewness_defined: bool = True


@dataclass(frozen=True)
class Histogram:
    """Aggregated probability masses over consecutive-site bins."""

    bin_edges: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def moments(dist: PositionDistribution) -> SummaryStats:
    """Mean, central second/third cumulants, skewness and entropy of P_j.

    The sums run over the occupied sites (P_j != 0, so a NaN stays in); an
    exact sum has no use for zero terms, so this equals summing over all
    sites whenever the probabilities are finite."""
    occupied = dist.probs != 0.0
    p = dist.probs[occupied]
    j = dist.sites[occupied].astype(float)
    # fsum reads a list of floats faster than it iterates an array
    mean = math.fsum((j * p).tolist())
    dev = j - mean
    k2 = math.fsum((dev * dev * p).tolist())
    k3 = math.fsum((dev * dev * dev * p).tolist())
    denom = k2**1.5  # underflows to 0 for denormal variances
    if denom > 0.0:
        skew = k3 / denom
        defined = True
    else:
        skew = float("nan")
        defined = False
    nz = p[p > 0.0]
    entropy = -math.fsum((nz * np.log(nz)).tolist())
    return SummaryStats(
        mean=mean, variance=k2, skewness=skew, entropy=entropy, skewness_defined=defined
    )


def aggregate_histogram(dist: PositionDistribution, bin_width: int = 2) -> Histogram:
    """Sum P_j over consecutive bins of ``bin_width`` sites.

    Width 2 exactly absorbs the parity zeros of an origin-started walk,
    removing the spiky alternation without losing mass; the trailing bin is
    allowed to be partial.  Total mass is preserved.
    """
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    p = dist.probs
    n_bins = math.ceil(len(p) / bin_width)
    padded = np.zeros(n_bins * bin_width)
    padded[: len(p)] = p
    masses = padded.reshape(n_bins, bin_width).sum(axis=1)
    left = -dist.n - 0.5
    edges = left + bin_width * np.arange(n_bins + 1, dtype=float)
    return Histogram(bin_edges=edges, masses=masses)


def _trapezoid_integral(dist: PositionDistribution) -> float:
    p = dist.probs
    return float(p.sum() - 0.5 * (p[0] + p[-1]))


def normalize_to_reference(
    dist: PositionDistribution, ref: PositionDistribution
) -> PositionDistribution:
    """Rescale ``dist`` so its trapezoidal integral over its sites (unit
    spacing, all sites including parity zeros) matches that of ``ref``.

    Intended only for figure parity when overlaying curves of different
    support conventions; the result generally no longer sums to one.
    """
    target = _trapezoid_integral(ref)
    current = _trapezoid_integral(dist)
    if current <= 0.0:
        raise ValueError("cannot rescale a distribution with zero integral")
    return PositionDistribution(n=dist.n, probs=dist.probs * (target / current))


def total_variation(d1: PositionDistribution, d2: PositionDistribution) -> float:
    """Half the L1 distance between two distributions, zero-padding the
    narrower support so the site ranges coincide."""
    n = max(d1.n, d2.n)

    def padded(d: PositionDistribution) -> np.ndarray:
        out = np.zeros(2 * n + 1)
        out[n - d.n : n + d.n + 1] = d.probs
        return out

    return float(0.5 * np.sum(np.abs(padded(d1) - padded(d2))))
