"""Summary statistics and transforms for position distributions.

Moments are exact sums rounded once, as ``math.fsum`` rounds them, because
probabilities span many orders of magnitude and the third central moment is
sign-sensitive; they sum over the occupied sites only, which skips the
parity zeros of an origin-started walk.  A batch of distributions is summed
row-wise at once in double-double arithmetic, and a certified error bound
sends only the rows it cannot vouch for to ``math.fsum``.
Entropy is in nats throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .walk import PositionDistribution

__all__ = [
    "SummaryStats",
    "moments",
    "normalize_to_reference",
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


def moments(dist: PositionDistribution) -> SummaryStats:
    """Mean, central second/third cumulants, skewness and entropy of P_j.

    The sums run over the occupied sites (P_j != 0, so a NaN stays in); an
    exact sum has no use for zero terms, so this equals summing over all
    sites whenever the probabilities are finite."""
    (mean,), (k2,), (k3,) = _cumulants(dist.sites.astype(float), dist.probs[None])
    nz = dist.probs[dist.probs > 0.0]
    entropy = -math.fsum((nz * np.log(nz)).tolist())
    return SummaryStats(mean=mean, variance=k2, skewness=_skewness(k2, k3), entropy=entropy,
                        skewness_defined=k2**1.5 > 0.0)


def _skewness(k2: float, k3: float) -> float:
    """k3 / k2^1.5, or NaN where k2^1.5 is not positive (0 for a denormal k2)."""
    denom = k2**1.5
    return k3 / denom if denom > 0.0 else math.nan


def _cumulants(sites: np.ndarray, probs: np.ndarray) -> tuple[list, list, list]:
    """Mean, k2 and k3 of each row of the (R, L) ``probs`` over the float
    ``sites`` (L,), as lists of floats: the mean is the exact sum of j P_j,
    and with d = j - mean, k2 and k3 are those of d*d*P_j and d*d*d*P_j, each
    over the row's occupied sites (P_j != 0) and rounded as ``math.fsum``
    rounds it."""
    occupied = probs != 0.0
    mean = _row_sums(sites * probs, occupied)
    dev = sites - np.array(mean)[:, None]
    sq = dev * dev
    k23 = _row_sums(np.concatenate((sq * probs, sq * dev * probs)),
                    np.concatenate((occupied, occupied)))
    return mean, k23[: len(probs)], k23[len(probs) :]


#: unit roundoff of binary64
_U = 2.0**-53
#: rows whose sum of |terms| lies outside [_TINY, _HUGE] go to math.fsum: the
#: error bound below stays a normal number, and no partial sum can overflow
_TINY, _HUGE = 2.0**-900, 2.0**1000
#: batches of fewer rows go straight to math.fsum, which is faster for them
_BATCH_ROWS = 32


def _row_sums(x: np.ndarray, keep: np.ndarray) -> list:
    """``math.fsum`` of each row of the (R, L) ``x`` over its ``keep`` entries,
    bit for bit, as a list of floats (fsum's exceptions included).  Outside
    ``keep`` the entries of ``x`` must be zeros, which add nothing to an
    exact sum, or non-finite, which sends the row to fsum."""
    if len(x) < _BATCH_ROWS:
        return [math.fsum(row[k].tolist()) for row, k in zip(x, keep)]
    sums, exact = _certified_sums(x)
    sums = sums.tolist()
    for r in np.flatnonzero(~exact):
        sums[r] = math.fsum(x[r][keep[r]].tolist())
    return sums


def _certified_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of the (R, L) ``x`` and a flag per row, set where the sum is
    certified to be the exact row sum T rounded to nearest, as fsum rounds it.

    All rows are summed at once as double-double pairs (hi, lo): the L
    columns, zero-padded to 2^levels, are folded in half ``levels`` times,
    each fold an error-free TwoSum of the hi parts whose error joins the sum
    of the lo parts (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955
    (2005)).  Only the two additions into lo round.  With u = 2^-53 and A the
    sum of |x| under a node, a lo at fold depth d is below d u A, so that fold
    errs by at most (2d - 1) u^2 A; the nodes of one depth share one A, so
    |T - (hi + lo)| <= levels^2 u^2 sum|x|, to factors 1 + O(levels u).  After
    a last TwoSum, hi is T rounded to nearest when |lo| plus the bound, taken
    as (levels + 1)^2 u^2 sum|x| to cover its own rounding, is below half the
    gap between hi and its neighbours: a quarter of the gap above |hi| when
    |hi| is a power of two.  The flag is clear for every other row: ties and
    near-ties, zero and non-finite sums, and sums of |x| outside [_TINY,
    _HUGE]; fsum (Shewchuk, Discrete Comput. Geom. 18, 305 (1997)) sums
    those.
    """
    levels = (x.shape[1] - 1).bit_length()
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.zeros((len(x), 1 << levels))
        hi[:, : x.shape[1]] = x
        lo = np.zeros_like(hi)
        for _ in range(levels):
            half = hi.shape[1] // 2
            hi, err = _two_sum(hi[:, :half], hi[:, half:])
            lo = lo[:, :half] + lo[:, half:] + err
        hi, lo = _two_sum(hi[:, 0], lo[:, 0])
        scale = np.abs(x).sum(axis=1)
        mag = np.abs(hi)
        gap = np.spacing(mag) * np.where(np.frexp(mag)[0] == 0.5, 0.25, 0.5)
        exact = ((hi != 0.0) & (scale >= _TINY) & (scale <= _HUGE)
                 & (np.abs(lo) + (levels + 1) ** 2 * _U**2 * scale < gap))
    return hi, exact


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


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
