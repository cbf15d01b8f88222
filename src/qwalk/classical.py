"""Classical baselines: the classical random walk and alpha-stable
densities.

The stable density is recovered from its characteristic function

    phi(t) = exp(i mu t - |c t|^alpha (1 - i beta sign(t) w(|t|, alpha))),
    w = tan(pi alpha / 2) for alpha != 1,  w = -(2/pi) ln|t| for alpha = 1,

through the real-part cosine form f(x) = (1/pi) Int_0^inf Re[e^{-ixt} phi(t)] dt.
The quadrature is fixed.  |phi(t)| = exp(-|ct|^alpha) supplies a computable
truncation point: the integral stops where |phi| < 1e-16.  Two regimes cover
the axis, each aiming at an absolute error of 1e-9 per value: adaptive panels
with a doubling self-check up to 4e4 oscillation cycles, and past that
half-period summation with repeated-averaging acceleration for the far
tails, where panel quadrature would need billions of nodes.  Both raise
:class:`QuadratureError` instead of returning an unverified value.

A list of abscissae, as compare-returns' stable column, runs each
abscissa's quadrature side by side.  Mirrored abscissae, with equal
|x - mu|, ask for the same panels, so phi(t) is computed once per panel
set for the pair; at mu = 0 the mirror's e^{+ixt} is the conjugate of
e^{-ixt}.  Each keeps its own refinement, truncation check and error, and
every value equals :func:`stable_pdf` at that point alone, bit for bit.

The 16-point Gauss-Legendre rule is stored as constants, so the module
imports neither numpy.polynomial nor LAPACK.  A panel set is evaluated
1,024 panels at a time, and only the per-panel sums are kept between
blocks, so a quadrature's working memory does not grow with its panel
count.  Each node and each panel sum is computed alone, so this moves no
value.

The parameter convention follows the characteristic function above
verbatim (the "S1"-style parameterization); no conversion to other
conventions is attempted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .walk import PositionDistribution, _check_integer

__all__ = [
    "StableParams",
    "QuadratureError",
    "classical_rw_distribution",
    "stable_cf",
    "stable_pdf",
]

#: alpha values within this distance of 1 use the logarithmic-omega branch
ALPHA_ONE_EPS = 1e-8

#: the 16-point Gauss-Legendre rule on [-1, 1], mirrored from its 8 positive
#: nodes, ascending, and their weights: ``numpy.polynomial.legendre.leggauss(16)``
#: bit for bit, without importing numpy.polynomial or calling LAPACK
_GL_HALF = [[float.fromhex(h) for h in hexes] for hexes in (
    ("0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2",
     "0x1.3c5a466d5e8b8p-1", "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1",
     "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1"),
    ("0x1.83feae80e4e01p-3", "0x1.75f8c77e0c011p-3", "0x1.5a6ebbb5a7600p-3",
     "0x1.325f61bca3cbep-3", "0x1.fe7af2bad3878p-4", "0x1.85c4ee79cc24bp-4",
     "0x1.fdfb1a2c1261ep-5", "0x1.bcddab4b7c228p-6"),
)]
_GL_NODES = np.array([-x for x in reversed(_GL_HALF[0])] + _GL_HALF[0])
_GL_WEIGHTS = np.array(_GL_HALF[1][::-1] + _GL_HALF[1])
#: panels whose Gauss nodes :func:`_panel_integrate` evaluates at once
_PANEL_BLOCK = 1024

# The fixed quadrature: _TOL is the absolute target for one density value;
# _TAIL_EPS sets the truncation point T through |phi(T)| = _TAIL_EPS; more than
# _MAX_DIRECT_CYCLES oscillations switch to the accelerated half-period path.
_TOL = 1e-9
_TAIL_EPS = 1e-16
_MAX_REFINEMENTS = 14
_MAX_DIRECT_CYCLES = 4.0e4
_ACCEL_MIN_TERMS = 32
_ACCEL_MAX_TERMS = 4000
#: the partial sums the accelerated path keeps: the trailing ones it averages
_AVERAGED_TERMS = 40
#: bound on the truncation self-check's integral over [T, 2T]: ten times _TOL
_TRUNCATION_TOL = 1e-8


class QuadratureError(RuntimeError):
    """A numerical self-consistency check failed; the value is not trusted."""


@dataclass(frozen=True)
class StableParams:
    """Tail index ``alpha`` in (0, 2], skewness ``beta`` in [-1, 1], scale
    ``c`` > 0 and shift ``mu``."""

    alpha: float
    beta: float
    c: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must be in (0, 2], got {self.alpha}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [-1, 1], got {self.beta}")
        if not self.c > 0:  # written so that NaN fails it, as the two above do
            raise ValueError(f"scale c must be positive, got {self.c}")


def classical_rw_distribution(n: int) -> PositionDistribution:
    """Binomial endpoint distribution of the +-1 classical random walk:
    P_j = C(n, (n+j)/2) / 2^n on sites with (n+j) even, zero elsewhere."""
    _check_integer("step count", n, 0)
    probs = np.zeros(2 * n + 1)
    log_half_n = n * math.log(2.0)
    lg_n = math.lgamma(n + 1)
    for k in range(n + 1):
        log_p = lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) - log_half_n
        probs[2 * k] = math.exp(log_p)
    return PositionDistribution(n=n, probs=probs)


def stable_cf(t, params: StableParams):
    """Characteristic function phi(t); phi(0) = 1.  Accepts scalars or
    arrays and returns the matching shape."""
    t_arr = np.asarray(t, dtype=float)
    out = np.ones(t_arr.shape, dtype=complex)
    nz = t_arr != 0.0
    tn = t_arr[nz]
    if abs(params.alpha - 1.0) < ALPHA_ONE_EPS:
        w = -(2.0 / math.pi) * np.log(np.abs(tn))
    else:
        w = math.tan(math.pi * params.alpha / 2.0)
    # exp(i mu t - |c t|^alpha (1 - i beta sign(t) w)) in one buffer: a
    # quadrature block passes 16,384 nodes, and each complex temporary is 16 B a node
    z = 1j * params.beta * np.sign(tn)
    z *= w
    np.subtract(1.0, z, out=z)
    z *= np.abs(params.c * tn) ** params.alpha
    np.subtract(1j * params.mu * tn, z, out=z)
    out[nz] = np.exp(z, out=z)
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(out.reshape(-1)[0])
    return out


def stable_pdf(x: float, params: StableParams) -> float:
    """Density f(x) by numerical inversion of the characteristic function.

    Negative quadrature residue is clamped to zero.  Raises
    :class:`QuadratureError` when the panel doubling does not converge or
    the truncation self-check (doubling the cutoff) moves the result by
    more than the tolerance.  A non-finite ``x`` is a ``ValueError``.
    """
    return _stable_pdfs([x], params)[0]


def _stable_pdfs(xs, params: StableParams) -> list[float]:
    """:func:`stable_pdf` at each of ``xs``, bit for bit.

    Every abscissa runs its own quadrature (:func:`_inversion`), and they all
    advance together, one panel set each per round: abscissae that ask for
    the same panels in a round, as mirrors with equal |x - mu| do, share one
    evaluation of phi(t) there.  A failed quadrature raises the
    :class:`QuadratureError` of the first such abscissa in ``xs``."""
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"x must be finite, got {x}")
    t_cut = _cutoff(params)
    runs = {i: _inversion(x, params, t_cut) for i, x in enumerate(xs)}
    asks = {i: next(run) for i, run in runs.items()}
    values, errors = [0.0] * len(xs), {}
    while asks:
        shared = {}  # panels -> the abscissae that ask for them
        for i, panels in asks.items():
            shared.setdefault(panels, []).append(i)
        asks = {}
        for panels, group in shared.items():
            group.sort(key=lambda i: abs(xs[i]))  # a mirror pair next to each other
            for i, integral in zip(group, _panel_integrate([xs[i] for i in group], params,
                                                           _edges(*panels))):
                try:
                    asks[i] = runs[i].send(integral)
                except StopIteration as done:
                    values[i] = max(done.value, 0.0)
                except QuadratureError as exc:
                    errors[i] = exc
    if errors:
        raise errors[min(errors)]
    return values


def _stable_cost(count: int, reach: float, params: StableParams) -> tuple[int, int]:
    """(Gauss nodes, bytes) of :func:`_stable_pdfs` over ``count`` abscissae
    at most ``reach`` from mu, as the widest direct quadrature's first two
    panel sets, of n and 2n panels, bound them.  The bytes: a block's Gauss
    nodes at six complex values each (83 B traced at alpha = 1), 4 KB an
    abscissa for its generators, requests and kept sums (2.8 KB traced), and
    the second set's per-panel rows, 24 B a panel and 8 for each of the two
    mirrored abscissae sharing it."""
    try:
        cycles = min(_cutoff(params) * reach / (2.0 * math.pi), _MAX_DIRECT_CYCLES)
    except QuadratureError:  # the column fails before its first panel
        cycles = 0.0
    panels = max(16, math.ceil(2.0 * cycles))
    return (count * 3 * panels * len(_GL_NODES),
            _PANEL_BLOCK * len(_GL_NODES) * 96 + count * 4096 + 2 * panels * (24 + 2 * 8))


def _cutoff(params: StableParams) -> float:
    """Truncation point T with |phi(T)| = _TAIL_EPS, which must be finite."""
    try:
        t_cut = (-math.log(_TAIL_EPS)) ** (1.0 / params.alpha) / params.c
    except OverflowError:  # a tiny alpha; a tiny c gives inf
        t_cut = math.inf
    if t_cut == math.inf:
        raise QuadratureError(f"truncation point overflows: {params}")
    return t_cut


def _panel_integrate(xs, params: StableParams, edges: np.ndarray) -> list[float]:
    """Composite 16-point Gauss-Legendre of Re[e^{-ixt} phi(t)] over the given
    panel edges, for each x of ``xs`` with one phi(t).  An x equal to the one
    before reuses its e^{-ixt}, and one equal to its negation conjugates it:
    both are the exponential that x computes itself, bit for bit.

    The nodes are evaluated ``_PANEL_BLOCK`` panels at a time, so only one
    block's t, phi(t), exponential and product are held, and each panel's
    Gauss sum goes to a per-panel row of every x.  Each node and each panel
    sum is computed alone, so the rows, and the one ``np.sum`` over each,
    are those a single block gives."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    panels = np.empty((len(xs), len(half)))
    for lo in range(0, len(half), _PANEL_BLOCK):
        block = slice(lo, lo + _PANEL_BLOCK)
        t = mid[block, None] + half[block, None] * _GL_NODES[None, :]
        nodes = t.ravel()
        phi = stable_cf(nodes, params)
        wave, prod, prev = np.empty_like(phi), None, math.nan
        for x, sums in zip(xs, panels):
            if x == -prev and x != prev:
                np.conjugate(wave, out=wave)
            elif x != prev:
                np.exp(np.multiply(-1j * x, nodes, out=wave), out=wave)
            prod = np.multiply(phi, wave, out=prod)
            sums[block] = prod.real.reshape(t.shape) @ _GL_WEIGHTS
            prev = x
        del t, nodes, phi, wave, prod  # this block's go before the next block's come
    return [float(np.sum(half * sums)) for sums in panels]


def _edges(lo: float, hi: float, count: int | None) -> np.ndarray:
    """The panel edges a quadrature asks for as (lo, hi, count): ``count``
    evenly spaced edges, or with ``count`` None 54 levels accumulating
    geometrically at ``lo``, which resolve the |t|^alpha cusp of the
    characteristic function at t = 0."""
    if count is not None:
        return np.linspace(lo, hi, count)
    steps = (hi - lo) * 2.0 ** -np.arange(54, 0, -1, dtype=float)
    return np.concatenate([[lo], lo + steps, [hi]])


def _inversion(x: float, params: StableParams, t_cut: float):
    """The quadrature of one density value, as a generator: it yields the
    panels it integrates over, as :func:`_edges` arguments, is sent the
    integral of Re[e^{-ixt} phi(t)] there (:func:`_panel_integrate`), and
    returns f(x) before clamping.  Up to ``_MAX_DIRECT_CYCLES`` oscillation
    cycles below the cutoff it doubles direct panels; past them it sums
    half-periods."""
    cycles = t_cut * abs(x - params.mu) / (2.0 * math.pi)
    if cycles <= _MAX_DIRECT_CYCLES:
        return (yield from _invert_direct(x, t_cut, cycles))
    return (yield from _invert_accelerated(x, params, t_cut))


def _invert_direct(x: float, t_cut: float, cycles: float):
    n = max(16, int(math.ceil(2.0 * cycles)))

    def total(n_panels: int):
        first = t_cut / n_panels
        head = yield 0.0, first, None
        return head + (yield first, t_cut, n_panels)

    prev = yield from total(n)
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        cur = yield from total(n)
        if abs(cur - prev) < _TOL:
            tail = yield t_cut, 2.0 * t_cut, 65
            if abs(tail) > _TRUNCATION_TOL:
                raise QuadratureError(
                    f"truncation self-check failed at x={x}: doubling the "
                    f"cutoff moves the integral by {abs(tail):.3e}"
                )
            return cur / math.pi
        prev = cur
    raise QuadratureError(f"panel doubling did not converge at x={x}")


def _invert_accelerated(x: float, params: StableParams, t_cut: float):
    """Far-tail inversion: integrate half-periods of the oscillation and
    accelerate the alternating series.  Used when direct panel quadrature
    would need more than ``_MAX_DIRECT_CYCLES`` oscillation cycles."""
    freq = abs(x - params.mu)
    h = math.pi / freq
    partial = deque([(yield 0.0, h, None)], maxlen=_AVERAGED_TERMS)
    prev_est = None
    stable_hits = 0
    k = 1
    while k < _ACCEL_MAX_TERMS:
        term = yield k * h, (k + 1) * h, 3
        partial.append(partial[-1] + term)
        if k * h > t_cut:
            # envelope exhausted: the running sum is already the integral
            return partial[-1] / math.pi
        if k >= _ACCEL_MIN_TERMS and k % 4 == 0:
            est = np.array(partial)  # averaged pairwise down to one: an Euler transform
            while len(est) > 1:
                est = 0.5 * (est[1:] + est[:-1])
            est = float(est[0])
            if prev_est is not None and abs(est - prev_est) <= _TOL * max(1.0, abs(est)):
                stable_hits += 1
                if stable_hits >= 3:
                    return est / math.pi
            else:
                stable_hits = 0
            prev_est = est
        k += 1
    raise QuadratureError(
        f"accelerated tail summation did not stabilize at x={x} "
        f"after {_ACCEL_MAX_TERMS} half-periods"
    )
