"""Classical baselines: geometric Brownian motion, the classical random
walk, and Gaussian / alpha-stable densities.

The stable density is recovered from its characteristic function

    phi(t) = exp(i mu t - |c t|^alpha (1 - i beta sign(t) w(|t|, alpha))),
    w = tan(pi alpha / 2) for alpha != 1,  w = -(2/pi) ln|t| for alpha = 1,

through the real-part cosine form f(x) = (1/pi) Int_0^inf Re[e^{-ixt} phi(t)] dt.
|phi(t)| = exp(-|ct|^alpha) supplies a computable truncation point.  Two
quadrature regimes cover the axis: adaptive panels with a doubling
self-check for moderate oscillation counts, and half-period summation with
repeated-averaging acceleration for the far tails, where panel quadrature
would need billions of nodes.  Both raise :class:`QuadratureError` instead
of returning an unverified value.

The parameter convention follows the characteristic function above
verbatim (the "S1"-style parameterization); no conversion to other
conventions is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .walk import PositionDistribution

__all__ = [
    "GbmParams",
    "StableParams",
    "QuadratureSpec",
    "QuadratureError",
    "gbm_terminal_samples",
    "gbm_path",
    "classical_rw_distribution",
    "stable_cf",
    "stable_pdf",
    "gaussian_pdf",
]

#: alpha values within this distance of 1 use the logarithmic-omega branch
ALPHA_ONE_EPS = 1e-8

_GL_NODES, _GL_WEIGHTS = leggauss(16)


class QuadratureError(RuntimeError):
    """A numerical self-consistency check failed; the value is not trusted."""


@dataclass(frozen=True)
class GbmParams:
    """Drift ``mu`` (per unit time), volatility ``sigma`` (per sqrt time)
    and initial price ``s0``."""

    mu: float
    sigma: float
    s0: float = 1.0

    def __post_init__(self):
        if not self.sigma >= 0:  # each check is written so that NaN fails it
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not self.s0 > 0:
            raise ValueError(f"s0 must be positive, got {self.s0}")


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the characteristic-function inversion.

    ``tol`` is the absolute target for one density value, checked by panel
    doubling; ``tail_eps`` sets the truncation point T through
    |phi(T)| = tail_eps; oscillation counts above ``max_direct_cycles``
    switch to the accelerated half-period path.
    """

    tol: float = 1e-9
    tail_eps: float = 1e-16
    max_refinements: int = 14
    max_direct_cycles: float = 4.0e4
    accel_min_terms: int = 32
    accel_max_terms: int = 4000

    def cutoff(self, params: StableParams) -> float:
        """Truncation point T with |phi(T)| = tail_eps, which must be finite."""
        try:
            t_cut = (-math.log(self.tail_eps)) ** (1.0 / params.alpha) / params.c
        except OverflowError:  # a tiny alpha; a tiny c gives inf
            t_cut = math.inf
        if t_cut == math.inf:
            raise QuadratureError(f"truncation point overflows: {params}")
        return t_cut


def gbm_terminal_samples(
    params: GbmParams, t: float, count: int, seed: int
) -> np.ndarray:
    """Exact terminal prices S(t) = s0 exp(sigma sqrt(t) Z + (mu - sigma^2/2) t)
    for ``count`` independent standard normal draws Z."""
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(count)
    drift = (params.mu - 0.5 * params.sigma**2) * t
    return params.s0 * np.exp(params.sigma * math.sqrt(t) * z + drift)


def gbm_path(params: GbmParams, n_steps: int, dt: float, seed: int) -> np.ndarray:
    """Price path of length n_steps+1 built from exact log increments
    (no Euler discretization error)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_steps)
    increments = params.sigma * math.sqrt(dt) * z + (params.mu - 0.5 * params.sigma**2) * dt
    log_path = np.concatenate([[0.0], np.cumsum(increments)])
    return params.s0 * np.exp(log_path)


def classical_rw_distribution(n: int) -> PositionDistribution:
    """Binomial endpoint distribution of the +-1 classical random walk:
    P_j = C(n, (n+j)/2) / 2^n on sites with (n+j) even, zero elsewhere."""
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
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
    # exp(i mu t - |c t|^alpha (1 - i beta sign(t) w)) in one buffer: the
    # quadrature passes ~10^5 nodes, and each complex temporary is 16 B a node
    z = 1j * params.beta * np.sign(tn)
    z *= w
    np.subtract(1.0, z, out=z)
    z *= np.abs(params.c * tn) ** params.alpha
    np.subtract(1j * params.mu * tn, z, out=z)
    out[nz] = np.exp(z, out=z)
    if np.isscalar(t) or t_arr.ndim == 0:
        return complex(out.reshape(-1)[0])
    return out


def gaussian_pdf(x: float, mu: float, sigma: float) -> float:
    """Normal density."""
    if not 0 < sigma < math.inf:  # so that NaN fails too
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def stable_pdf(
    x: float, params: StableParams, quad: QuadratureSpec = QuadratureSpec()
) -> float:
    """Density f(x) by numerical inversion of the characteristic function.

    Negative quadrature residue is clamped to zero.  Raises
    :class:`QuadratureError` when the panel doubling does not converge or
    the truncation self-check (doubling the cutoff) moves the result by
    more than the tolerance.
    """
    t_cut = quad.cutoff(params)
    cycles = t_cut * abs(x - params.mu) / (2.0 * math.pi)
    if cycles <= quad.max_direct_cycles:
        value = _invert_direct(x, params, quad, t_cut, cycles)
    else:
        value = _invert_accelerated(x, params, quad, t_cut)
    return max(value, 0.0)


def _cos_integrand(t: np.ndarray, x: float, params: StableParams) -> np.ndarray:
    phi = stable_cf(t, params)
    phi *= np.exp(-1j * x * t)
    return phi.real


def _panel_integrate(f, edges: np.ndarray) -> float:
    """Composite 16-point Gauss-Legendre over the given panel edges."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(t.ravel()).reshape(t.shape)
    return float(np.sum(half * (vals @ _GL_WEIGHTS)))


def _graded_edges(lo: float, hi: float, levels: int = 54) -> np.ndarray:
    """Panel edges accumulating geometrically at ``lo``; resolves the
    |t|^alpha cusp of the characteristic function at t = 0."""
    steps = (hi - lo) * 2.0 ** -np.arange(levels, 0, -1, dtype=float)
    return np.concatenate([[lo], lo + steps, [hi]])


def _invert_direct(
    x: float, params: StableParams, quad: QuadratureSpec, t_cut: float, cycles: float
) -> float:
    f = lambda t: _cos_integrand(t, x, params)
    n = max(16, int(math.ceil(2.0 * cycles)))

    def total(n_panels: int) -> float:
        first = t_cut / n_panels
        head = _panel_integrate(f, _graded_edges(0.0, first))
        return head + _panel_integrate(f, np.linspace(first, t_cut, n_panels))

    prev = total(n)
    for _ in range(quad.max_refinements):
        n *= 2
        cur = total(n)
        if abs(cur - prev) < quad.tol:
            tail = _panel_integrate(f, np.linspace(t_cut, 2.0 * t_cut, 65))
            if abs(tail) > max(10.0 * quad.tol, 1e-8):
                raise QuadratureError(
                    f"truncation self-check failed at x={x}: doubling the "
                    f"cutoff moves the integral by {abs(tail):.3e}"
                )
            return cur / math.pi
        prev = cur
    raise QuadratureError(f"panel doubling did not converge at x={x}")


def _averaged_tail(partial_sums: list[float], window: int = 40) -> float:
    """Limit estimate of a partial-sum sequence by repeated averaging of the
    trailing window (Euler transform of the alternating tail)."""
    arr = np.array(partial_sums[-min(len(partial_sums), window) :], dtype=float)
    while len(arr) > 1:
        arr = 0.5 * (arr[1:] + arr[:-1])
    return float(arr[0])


def _invert_accelerated(
    x: float, params: StableParams, quad: QuadratureSpec, t_cut: float
) -> float:
    """Far-tail inversion: integrate half-periods of the oscillation and
    accelerate the alternating series.  Used when direct panel quadrature
    would need more than ``max_direct_cycles`` oscillation cycles."""
    freq = abs(x - params.mu)
    h = math.pi / freq
    f = lambda t: _cos_integrand(t, x, params)
    partial = [_panel_integrate(f, _graded_edges(0.0, h))]
    prev_est = None
    stable_hits = 0
    k = 1
    while k < quad.accel_max_terms:
        term = _panel_integrate(f, np.linspace(k * h, (k + 1) * h, 3))
        partial.append(partial[-1] + term)
        if k * h > t_cut:
            # envelope exhausted: the running sum is already the integral
            return partial[-1] / math.pi
        if k >= quad.accel_min_terms and k % 4 == 0:
            est = _averaged_tail(partial)
            if prev_est is not None and abs(est - prev_est) <= quad.tol * max(
                1.0, abs(est)
            ):
                stable_hits += 1
                if stable_hits >= 3:
                    return est / math.pi
            else:
                stable_hits = 0
            prev_est = est
        k += 1
    raise QuadratureError(
        f"accelerated tail summation did not stabilize at x={x} "
        f"after {quad.accel_max_terms} half-periods"
    )
