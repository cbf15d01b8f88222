"""Asset-price model driven by the quantum walk.

Price increments follow dS = mu S dt + sigma S f(t) dQ, where dQ is the
walk's stochastic term and f(t) is a diffusion scaler that can compensate
the walk's ballistic spreading (variance growing like n^2 rather than n).
Because no trajectory-level semantics for Q(t) exists here, dQ is realized
by sampling a terminal site from the walk's position distribution once per
horizon of ``steps_per_horizon`` steps; measuring more often would collapse
the walk to the classical random walk and erase the interference structure
this model exists to provide.  Each lattice site j maps to a log-return

    r_j = mu * dt_horizon + sigma * f(dt_horizon) * dx * j,

where the lattice scale dx is calibrated from the realized distribution's
own standard deviation (so the pre-normalization return std equals sigma),
unless an explicit ``lattice_scale`` is supplied, e.g. for diffusion-scaling
diagnostics where dx must stay fixed across horizon lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import decoherence
from .coin import CoinAngles, make_su2_coin
from .decoherence import DecoherenceSpec, run_ensemble
from .stats import moments
from .walk import InitialCoinState, PositionDistribution, evolve, position_distribution

__all__ = [
    "DiffusionScaler",
    "QwPriceModel",
    "ReturnDistribution",
    "qw_return_distribution",
    "prenormalized_return_distribution",
    "qw_price_path",
    "normalized_returns",
]

#: reserved spawn key for the lattice-scale calibration stream of price paths
_CALIBRATION_KEY = 2**32
#: ensemble size used to calibrate dx for decoherent price paths
_CALIBRATION_REALIZATIONS = 200


@dataclass(frozen=True)
class DiffusionScaler:
    """Diffusion control f(t): constant one, t^{-1/2} (with f(0) := 1), or a
    positive table interpolated linearly in t."""

    mode: str
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_f: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("unit", "inverse_sqrt", "custom"):
            raise ValueError(f"unknown scaler mode {self.mode!r}")
        if self.mode == "custom":
            t = np.asarray(self.table_t, dtype=float)
            f = np.asarray(self.table_f, dtype=float)
            if t.ndim != 1 or t.shape != f.shape or len(t) < 2:
                raise ValueError("custom scaler needs matching 1-d t and f tables")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(f))):  # NaN fails too
                raise ValueError("custom scaler tables must be finite")
            if np.any(t[1:] <= t[:-1]):  # np.diff would overflow on a +-1e308 span
                raise ValueError("custom scaler times must be strictly increasing")
            if np.any(f <= 0):
                raise ValueError("scaler values must be positive")
            object.__setattr__(self, "table_t", t)
            object.__setattr__(self, "table_f", f)

    @classmethod
    def unit(cls) -> "DiffusionScaler":
        return cls("unit")

    @classmethod
    def inverse_sqrt(cls) -> "DiffusionScaler":
        return cls("inverse_sqrt")

    @classmethod
    def custom(cls, t, f) -> "DiffusionScaler":
        return cls("custom", table_t=np.asarray(t, float), table_f=np.asarray(f, float))

    def value(self, t: float) -> float:
        if not t >= 0:
            raise ValueError(f"scaler time must be non-negative, got {t}")
        if self.mode == "unit":
            return 1.0
        if self.mode == "inverse_sqrt":
            return 1.0 if t == 0.0 else t**-0.5
        # np.interp's slope is 0 over an overflowing span; halved times do not overflow
        half = 0.5 if float(self.table_t[-1]) - float(self.table_t[0]) == math.inf else 1.0
        return float(np.interp(half * t, half * self.table_t, self.table_f))


@dataclass(frozen=True)
class QwPriceModel:
    """Full parameter bundle for the walk-driven price process."""

    mu: float
    sigma: float
    ic: InitialCoinState
    angles: CoinAngles
    decoherence: DecoherenceSpec
    steps_per_horizon: int
    dt_per_step: float
    scaler: DiffusionScaler
    s0: float = 1.0

    def __post_init__(self):
        if not self.s0 > 0:  # each check is written so that NaN fails it
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.steps_per_horizon < 1:
            raise ValueError("steps_per_horizon must be >= 1")
        if not self.dt_per_step > 0:
            raise ValueError("dt_per_step must be positive")
        if not math.isfinite(self.horizon):
            raise ValueError("the horizon steps_per_horizon * dt_per_step must be finite")
        if self.decoherence.mode != "none" and self.angles.eta != 0.0:
            raise ValueError(
                "decoherent walks are defined for the single-angle coin family; "
                "use angles with xi == zeta"
            )

    @property
    def horizon(self) -> float:
        return self.steps_per_horizon * self.dt_per_step


@dataclass(frozen=True)
class ReturnDistribution:
    """Normalized-return distribution: probability ``probs[k]`` at return
    value ``returns[k]``, with the horizon length it was generated over.
    Unit variance under ``probs`` by construction."""

    returns: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    horizon: float = 1.0


def _model_distribution(
    model: QwPriceModel, seed: int, realizations: int
) -> PositionDistribution:
    if model.decoherence.mode == "none":
        state = evolve(model.ic, make_su2_coin(model.angles), model.steps_per_horizon)
        return position_distribution(state)
    result = run_ensemble(
        model.ic,
        model.angles.theta,
        model.decoherence,
        model.steps_per_horizon,
        realizations,
        seed,
    )
    return result.mean


def _lattice_scale(model: QwPriceModel, dist: PositionDistribution) -> float:
    """dx = 1 / (f(horizon) * walk_std), at which the site returns of ``dist``
    have standard deviation sigma; a zero-variance walk or an infinite dx fails."""
    variance = moments(dist).variance
    if variance <= 0.0:
        raise ValueError("walk distribution has zero variance; returns degenerate")
    spread = model.scaler.value(model.horizon) * math.sqrt(variance)
    dx = 1.0 / spread if spread > 0.0 else math.inf  # a subnormal f underflows
    if dx == math.inf:
        raise ValueError(f"lattice scale dx = 1 / {spread} is not finite")
    return dx


def _check_lattice_scale(dx: float | None):
    """An explicit lattice scale must be positive and finite (NaN fails)."""
    if dx is not None and not 0.0 < dx < math.inf:
        raise ValueError(f"lattice scale must be positive and finite, got {dx}")


def prenormalized_return_distribution(
    model: QwPriceModel,
    seed: int,
    realizations: int,
    lattice_scale: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return values r_j and probabilities before unit-variance
    normalization.

    With ``lattice_scale=None`` the scale dx is calibrated so the return
    standard deviation equals sigma; passing an explicit dx keeps the
    mapping fixed, exposing the scaler's n-dependence (return std then
    scales like sigma * f(horizon) * dx * walk_std(n))."""
    _check_lattice_scale(lattice_scale)
    dist = _model_distribution(model, seed, realizations)
    calibrated = _lattice_scale(model, dist)  # rejects a zero-variance walk either way
    dx = calibrated if lattice_scale is None else lattice_scale
    j = dist.sites.astype(float)
    values = model.mu * model.horizon + model.sigma * model.scaler.value(model.horizon) * dx * j
    return values, dist.probs.copy()


def qw_return_distribution(
    model: QwPriceModel, seed: int, realizations: int
) -> ReturnDistribution:
    """Normalized-return distribution of one horizon of the model.

    The raw site returns are divided by their standard deviation under the
    distribution, giving exactly unit variance; the mean is not subtracted,
    so a drift or an asymmetric walk shifts the distribution."""
    values, probs = prenormalized_return_distribution(model, seed, realizations)
    mean = float(np.sum(values * probs))
    std = math.sqrt(float(np.sum((values - mean) ** 2 * probs)))
    if std <= 1e-12 * max(float(np.max(np.abs(values))), 1e-300):
        raise ValueError("return distribution has zero variance")
    return ReturnDistribution(
        returns=values / std, probs=probs, horizon=model.horizon
    )


def qw_price_path(
    model: QwPriceModel,
    total_steps: int,
    seed: int,
    lattice_scale: float | None = None,
) -> np.ndarray:
    """Price series at horizon boundaries, length ``total_steps`` + 1.

    Each horizon evolves a fresh walk (an independent stochastic realization
    when decoherence is active), samples one terminal site from its position
    distribution and compounds S <- S * exp(r_site).  Horizon h draws from
    the stream ``SeedSequence(seed, spawn_key=(h,))``, so paths are
    deterministic and horizons are order-independent.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    _check_lattice_scale(lattice_scale)
    # a unitary walk is the same every horizon: walked once, it also calibrates
    unitary = _model_distribution(model, seed, 1) if model.decoherence.mode == "none" else None
    if lattice_scale is None:
        # calibration stream is offset from the horizon streams so the two
        # never alias for any horizon index
        calibration = unitary if unitary is not None else _model_distribution(
            model, seed=seed + _CALIBRATION_KEY, realizations=_CALIBRATION_REALIZATIONS)
        lattice_scale = _lattice_scale(model, calibration)

    f_val = model.scaler.value(model.horizon)
    n = model.steps_per_horizon
    sites = np.arange(-n, n + 1)
    prices = [model.s0]
    # horizon h is realization h of the ensemble engine: its stream draws the
    # walk's noise, then samples the walk
    for rngs, walks in decoherence._chunks(
            model.ic, [model.angles.theta], model.decoherence, n, total_steps, seed):
        probs = next(walks) if unitary is None else [unitary.probs] * len(rngs)
        for rng, p in zip(rngs, probs):
            j = int(rng.choice(sites, p=p / p.sum()))
            r = model.mu * model.horizon + model.sigma * f_val * lattice_scale * j
            prices.append(prices[-1] * math.exp(r))
            if not 0.0 < prices[-1] < math.inf:  # overflowed, or underflowed to 0
                raise ValueError(f"price at horizon {len(prices) - 1} is {prices[-1]}")
    return np.array(prices)


def normalized_returns(prices: np.ndarray, delta_t: int) -> np.ndarray:
    """Log price differences at lag ``delta_t`` divided by their sample
    standard deviation; the output has unit sample variance.

    Constant-return series (zero variance) are rejected."""
    prices = np.asarray(prices, dtype=float)
    if delta_t < 1:
        raise ValueError(f"delta_t must be >= 1, got {delta_t}")
    if len(prices) <= delta_t:
        raise ValueError("price series shorter than the return horizon")
    if not np.all((prices > 0) & (prices < math.inf)):  # so that NaN fails too
        raise ValueError("prices must be strictly positive and finite")
    log_p = np.log(prices)
    raw = log_p[delta_t:] - log_p[:-delta_t]
    std = float(np.std(raw))
    # constant-to-rounding returns (e.g. an exactly geometric series) are
    # degenerate: the normalized output would be pure floating-point noise
    if std <= 1e-12 * max(np.max(np.abs(raw)), 1e-300):
        raise ValueError("returns have zero variance; normalization undefined")
    return raw / std
