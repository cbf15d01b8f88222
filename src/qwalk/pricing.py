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
own standard deviation (so the site returns' std equals sigma),
unless an explicit ``lattice_scale`` is supplied, e.g. for diffusion-scaling
diagnostics where dx must stay fixed across horizon lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import decoherence
from .coin import CoinAngles, make_su2_coin
from .decoherence import DecoherenceSpec
from .stats import moments
from .walk import (InitialCoinState, PositionDistribution, _check_integer, evolve,
                   position_distribution)

__all__ = [
    "DiffusionScaler",
    "QwPriceModel",
    "qw_price_path",
]

#: seed offset of the lattice-scale calibration ensemble of decoherent price
#: paths: its realization r draws from SeedSequence(seed + 2**32, spawn_key=(r,))
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
        _check_integer("steps_per_horizon", self.steps_per_horizon, 1)
        if not self.dt_per_step > 0:
            raise ValueError("dt_per_step must be positive")
        # a step count past the float range has no float product to check
        if not (self.steps_per_horizon < 2**1023 and math.isfinite(self.horizon)):
            raise ValueError("the horizon steps_per_horizon * dt_per_step must be finite")
        if self.decoherence.p and self.angles.eta != 0.0:  # p = 0 is the unitary walk
            raise ValueError("decoherent walks (p > 0) are defined for the single-angle "
                             "coin family; use angles with xi == zeta")

    @property
    def horizon(self) -> float:
        return self.steps_per_horizon * self.dt_per_step


def _model_distribution(model: QwPriceModel, seed: int,
                        realizations: int) -> PositionDistribution:
    """The walk's distribution: the one unitary walk of the model's coin when
    it is noiseless, else the mean of :func:`decoherence.run_ensemble`."""
    spec, n = model.decoherence, model.steps_per_horizon
    if not spec.p:
        return position_distribution(evolve(model.ic, make_su2_coin(model.angles), n))
    return decoherence.run_ensemble(model.ic, model.angles.theta, spec, n, realizations,
                                    seed).mean


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


def qw_price_path(
    model: QwPriceModel,
    total_steps: int,
    seed: int,
    lattice_scale: float | None = None,
) -> np.ndarray:
    """Price series at horizon boundaries, length ``total_steps`` + 1.

    Each horizon samples one terminal site from the position distribution of
    a walk and compounds S <- S * exp(r_site).  Horizon h draws from the
    stream ``SeedSequence(seed, spawn_key=(h,))``, so paths are deterministic
    and horizons are order-independent.  At p > 0 the walk is realization h
    of the ensemble engine, whose noise that stream draws first, and the
    calibration is another sweep of it; at p = 0, in any mode, it is the one
    unitary walk, walked once, which also calibrates.  ``total_steps`` and
    ``seed`` must be integers, not bools.
    """
    _check_integer("total_steps", total_steps, 1)
    _check_integer("seed", seed, 0)
    _check_lattice_scale(lattice_scale)
    spec, n = model.decoherence, model.steps_per_horizon
    unitary = None if spec.p else _model_distribution(model, seed, 1)
    if lattice_scale is None:
        calibration = unitary if unitary is not None else _model_distribution(
            model, seed + _CALIBRATION_KEY, _CALIBRATION_REALIZATIONS)
        lattice_scale = _lattice_scale(model, calibration)

    f_val = model.scaler.value(model.horizon)
    sites = np.arange(-n, n + 1)
    prices = [model.s0]
    if unitary is None:
        chunks = decoherence._chunks(model.ic, [model.angles.theta], spec.mode, [spec.p], n,
                                     total_steps, seed)
        horizons = ((rng, p) for rngs, walks in chunks for rng, p in zip(rngs, next(walks)))
    else:
        horizons = ((decoherence.realization_rng(seed, h), unitary.probs)
                    for h in range(total_steps))
    for rng, p in horizons:
        j = int(rng.choice(sites, p=p / p.sum()))
        r = model.mu * model.horizon + model.sigma * f_val * lattice_scale * j
        prices.append(prices[-1] * math.exp(r))
        if not 0.0 < prices[-1] < math.inf:  # overflowed, or underflowed to 0
            raise ValueError(f"price at horizon {len(prices) - 1} is {prices[-1]}")
    return np.array(prices)


def _path_cost(model: QwPriceModel, horizons: int) -> tuple[int, int]:
    """(site updates, bytes of one batch) of :func:`qw_price_path` over
    ``horizons`` with a calibrated lattice scale: one sweep of the
    calibration's realizations and one per horizon, which costs what the two
    do, since the calibration fills a batch and a unitary walk's cost does
    not depend on its count."""
    spec, n = model.decoherence, model.steps_per_horizon
    return decoherence._sweep_cost(spec.mode, [spec.p], n,
                                   _CALIBRATION_REALIZATIONS + horizons)[:2]
