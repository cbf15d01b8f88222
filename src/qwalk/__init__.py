"""Discrete-time quantum walk models for financial return distributions,
with classical baselines (classical random walk, alpha-stable densities)."""

from .coin import CoinAngles, CoinOperator, make_su2_coin, make_theta_coin
from .walk import (
    DOWN_IC,
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    PositionDistribution,
    WalkState,
    evolve,
    position_distribution,
    propagate,
)
from .decoherence import DecoherenceSpec, EnsembleResult, realization_rng, run_ensemble
from .stats import SummaryStats, moments, normalize_to_reference
from .classical import (
    QuadratureError,
    StableParams,
    classical_rw_distribution,
    stable_cf,
    stable_pdf,
)
from .pricing import DiffusionScaler, QwPriceModel, qw_price_path

__version__ = "0.1.0"
