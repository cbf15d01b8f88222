"""Discrete-time quantum walk models for financial return distributions,
with classical baselines (geometric Brownian motion, classical random walk,
Gaussian and alpha-stable densities)."""

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
from .stats import (
    Histogram,
    SummaryStats,
    aggregate_histogram,
    moments,
    normalize_to_reference,
    total_variation,
)
from .classical import (
    GbmParams,
    QuadratureError,
    QuadratureSpec,
    StableParams,
    classical_rw_distribution,
    gaussian_pdf,
    gbm_path,
    gbm_terminal_samples,
    stable_cf,
    stable_pdf,
)
from .pricing import (
    DiffusionScaler,
    QwPriceModel,
    ReturnDistribution,
    normalized_returns,
    prenormalized_return_distribution,
    qw_price_path,
    qw_return_distribution,
)

__version__ = "0.1.0"
