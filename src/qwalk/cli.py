"""Batch command-line interface.

Each subcommand reads a JSON config, runs one experiment and writes a CSV
(with a JSON metadata sidecar echoing the effective config) or a single
JSON document into the output directory.  Runs are deterministic: a fixed
(config, seed) pair reproduces output files byte for byte.

    qwalk <command> --config FILE --out DIR [--seed N] [--realizations N]
                    [--format csv|json]

Commands: distribution, heatmap, entropy, decoherence, compare-returns,
price-path.  Exit codes: 0 success, 2 config error, 3 numerical self-check
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classical import (
    QuadratureError,
    StableParams,
    classical_rw_distribution,
    stable_pdf,
)
from .coin import CoinAngles, make_su2_coin
from .decoherence import DecoherenceSpec, run_ensemble
from .pricing import DiffusionScaler, QwPriceModel, qw_price_path
from .stats import moments, normalize_to_reference
from .walk import (
    DOWN_IC,
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    PositionDistribution,
    evolve,
    position_distribution,
    propagate,
)

__all__ = ["ExperimentConfig", "SweepGrid", "ConfigError", "SelfCheckError", "main"]

EXPERIMENTS = (
    "distribution",
    "heatmap",
    "entropy",
    "decoherence",
    "compare_returns",
    "price_path",
)

#: walks per batched propagate call in the grid sweeps
_CHUNK = 64

_IC_PRESETS = {
    "symmetric": SYMMETRIC_IC,
    "up": UP_IC,
    "down": DOWN_IC,
}


class ConfigError(ValueError):
    """Invalid configuration; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class SelfCheckError(RuntimeError):
    """A numerical self-check failed while producing output."""


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive (eta, theta) grid ranges with point counts.

    Ranges must lie within [0, pi/2] and theta grids must exclude pi/2
    itself, where the skewness ratio degenerates to 0/0.
    """

    eta_start: float
    eta_stop: float
    eta_count: int
    theta_start: float
    theta_stop: float
    theta_count: int

    def __post_init__(self):
        half_pi = math.pi / 2
        for name in ("eta", "theta"):
            start = getattr(self, f"{name}_start")
            stop = getattr(self, f"{name}_stop")
            count = getattr(self, f"{name}_count")
            if count < 2:
                raise ConfigError(f"grid.{name}.count", "must be >= 2")
            if not (0.0 <= start < stop <= half_pi + 1e-12):
                raise ConfigError(
                    f"grid.{name}", "range must satisfy 0 <= start < stop <= pi/2"
                )
        if self.theta_stop >= half_pi - 1e-12:
            raise ConfigError(
                "grid.theta.stop",
                "theta = pi/2 is excluded (skewness degenerates to 0/0 there)",
            )

    def eta_values(self) -> np.ndarray:
        return np.linspace(self.eta_start, self.eta_stop, self.eta_count)

    def theta_values(self) -> np.ndarray:
        return np.linspace(self.theta_start, self.theta_stop, self.theta_count)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified experiment: id, seed, output format and the
    experiment-specific parameter document."""

    experiment: str
    seed: int
    realizations: int
    out_format: str
    params: dict

    def serialize(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "realizations": self.realizations,
            "format": self.out_format,
            **self.params,
        }


def _require_keys(doc: dict, path: str, required: tuple, optional: tuple = ()):
    allowed = set(required) | set(optional)
    for key in doc:
        if key not in allowed:
            raise ConfigError(_join(path, key), "unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(_join(path, key), "missing required key")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(doc: dict, key: str, path: str, lo=None, hi=None) -> float:
    v = doc.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(_join(path, key), f"expected a number, got {v!r}")
    # an integer literal past the float range counts as infinite
    v = float(v) if isinstance(v, float) or abs(v) < 2**1023 else math.inf
    if not math.isfinite(v):
        raise ConfigError(_join(path, key), f"must be finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(_join(path, key), f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(_join(path, key), f"must be <= {hi}, got {v}")
    return v


def _integer(doc: dict, key: str, path: str, lo=None) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(_join(path, key), f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(_join(path, key), f"must be >= {lo}, got {v}")
    return v


def _string(doc: dict, key: str, path: str, choices=None) -> str:
    v = doc.get(key)
    if not isinstance(v, str):
        raise ConfigError(_join(path, key), f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(_join(path, key), f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _parse_ic(doc, path: str) -> InitialCoinState:
    if isinstance(doc, str):
        if doc not in _IC_PRESETS:
            raise ConfigError(path, f"unknown preset {doc!r}; use {sorted(_IC_PRESETS)}")
        return _IC_PRESETS[doc]
    if (
        isinstance(doc, list)
        and len(doc) == 2
        and all(isinstance(c, list) and len(c) == 2 for c in doc)
    ):
        a, b = (
            complex(*_parse_number_list({f"{path}[{i}]": row}, f"{path}[{i}]"))
            for i, row in enumerate(doc)
        )
        try:
            return InitialCoinState(a, b)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "expected a preset name or [[a_re,a_im],[b_re,b_im]]")


def _parse_coin(doc, path: str) -> CoinAngles:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with keys xi, theta, zeta")
    _require_keys(doc, path, required=("theta",), optional=("xi", "zeta"))
    return CoinAngles(
        xi=_number(doc, "xi", path) if "xi" in doc else 0.0,
        theta=_number(doc, "theta", path),
        zeta=_number(doc, "zeta", path) if "zeta" in doc else 0.0,
    )


def _parse_decoherence(doc, path: str) -> DecoherenceSpec:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with key mode")
    mode = _string(doc, "mode", path, choices={"none", "broken_links", "random_phase"})
    if mode == "none":
        _require_keys(doc, path, required=("mode",))
        return DecoherenceSpec.none()
    if mode == "broken_links":
        _require_keys(doc, path, required=("mode", "p"))
        return DecoherenceSpec.broken_links(_number(doc, "p", path, lo=0.0, hi=1.0))
    _require_keys(doc, path, required=("mode", "p_tilde"))
    return DecoherenceSpec.random_phase(_number(doc, "p_tilde", path, lo=0.0, hi=1.0))


def _parse_scaler(doc, path: str) -> DiffusionScaler:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with key mode")
    mode = _string(doc, "mode", path, choices={"unit", "inverse_sqrt", "custom"})
    if mode == "custom":
        _require_keys(doc, path, required=("mode", "t", "f"))
        t, f = (_parse_number_list(doc, key, path=path) for key in ("t", "f"))
        try:
            return DiffusionScaler.custom(t, f)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    _require_keys(doc, path, required=("mode",))
    return DiffusionScaler.unit() if mode == "unit" else DiffusionScaler.inverse_sqrt()


def _parse_range(doc, path: str, count_key: str = "count") -> tuple[float, float, int]:
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object {start, stop, count}")
    _require_keys(doc, path, required=("start", "stop", count_key))
    start = _number(doc, "start", path)
    stop = _number(doc, "stop", path)
    count = _integer(doc, count_key, path, lo=2)
    if stop <= start:
        raise ConfigError(_join(path, "stop"), "must exceed start")
    return start, stop, count


_COMMON_KEYS = ("experiment", "seed", "realizations", "format")

_PARAM_KEYS = {
    "distribution": (("runs",), ("rescale",)),
    "heatmap": (("statistic", "n", "grid"), ("initial_state",)),
    "entropy": (
        ("theta_grid", "n_values"),
        ("p_tilde_values", "initial_state", "include_classical", "include_uniform"),
    ),
    "decoherence": (
        ("n", "theta", "p_values"),
        ("initial_state", "normalize_to_classical"),
    ),
    "compare_returns": (
        ("n", "p", "axis"),
        ("theta", "initial_state", "stable", "gaussian"),
    ),
    "price_path": (("model", "horizons"), ()),
}


def parse_config(doc: dict, experiment: str | None = None) -> ExperimentConfig:
    """Validate a raw config document; unknown keys are errors reported with
    dotted field paths."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be an object")
    exp = doc.get("experiment", experiment)
    if exp is None:
        raise ConfigError("experiment", "missing required key")
    if exp not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {exp!r}")
    if experiment is not None and exp != experiment:
        raise ConfigError(
            "experiment", f"config says {exp!r} but the {experiment!r} command was run"
        )
    required, optional = _PARAM_KEYS[exp]
    _require_keys(doc, "", required=(), optional=_COMMON_KEYS + required + optional)
    for key in required:
        if key not in doc:
            raise ConfigError(key, "missing required key")
    seed = _integer(doc, "seed", "", lo=0) if "seed" in doc else 0
    realizations = (
        _integer(doc, "realizations", "", lo=1) if "realizations" in doc else 1000
    )
    out_format = (
        _string(doc, "format", "", choices={"csv", "json"}) if "format" in doc else "csv"
    )
    params = {k: doc[k] for k in doc if k not in _COMMON_KEYS}
    cfg = ExperimentConfig(
        experiment=exp,
        seed=seed,
        realizations=realizations,
        out_format=out_format,
        params=params,
    )
    _validate_params(cfg)
    return cfg


def _validate_params(cfg: ExperimentConfig):
    """Eagerly parse every parameter so config errors surface before any
    computation starts."""
    p = cfg.params
    exp = cfg.experiment
    if exp == "distribution":
        runs = p.get("runs")
        if not isinstance(runs, list) or not runs:
            raise ConfigError("runs", "expected a non-empty list of run objects")
        for i, run in enumerate(runs):
            path = f"runs[{i}]"
            if not isinstance(run, dict):
                raise ConfigError(path, "expected an object")
            _require_keys(run, path, required=("label", "n"), optional=("coin", "initial_state"))
            _string(run, "label", path)
            _integer(run, "n", path, lo=0)
            if "coin" in run:
                _parse_coin(run["coin"], _join(path, "coin"))
            if "initial_state" in run:
                _parse_ic(run["initial_state"], _join(path, "initial_state"))
        if "rescale" in p:
            _string(p, "rescale", "", choices={"none", "max_position", "peak_position"})
    elif exp == "heatmap":
        _string(p, "statistic", "", choices={"skewness", "variance_over_n2"})
        _integer(p, "n", "", lo=1)
        _parse_sweep_grid(p.get("grid"))
        if "initial_state" in p:
            _parse_ic(p["initial_state"], "initial_state")
    elif exp == "entropy":
        start, stop, _ = _parse_range(p.get("theta_grid"), "theta_grid")
        _parse_number_list(p, "n_values", integer=True, lo=0)
        if "p_tilde_values" in p:
            _parse_number_list(p, "p_tilde_values", lo=0.0, hi=1.0)
        if "initial_state" in p:
            _parse_ic(p["initial_state"], "initial_state")
        for flag in ("include_classical", "include_uniform"):
            if flag in p and not isinstance(p[flag], bool):
                raise ConfigError(flag, "expected a boolean")
        if stop >= math.pi / 2 - 1e-12:
            raise ConfigError("theta_grid.stop", "theta = pi/2 is excluded")
    elif exp == "decoherence":
        _integer(p, "n", "", lo=1)
        _number(p, "theta", "")
        _parse_number_list(p, "p_values", lo=0.0, hi=1.0)
        if "initial_state" in p:
            _parse_ic(p["initial_state"], "initial_state")
        if "normalize_to_classical" in p and not isinstance(
            p["normalize_to_classical"], bool
        ):
            raise ConfigError("normalize_to_classical", "expected a boolean")
    elif exp == "compare_returns":
        _integer(p, "n", "", lo=1)
        _number(p, "p", "", lo=0.0, hi=1.0)
        _parse_range(p.get("axis"), "axis", count_key="bins")
        if "theta" in p:
            _number(p, "theta", "")
        if "initial_state" in p:
            _parse_ic(p["initial_state"], "initial_state")
        if "stable" in p:
            s = p["stable"]
            if not isinstance(s, dict):
                raise ConfigError("stable", "expected an object")
            _require_keys(s, "stable", required=("alpha", "beta"), optional=("c", "mu"))
            _stable_from(p)
        if "gaussian" in p:
            g = p["gaussian"]
            if not isinstance(g, dict):
                raise ConfigError("gaussian", "expected an object")
            _require_keys(g, "gaussian", required=(), optional=("mu", "sigma"))
            _gaussian_from(p)
    elif exp == "price_path":
        _integer(p, "horizons", "", lo=1)
        _parse_price_model(p.get("model"))


def _parse_number_list(p: dict, key: str, integer=False, lo=None, hi=None, path=""):
    values = p.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(_join(path, key), "expected a non-empty list")
    for i, v in enumerate(values):
        item = f"{_join(path, key)}[{i}]"
        if integer:
            _integer({item: v}, item, "", lo=lo)
        else:
            _number({item: v}, item, "", lo=lo, hi=hi)
    return values


def _parse_sweep_grid(doc) -> SweepGrid:
    if not isinstance(doc, dict):
        raise ConfigError("grid", "expected an object {eta, theta}")
    _require_keys(doc, "grid", required=("eta", "theta"))
    es, eo, ec = _parse_range(doc["eta"], "grid.eta")
    ts, to, tc = _parse_range(doc["theta"], "grid.theta")
    return SweepGrid(es, eo, ec, ts, to, tc)


def _parse_price_model(doc) -> QwPriceModel:
    if not isinstance(doc, dict):
        raise ConfigError("model", "expected an object")
    _require_keys(
        doc,
        "model",
        required=("sigma", "steps_per_horizon", "dt_per_step", "coin"),
        optional=("mu", "s0", "initial_state", "decoherence", "scaler"),
    )
    try:
        return QwPriceModel(
            mu=_number(doc, "mu", "model") if "mu" in doc else 0.0,
            sigma=_number(doc, "sigma", "model", lo=0.0),
            ic=_parse_ic(doc.get("initial_state", "symmetric"), "model.initial_state"),
            angles=_parse_coin(doc["coin"], "model.coin"),
            decoherence=_parse_decoherence(
                doc.get("decoherence", {"mode": "none"}), "model.decoherence"
            ),
            steps_per_horizon=_integer(doc, "steps_per_horizon", "model", lo=1),
            dt_per_step=_number(doc, "dt_per_step", "model", lo=0.0),
            scaler=_parse_scaler(doc.get("scaler", {"mode": "unit"}), "model.scaler"),
            s0=_number(doc, "s0", "model") if "s0" in doc else 1.0,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("model", str(exc)) from exc


def _stable_from(p: dict) -> StableParams:
    s = p.get("stable", {})
    defaults = {"alpha": 0.5, "beta": 0.5, "c": 1.0 / math.sqrt(2.0), "mu": 0.0}
    kwargs = {k: _number(s, k, "stable") if k in s else v for k, v in defaults.items()}
    try:
        return StableParams(**kwargs)
    except ValueError as exc:
        raise ConfigError("stable", str(exc)) from exc


def _gaussian_from(p: dict) -> tuple[float, float]:
    g = p.get("gaussian", {})
    mu = _number(g, "mu", "gaussian") if "mu" in g else 0.0
    sigma = _number(g, "sigma", "gaussian") if "sigma" in g else 1.0
    if sigma <= 0:
        raise ConfigError("gaussian.sigma", "must be positive")
    return mu, sigma


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_distribution(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Position distributions for each configured (coin, ic, n) run."""
    rescale = cfg.params.get("rescale", "none")
    header = ["label", "n", "j", "position", "prob"]
    rows = []
    for run in cfg.params["runs"]:
        angles = _parse_coin(run.get("coin", {"theta": math.pi / 4}), "coin")
        ic = _parse_ic(run.get("initial_state", "symmetric"), "initial_state")
        n = run["n"]
        dist = position_distribution(evolve(ic, make_su2_coin(angles), n))
        for j, prob in zip(dist.sites, dist.probs):
            if rescale == "max_position" and n > 0:
                pos = j / n
            elif rescale == "peak_position" and n > 0:
                pos = j / (n / math.sqrt(2.0))
            else:
                pos = float(j)
            rows.append([run["label"], n, int(j), pos, float(prob)])
    return header, rows


def _grid_distributions(ic: InitialCoinState, pairs, n: int):
    """Position distributions of one walk per (xi, theta) pair, zeta = 0, in
    order; ``_CHUNK`` walks at a time share one batched propagation."""
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, _CHUNK)):
        coins = [make_su2_coin(CoinAngles(xi, theta, 0.0)).matrix for xi, theta in chunk]
        a, b = propagate(ic.a0, ic.b0, coins, n)
        probs = np.abs(a) ** 2 + np.abs(b) ** 2
        del a, b  # freed before the next chunk propagates
        yield from (PositionDistribution(n=n, probs=p) for p in probs)


def cmd_heatmap(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """(eta, theta, statistic) sweep of the symmetric-IC walk at fixed n."""
    grid = _parse_sweep_grid(cfg.params["grid"])
    statistic = cfg.params["statistic"]
    n = cfg.params["n"]
    ic = _parse_ic(cfg.params.get("initial_state", "symmetric"), "initial_state")
    header = ["eta", "theta", statistic]
    rows = []
    cells, pairs = itertools.tee(itertools.product(grid.eta_values(), grid.theta_values()))
    for (eta, theta), dist in zip(cells, _grid_distributions(ic, pairs, n)):
        summary = moments(dist)
        value = summary.skewness if statistic == "skewness" else summary.variance / n**2
        rows.append([float(eta), float(theta), value])
    return header, rows


def _uniform_entropy(n: int) -> float:
    # uniform over the n+1 parity-allowed sites of an origin-started walk
    return math.log(n + 1) if n > 0 else 0.0


def cmd_entropy(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Entropy-vs-theta curves per n and per p_tilde, with classical-walk
    and uniform reference rows."""
    start, stop, count = _parse_range(cfg.params["theta_grid"], "theta_grid")
    thetas = np.linspace(start, stop, count)
    n_values = cfg.params["n_values"]
    p_tildes = cfg.params.get("p_tilde_values", [0.0])
    ic = _parse_ic(cfg.params.get("initial_state", "symmetric"), "initial_state")
    include_classical = cfg.params.get("include_classical", True)
    include_uniform = cfg.params.get("include_uniform", True)
    header = ["series", "n", "p_tilde", "theta", "entropy"]
    rows = []
    for n in n_values:
        for p_tilde in p_tildes:
            if p_tilde == 0.0:
                dists = _grid_distributions(ic, ((0.0, t) for t in thetas), n)
            else:
                spec = DecoherenceSpec.random_phase(p_tilde)
                dists = (run_ensemble(ic, t, spec, n, cfg.realizations, cfg.seed).mean
                         for t in thetas)
            for theta, dist in zip(thetas, dists):
                rows.append(["quantum", n, float(p_tilde), float(theta), moments(dist).entropy])
        if include_classical:
            h_classical = moments(classical_rw_distribution(n)).entropy
            for theta in thetas:
                rows.append(["classical", n, 0.0, float(theta), h_classical])
        if include_uniform:
            h_uniform = _uniform_entropy(n)
            for theta in thetas:
                rows.append(["uniform", n, 0.0, float(theta), h_uniform])
    return header, rows


def cmd_decoherence(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Broken-link ensemble means with per-site standard errors, plus the
    classical random-walk reference."""
    n = cfg.params["n"]
    theta = cfg.params["theta"]
    p_values = cfg.params["p_values"]
    ic = _parse_ic(cfg.params.get("initial_state", "symmetric"), "initial_state")
    to_classical = cfg.params.get("normalize_to_classical", False)
    classical = classical_rw_distribution(n)
    header = ["series", "p", "j", "prob", "sem"]
    rows = []
    for p in p_values:
        result = run_ensemble(
            ic, theta, DecoherenceSpec.broken_links(p), n, cfg.realizations, cfg.seed
        )
        dist = result.mean
        sem = result.sem
        if to_classical:
            scaled = normalize_to_reference(dist, classical)
            # the rescaling is linear; apply the same factor to the errors
            ratio = scaled.probs.sum() / dist.probs.sum()
            dist, sem = scaled, sem * ratio
        for j, prob, err in zip(dist.sites, dist.probs, sem):
            rows.append(["quantum", float(p), int(j), float(prob), float(err)])
    for j, prob in zip(classical.sites, classical.probs):
        rows.append(["classical", "", int(j), float(prob), 0.0])
    return header, rows


def cmd_compare_returns(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Gaussian, stable and decohered-walk return distributions binned onto
    one normalized-return axis.

    The shared axis is in units of the classical-limit standard deviation:
    walk site j maps to g = j / sqrt(n), the scale at which the fully
    decohered walk (the model's GBM-equivalent baseline) has unit variance.
    Each column is renormalized to unit mass over the displayed axis, which
    keeps heavy-tailed columns comparable and every mass strictly positive
    for log-scale plotting.
    """
    n = cfg.params["n"]
    theta = cfg.params.get("theta", math.pi / 4)
    p = cfg.params["p"]
    ic = _parse_ic(cfg.params.get("initial_state", "up"), "initial_state")
    start, stop, bins = _parse_range(cfg.params["axis"], "axis", count_key="bins")
    g_mu, g_sigma = _gaussian_from(cfg.params)
    stable = _stable_from(cfg.params)

    edges = np.linspace(start, stop, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    def norm_cdf(x):
        return 0.5 * (1.0 + math.erf((x - g_mu) / (g_sigma * math.sqrt(2.0))))

    gaussian_mass = np.array(
        [norm_cdf(b) - norm_cdf(a) for a, b in zip(edges[:-1], edges[1:])]
    )

    # Simpson's rule per bin; neighbouring bins share their edge values
    f_edges, f_mid = (np.array([stable_pdf(x, stable) for x in xs]) for xs in (edges, centers))
    stable_mass = (f_edges[:-1] + 4.0 * f_mid + f_edges[1:]) / 6.0 * (edges[1:] - edges[:-1])

    ensemble = run_ensemble(
        ic, theta, DecoherenceSpec.broken_links(p), n, cfg.realizations, cfg.seed
    )
    g_sites = ensemble.mean.sites / math.sqrt(n)
    quantum_mass = np.zeros(bins)
    idx = np.searchsorted(edges, g_sites, side="right") - 1
    for k, prob in zip(idx, ensemble.mean.probs):
        if 0 <= k < bins:
            quantum_mass[k] += prob

    columns = {}
    for name, mass in (
        ("gaussian", gaussian_mass),
        ("stable", stable_mass),
        ("quantum", quantum_mass),
    ):
        total = mass.sum()
        if total <= 0:
            raise SelfCheckError(f"{name} column has no mass on the configured axis")
        mass = mass / total
        if np.any(mass <= 0.0):
            raise SelfCheckError(
                f"{name} column has empty bins on the configured axis; widen the "
                "bins or narrow the axis"
            )
        columns[name] = mass

    header = ["g", "gaussian", "stable", "quantum"]
    rows = [
        [float(c), float(columns["gaussian"][i]), float(columns["stable"][i]),
         float(columns["quantum"][i])]
        for i, c in enumerate(centers)
    ]
    return header, rows


def cmd_price_path(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """One walk-driven price series at horizon boundaries."""
    model = _parse_price_model(cfg.params["model"])
    horizons = cfg.params["horizons"]
    prices = qw_price_path(model, horizons, cfg.seed)
    header = ["step", "time", "price"]
    rows = [
        [int(k), float(k * model.horizon), float(s)] for k, s in enumerate(prices)
    ]
    return header, rows


_COMMANDS = {
    "distribution": cmd_distribution,
    "heatmap": cmd_heatmap,
    "entropy": cmd_entropy,
    "decoherence": cmd_decoherence,
    "compare_returns": cmd_compare_returns,
    "price_path": cmd_price_path,
}


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@contextlib.contextmanager
def _atomic_open(path: Path):
    """Write beside ``path`` under a temporary name; rename it into place."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_outputs(
    cfg: ExperimentConfig, header: list[str], rows: list[list], out_dir: Path
) -> list[Path]:
    """Write the result table and its metadata; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    metadata = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "realizations": cfg.realizations,
        "version": __version__,
        "config": cfg.serialize(),
    }
    written = []
    if cfg.out_format == "csv":
        csv_path = out_dir / f"{cfg.experiment}.csv"
        with _atomic_open(csv_path) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(v) for v in row])
        meta_path = out_dir / f"{cfg.experiment}.meta.json"
        with _atomic_open(meta_path) as fh:
            fh.write(json.dumps(metadata, sort_keys=True, indent=2) + "\n")
        written += [csv_path, meta_path]
    else:
        doc = {
            "metadata": metadata,
            "columns": header,
            "rows": [[_format_cell(v) for v in row] for row in rows],
        }
        json_path = out_dir / f"{cfg.experiment}.json"
        with _atomic_open(json_path) as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        written.append(json_path)
    return written


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Quantum-walk return-distribution experiments, batch CLI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        cmd = sub.add_parser(name.replace("_", "-"), help=f"run the {name} experiment")
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument(
            "--realizations", type=int, default=None, help="override realization count"
        )
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"config error: no such file: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    overrides = {"seed": args.seed, "realizations": args.realizations, "format": args.format}
    if isinstance(raw, dict):  # overrides pass the same checks as the config
        raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = parse_config(raw, experiment=experiment)
        header, rows = _COMMANDS[experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SelfCheckError) as exc:
        print(f"numerical self-check failed: {exc}", file=sys.stderr)
        return 3
    paths = write_outputs(cfg, header, rows, Path(args.out))
    for path in paths:
        print(path)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
