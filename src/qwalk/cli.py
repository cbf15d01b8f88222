"""Batch command-line interface.

Each subcommand reads a JSON config, runs one experiment and writes a CSV
(with a JSON metadata sidecar echoing the effective config) or a single
JSON document into the output directory.  Runs are deterministic: a fixed
(config, seed) pair reproduces output files byte for byte.

    qwalk <command> --config FILE --out DIR [--seed N] [--realizations N]
                    [--format csv|json]

Commands: distribution, heatmap, entropy, decoherence, compare-returns,
price-path.  Exit codes: 0 success, 2 config, input, output or memory
error (a config whose run would pass ``MAX_WORK_BYTES`` is a config error,
and an admitted run that cannot allocate its memory a memory error), 3
numerical self-check failure.  A config that implies more than
``WARN_SITE_UPDATES`` site updates, counting compare-returns' stable
quadrature nodes, still runs, after one warning line on stderr.
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, decoherence, pricing
from .classical import (
    QuadratureError,
    StableParams,
    _stable_cost,
    _stable_pdfs,
    classical_rw_distribution,
)
from .coin import CoinAngles, make_su2_coin
from .decoherence import DecoherenceSpec, run_ensemble
from .pricing import DiffusionScaler, QwPriceModel, qw_price_path
from .stats import _cumulants, _skewness, moments, normalize_to_reference
from .walk import (
    DOWN_IC,
    SYMMETRIC_IC,
    UP_IC,
    InitialCoinState,
    _grid_cost,
    _grid_probs,
    evolve,
    position_distribution,
)

__all__ = ["ExperimentConfig", "ConfigError", "SelfCheckError", "main"]

#: ceiling on the working memory a config may ask for, as its parser estimates it
MAX_WORK_BYTES = 2 * 2**30
#: rough bytes one output row holds in memory (a short list of Python numbers)
_ROW_BYTES = 256
#: site updates (n^2 per walk or realization) past which a run is announced
#: on stderr: of the order of an hour of walking on one core
WARN_SITE_UPDATES = 1e11

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
class ExperimentConfig:
    """One fully specified experiment: id, seed, output format and the
    experiment-specific parameter document, echoed as given.  ``spec`` holds
    the typed values :func:`parse_config` read from that document, in the
    order its command unpacks them."""

    experiment: str
    seed: int
    realizations: int
    out_format: str
    params: dict
    spec: tuple = field(default=(), compare=False, repr=False)

    def serialize(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "realizations": self.realizations,
            "format": self.out_format,
            **self.params,
        }


def _object(doc, path: str, required=(), optional=(), what="an object") -> dict:
    """``doc``, checked to be an object of the ``required`` keys and any of
    the ``optional`` ones; ``what`` names what was expected of a non-object."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected {what}")
    for key in doc:
        if key not in required and key not in optional:
            raise ConfigError(_join(path, key), "unknown key")
    for key in required:
        if key not in doc:
            raise ConfigError(_join(path, key), "missing required key")
    return doc


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(v, path: str, lo=None, hi=None) -> float:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(path, f"expected a number, got {v!r}")
    # an integer literal past the float range counts as infinite
    v = float(v) if isinstance(v, float) or abs(v) < 2**1023 else math.inf
    if not math.isfinite(v):
        raise ConfigError(path, f"must be finite, got {v}")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}, got {v}")
    return v


def _integer(v, path: str, lo=None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(path, f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}, got {v}")
    _number(v, path)  # an integer past the float range counts as infinite too
    return v


def _string(v, path: str, choices=None) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(path, f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _boolean(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(path, "expected a boolean")
    return v


def _numbers(values, path: str, item=_number, **bounds) -> list:
    """A non-empty list, each item checked by ``item`` with the ``bounds``."""
    if not isinstance(values, list) or not values:
        raise ConfigError(path, "expected a non-empty list")
    return [item(v, f"{path}[{i}]", **bounds) for i, v in enumerate(values)]


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ``ValueError`` is a config error at ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_ic(doc, path: str) -> InitialCoinState:
    if isinstance(doc, str):
        if doc not in _IC_PRESETS:
            raise ConfigError(path, f"unknown preset {doc!r}; use {sorted(_IC_PRESETS)}")
        return _IC_PRESETS[doc]
    if isinstance(doc, list) and len(doc) == 2 and all(
            isinstance(c, list) and len(c) == 2 for c in doc):
        rows = (complex(*_numbers(row, f"{path}[{i}]")) for i, row in enumerate(doc))
        return _build(path, InitialCoinState, *rows)
    raise ConfigError(path, "expected a preset name or [[a_re,a_im],[b_re,b_im]]")


def _parse_coin(doc, path: str) -> CoinAngles:
    doc = _object(doc, path, ("theta",), ("xi", "zeta"), "an object with keys xi, theta, zeta")
    return CoinAngles(*(_number(doc.get(key, 0.0), f"{path}.{key}")
                        for key in ("xi", "theta", "zeta")))


def _parse_mode(doc, path: str, cls, modes: dict, parse_arg):
    """``cls.<mode>(*args)``: each mode names a constructor of ``cls``, and
    ``modes[mode]`` lists the keys of its arguments, each read by ``parse_arg``
    from its (value, path).  The keys allowed depend on the mode, which is
    therefore read before they are checked."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with key mode")
    mode = _string(doc.get("mode"), f"{path}.mode", choices=modes)
    _object(doc, path, ("mode", *modes[mode]))
    return _build(path, getattr(cls, mode), *(parse_arg(doc[key], f"{path}.{key}")
                                              for key in modes[mode]))


def _parse_range(doc, path: str, count_key: str = "count",
                 _angle: bool = False) -> tuple[float, float, int]:
    """(start, stop, count) of an inclusive grid; ``_angle`` ranges must also
    lie within [0, pi/2].  Every span and every sum of two grid points stays
    within 2 max(|start|, |stop|), so its finiteness keeps both from
    overflowing."""
    doc = _object(doc, path, ("start", "stop", count_key), what="an object {start, stop, count}")
    start, stop = (_number(doc[key], f"{path}.{key}") for key in ("start", "stop"))
    count = _integer(doc[count_key], f"{path}.{count_key}", lo=2)
    if stop <= start:
        raise ConfigError(f"{path}.stop", "must exceed start")
    if not math.isfinite(2.0 * max(abs(start), abs(stop))):
        raise ConfigError(path, "|start| and |stop| must not exceed 8.9e307, so that "
                          "the span and midpoints stay finite")
    if _angle and not 0.0 <= start < stop <= math.pi / 2 + 1e-12:
        raise ConfigError(path, "range must satisfy 0 <= start < stop <= pi/2")
    return start, stop, count


def _exclude_half_pi(theta_stop: float, path: str):
    """Theta grids stop short of pi/2, where the skewness ratio of the
    heatmap degenerates to 0/0."""
    if theta_stop >= math.pi / 2 - 1e-12:
        raise ConfigError(path, "theta = pi/2 is excluded")


def _rows_bytes(factors: dict) -> tuple[str, int]:
    """(path of the largest factor, bytes) of an output table whose row
    count is the product of ``factors``."""
    return max(factors, key=factors.get), math.prod(factors.values()) * _ROW_BYTES


def _check_size(site_updates: int, *costs: tuple[str, int], nodes: int = 0):
    """Reject a run whose (path, bytes) costs, which it holds at once, sum
    past the ceiling, naming the field of the largest; announce on stderr a
    run of more than ``WARN_SITE_UPDATES`` site updates and stable-quadrature
    Gauss ``nodes``."""
    path, nbytes = max(costs, key=lambda c: c[1])[0], sum(c[1] for c in costs)
    if nbytes > MAX_WORK_BYTES:
        raise ConfigError(path, f"the run would need about {nbytes >> 20} MiB of working "
                                f"memory, over the {MAX_WORK_BYTES >> 20} MiB ceiling")
    work = site_updates + nodes
    if work > WARN_SITE_UPDATES:
        what = " and stable-quadrature Gauss nodes (16 per panel)" if nodes else ""
        about = f"about {work:.2e}" if work < 1e308 else "over 1e+308"  # no float past it
        print(f"warning: the run implies {about} site updates (n^2 per walk or "
              f"realization){what}", file=sys.stderr)


_COMMON_KEYS = ("experiment", "seed", "realizations", "format")

#: experiment -> (required keys, optional keys, parser of the document and the
#: realization count)
_PARSERS = {}


def _parser(experiment: str, required: tuple, optional: tuple = ()):
    def register(parse):
        _PARSERS[experiment] = (required, optional, parse)
        return parse

    return register


def parse_config(doc: dict, experiment: str | None = None) -> ExperimentConfig:
    """Parse a raw config document into the values its command runs on;
    unknown keys are errors reported with dotted field paths."""
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be an object")
    exp = doc.get("experiment", experiment)
    if exp is None:
        raise ConfigError("experiment", "missing required key")
    if exp not in EXPERIMENTS:
        raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {exp!r}")
    if experiment is not None and exp != experiment:
        raise ConfigError("experiment",
                          f"config says {exp!r} but the {experiment!r} command was run")
    required, optional, parse = _PARSERS[exp]
    _object(doc, "", required, _COMMON_KEYS + optional)
    seed = _integer(doc.get("seed", 0), "seed", lo=0)
    realizations = _integer(doc.get("realizations", 1000), "realizations", lo=1)
    out_format = _string(doc.get("format", "csv"), "format", choices={"csv", "json"})
    params = {k: doc[k] for k in doc if k not in _COMMON_KEYS}
    return ExperimentConfig(exp, seed, realizations, out_format, params,
                            spec=parse(params, realizations))


@_parser("distribution", required=("runs",), optional=("rescale",))
def _parse_distribution(doc, _realizations):
    runs = doc["runs"]
    if not isinstance(runs, list) or not runs:
        raise ConfigError("runs", "expected a non-empty list of run objects")
    parsed = []
    for i, run in enumerate(runs):
        path = f"runs[{i}]"
        run = _object(run, path, ("label", "n"), ("coin", "initial_state"))
        parsed.append((
            _string(run["label"], f"{path}.label"),
            _integer(run["n"], f"{path}.n", lo=0),
            _parse_coin(run.get("coin", {"theta": math.pi / 4}), f"{path}.coin"),
            _parse_ic(run.get("initial_state", "symmetric"), f"{path}.initial_state"),
        ))
    rescale = _string(doc.get("rescale", "none"), "rescale",
                      choices={"none", "max_position", "peak_position"})
    widest = max(range(len(parsed)), key=lambda i: parsed[i][1])
    _check_size(sum(run[1] ** 2 for run in parsed),
                _rows_bytes({f"runs[{widest}].n": sum(2 * run[1] + 1 for run in parsed)}))
    return parsed, rescale


@_parser("heatmap", required=("statistic", "n", "grid"), optional=("initial_state",))
def _parse_heatmap(doc, _realizations):
    statistic = _string(doc["statistic"], "statistic", choices={"skewness", "variance_over_n2"})
    n = _integer(doc["n"], "n", lo=1)
    g = _object(doc["grid"], "grid", ("eta", "theta"))
    eta, theta = (_parse_range(g[key], f"grid.{key}", _angle=True) for key in ("eta", "theta"))
    _exclude_half_pi(theta[1], "grid.theta.stop")
    ic = _parse_ic(doc.get("initial_state", "symmetric"), "initial_state")
    updates, batch = _grid_cost(eta[2] * theta[2], n)
    _check_size(updates, ("n", batch),
                _rows_bytes({"grid.eta.count": eta[2], "grid.theta.count": theta[2]}))
    return statistic, n, eta, theta, ic


@_parser("entropy", required=("theta_grid", "n_values"),
         optional=("p_tilde_values", "initial_state", "include_classical", "include_uniform"))
def _parse_entropy(doc, realizations):
    theta_grid = _parse_range(doc["theta_grid"], "theta_grid")
    n_values = _numbers(doc["n_values"], "n_values", item=_integer, lo=0)
    p_tildes = _numbers(doc.get("p_tilde_values", [0.0]), "p_tilde_values", lo=0.0, hi=1.0)
    ic = _parse_ic(doc.get("initial_state", "symmetric"), "initial_state")
    flags = [_boolean(doc.get(f, True), f) for f in ("include_classical", "include_uniform")]
    _exclude_half_pi(theta_grid[1], "theta_grid.stop")
    updates, batch, series = zip(*(decoherence._sweep_cost(  # one sweep per n
        "random_phase", p_tildes, n, realizations, theta_grid[2]) for n in n_values))
    widest = max(range(len(n_values)), key=n_values.__getitem__)
    _check_size(sum(updates), (f"n_values[{widest}]", batch[widest]),
                ("theta_grid.count", series[widest]),
                _rows_bytes({"theta_grid.count": theta_grid[2],
                             "n_values": len(n_values) * (len(p_tildes) + 2)}))
    return theta_grid, n_values, p_tildes, ic, *flags


@_parser("decoherence", required=("n", "theta", "p_values"),
         optional=("initial_state", "normalize_to_classical"))
def _parse_decoherence(doc, realizations):
    n = _integer(doc["n"], "n", lo=1)
    theta = _number(doc["theta"], "theta")
    p_values = _numbers(doc["p_values"], "p_values", lo=0.0, hi=1.0)
    ic = _parse_ic(doc.get("initial_state", "symmetric"), "initial_state")
    to_classical = _boolean(doc.get("normalize_to_classical", False), "normalize_to_classical")
    updates, batch, series = decoherence._sweep_cost("broken_links", p_values, n, realizations)
    _check_size(updates, ("n", batch), ("p_values", series),
                _rows_bytes({"n": 2 * n + 1, "p_values": len(p_values) + 1}))
    return n, theta, p_values, ic, to_classical


@_parser("compare_returns", required=("n", "p", "axis"),
         optional=("theta", "initial_state", "stable", "gaussian"))
def _parse_compare_returns(doc, realizations):
    n = _integer(doc["n"], "n", lo=1)
    p = _number(doc["p"], "p", lo=0.0, hi=1.0)
    axis = _parse_range(doc["axis"], "axis", count_key="bins")
    theta = _number(doc.get("theta", math.pi / 4), "theta")
    ic = _parse_ic(doc.get("initial_state", "up"), "initial_state")
    s = _object(doc["stable"], "stable", ("alpha", "beta"), ("c", "mu")) if "stable" in doc else {}
    defaults = {"alpha": 0.5, "beta": 0.5, "c": 1.0 / math.sqrt(2.0), "mu": 0.0}
    stable = _build("stable", StableParams, **{k: _number(s.get(k, v), f"stable.{k}")
                                               for k, v in defaults.items()})
    g = _object(doc.get("gaussian", {}), "gaussian", optional=("mu", "sigma"))
    gaussian = (_number(g.get("mu", 0.0), "gaussian.mu"),
                _number(g.get("sigma", 1.0), "gaussian.sigma"))
    if gaussian[1] <= 0:
        raise ConfigError("gaussian.sigma", "must be positive")
    updates, batch, _ = decoherence._sweep_cost("broken_links", [p], n, realizations)
    reach = max(abs(axis[0] - stable.mu), abs(axis[1] - stable.mu))  # the farthest abscissa
    nodes, column = _stable_cost(2 * axis[2] + 1, reach, stable)
    _check_size(updates, ("n", batch), _rows_bytes({"axis.bins": axis[2]}),
                ("axis.bins", column), nodes=nodes)
    return n, p, axis, theta, ic, stable, gaussian


@_parser("price_path", required=("model", "horizons"))
def _parse_price_path(doc, _realizations):
    horizons = _integer(doc["horizons"], "horizons", lo=1)
    m = _object(doc["model"], "model", ("sigma", "steps_per_horizon", "dt_per_step", "coin"),
                ("mu", "s0", "initial_state", "decoherence", "scaler"))
    model = _build(
        "model", QwPriceModel,
        mu=_number(m.get("mu", 0.0), "model.mu"),
        sigma=_number(m["sigma"], "model.sigma", lo=0.0),
        ic=_parse_ic(m.get("initial_state", "symmetric"), "model.initial_state"),
        angles=_parse_coin(m["coin"], "model.coin"),
        decoherence=_parse_mode(
            m.get("decoherence", {"mode": "none"}), "model.decoherence", DecoherenceSpec,
            {"none": (), "broken_links": ("p",), "random_phase": ("p_tilde",)},
            lambda v, path: _number(v, path, lo=0.0, hi=1.0),
        ),
        steps_per_horizon=_integer(m["steps_per_horizon"], "model.steps_per_horizon", lo=1),
        dt_per_step=_number(m["dt_per_step"], "model.dt_per_step", lo=0.0),
        scaler=_parse_mode(
            m.get("scaler", {"mode": "unit"}), "model.scaler", DiffusionScaler,
            {"unit": (), "inverse_sqrt": (), "custom": ("t", "f")}, _numbers,
        ),
        s0=_number(m.get("s0", 1.0), "model.s0"),
    )
    if not math.isfinite(horizons * model.horizon):  # the time of the last row
        raise ConfigError("horizons", "the time horizons * model.horizon must be finite")
    updates, batch = pricing._path_cost(model, horizons)
    _check_size(updates, ("model.steps_per_horizon", batch),
                _rows_bytes({"horizons": horizons + 1}))
    return model, horizons


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_distribution(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Position distributions for each configured (coin, ic, n) run."""
    runs, rescale = cfg.spec
    header = ["label", "n", "j", "position", "prob"]
    rows = []
    for label, n, angles, ic in runs:
        dist = position_distribution(evolve(ic, make_su2_coin(angles), n))
        for j, prob in zip(dist.sites, dist.probs):
            if rescale == "max_position" and n > 0:
                pos = j / n
            elif rescale == "peak_position" and n > 0:
                pos = j / (n / math.sqrt(2.0))
            else:
                pos = float(j)
            rows.append([label, n, int(j), pos, float(prob)])
    return header, rows


def cmd_heatmap(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """(eta, theta, statistic) sweep of the symmetric-IC walk at fixed n; the
    statistics of a chunk of walks come from one exact pass over its occupied
    sites, equal to ``moments`` cell by cell."""
    statistic, n, eta_range, theta_range, ic = cfg.spec
    header = ["eta", "theta", statistic]
    cells = list(itertools.product(np.linspace(*eta_range), np.linspace(*theta_range)))
    sites = np.arange(-n, n + 1, 2, dtype=float)
    values = []
    for probs in _grid_probs(ic, cells, n):
        _, k2, k3 = _cumulants(sites, probs[:, ::2])
        if statistic == "skewness":
            values += map(_skewness, k2, k3)
        else:
            values += [c2 / n**2 for c2 in k2]
    rows = [[float(eta), float(theta), value] for (eta, theta), value in zip(cells, values)]
    return header, rows


def cmd_entropy(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Entropy-vs-theta curves per n and per p_tilde, with classical-walk
    and uniform reference rows."""
    theta_grid, n_values, p_tildes, ic, include_classical, include_uniform = cfg.spec
    thetas = np.linspace(*theta_grid)
    header = ["series", "n", "p_tilde", "theta", "entropy"]
    rows = []
    for n in n_values:
        sweep = decoherence._sweep(ic, thetas, "random_phase", p_tildes, n, cfg.realizations,
                                   cfg.seed)
        for p_tilde, results in zip(p_tildes, sweep):
            for theta, result in zip(thetas, results):
                rows.append(["quantum", n, float(p_tilde), float(theta),
                             moments(result.mean).entropy])
        if include_classical:
            h_classical = moments(classical_rw_distribution(n)).entropy
            for theta in thetas:
                rows.append(["classical", n, 0.0, float(theta), h_classical])
        if include_uniform:
            h_uniform = math.log(n + 1)  # uniform over the n+1 parity-allowed sites
            for theta in thetas:
                rows.append(["uniform", n, 0.0, float(theta), h_uniform])
    return header, rows


def cmd_decoherence(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Broken-link ensemble means with per-site standard errors, plus the
    classical random-walk reference."""
    n, theta, p_values, ic, to_classical = cfg.spec
    classical = classical_rw_distribution(n)
    header = ["series", "p", "j", "prob", "sem"]
    rows = []
    sweep = decoherence._sweep(ic, [theta], "broken_links", p_values, n, cfg.realizations,
                               cfg.seed)
    for p, (result,) in zip(p_values, sweep):
        dist, sem = result.mean, result.sem
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
    n, p, (start, stop, bins), theta, ic, stable, (g_mu, g_sigma) = cfg.spec

    edges = np.linspace(start, stop, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    def unit_mass(name, mass):
        total = mass.sum()
        if total <= 0:
            raise SelfCheckError(f"{name} column has no mass on the configured axis")
        mass = mass / total
        if np.any(mass <= 0.0):
            raise SelfCheckError(
                f"{name} column has empty bins on the configured axis; widen the "
                "bins or narrow the axis"
            )
        return mass

    # the cheap columns are checked before any stable density is computed
    cdf = [0.5 * (1.0 + math.erf((x - g_mu) / (g_sigma * math.sqrt(2.0)))) for x in edges]
    gaussian = unit_mass("gaussian", np.diff(cdf))

    ensemble = run_ensemble(ic, theta, DecoherenceSpec.broken_links(p), n, cfg.realizations,
                            cfg.seed)
    idx = np.searchsorted(edges, ensemble.mean.sites / math.sqrt(n), side="right") - 1
    inside = (idx >= 0) & (idx < bins)
    quantum = unit_mass("quantum", np.bincount(idx[inside], ensemble.mean.probs[inside], bins))

    # Simpson's rule per bin; neighbouring bins share their edge values, and
    # mirrored abscissae their quadrature
    f_edges, f_mid = np.split(np.array(_stable_pdfs([*edges, *centers], stable)), [bins + 1])
    stable_mass = (f_edges[:-1] + 4.0 * f_mid + f_edges[1:]) / 6.0 * (edges[1:] - edges[:-1])
    stable_col = unit_mass("stable", stable_mass)

    header = ["g", "gaussian", "stable", "quantum"]
    rows = [[float(c), float(g), float(f), float(q)]
            for c, g, f, q in zip(centers, gaussian, stable_col, quantum)]
    return header, rows


def cmd_price_path(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """One walk-driven price series at horizon boundaries."""
    model, horizons = cfg.spec
    try:
        prices = qw_price_path(model, horizons, cfg.seed)
    except (ValueError, OverflowError) as exc:  # a point-mass walk; exp(r) past float range
        raise SelfCheckError(f"price path: {exc}") from exc
    header = ["step", "time", "price"]
    rows = [[int(k), float(k * model.horizon), float(s)] for k, s in enumerate(prices)]
    return header, rows


_COMMANDS = {
    "distribution": cmd_distribution,
    "heatmap": cmd_heatmap,
    "entropy": cmd_entropy,
    "decoherence": cmd_decoherence,
    "compare_returns": cmd_compare_returns,
    "price_path": cmd_price_path,
}

EXPERIMENTS = tuple(_COMMANDS)


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------


def _format_cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


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
        cmd.add_argument("--realizations", type=int, default=None,
                         help="override realization count")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # missing, a directory, not UTF-8, not JSON, or nested too deeply to decode
        print(f"config error: cannot read {args.config} as UTF-8 JSON: {exc}", file=sys.stderr)
        return 2
    overrides = {"seed": args.seed, "realizations": args.realizations, "format": args.format}
    if isinstance(raw, dict):  # overrides pass the same checks as the config
        raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = parse_config(raw, experiment=experiment)
        # --out, or else its nearest existing ancestor, must be a directory; it
        # is checked before the command runs (os.path.exists never raises)
        out = os.path.abspath(args.out)
        nearest = next(path for path in (out, *Path(out).parents) if os.path.exists(path))
        if not os.path.isdir(nearest):
            print(f"output error: {nearest} is not a directory", file=sys.stderr)
            return 2
        header, rows = _COMMANDS[experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an admitted run the machine cannot hold
        print(f"memory error: the run could not allocate its working memory: {exc}",
              file=sys.stderr)
        return 2
    except (QuadratureError, SelfCheckError) as exc:
        print(f"numerical self-check failed: {exc}", file=sys.stderr)
        return 3
    try:
        paths = write_outputs(cfg, header, rows, Path(args.out))
    except OSError as exc:  # e.g. a directory without write permission
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
