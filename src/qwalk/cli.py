"""Batch command-line interface.

Each subcommand reads a JSON config, runs one experiment and writes a CSV
(with a JSON metadata sidecar echoing the effective config) or a single
JSON document into the output directory.  Runs are deterministic: a fixed
(config, seed) pair reproduces output files byte for byte.

    qwalk <command> --config FILE --out DIR [--seed N] [--realizations N]
                    [--format csv|json]

Commands: distribution, heatmap, entropy, decoherence, compare-returns,
price-path.  Exit codes: 0 success, 2 config, input or output error (a
config whose run would pass ``MAX_WORK_BYTES`` is a config error), 3
numerical self-check failure.  A config that implies more than
``WARN_SITE_UPDATES`` site updates still runs, after one warning line on
stderr.
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
    classical_rw_distribution,
    stable_pdf,
)
from .coin import CoinAngles, make_su2_coin
from .decoherence import DecoherenceSpec, run_ensemble
from .pricing import DiffusionScaler, QwPriceModel, qw_price_path
from .stats import _cumulants, moments, normalize_to_reference
from .walk import (
    DOWN_IC,
    SYMMETRIC_IC,
    UP_IC,
    _GRID_CHUNK,
    InitialCoinState,
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


def _section(doc: dict, key: str, required: tuple = (), optional: tuple = ()) -> dict:
    """The object at ``key`` with its keys checked; {} when ``key`` is absent."""
    if key not in doc:
        return {}
    if not isinstance(doc[key], dict):
        raise ConfigError(key, "expected an object")
    _require_keys(doc[key], key, required, optional)
    return doc[key]


def _number(doc: dict, key: str, path: str, lo=None, hi=None, default=None) -> float:
    if default is not None and key not in doc:
        return default
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


def _integer(doc: dict, key: str, path: str, lo=None, default=None) -> int:
    if default is not None and key not in doc:
        return default
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(_join(path, key), f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(_join(path, key), f"must be >= {lo}, got {v}")
    return v


def _string(doc: dict, key: str, path: str, choices=None, default=None) -> str:
    if default is not None and key not in doc:
        return default
    v = doc.get(key)
    if not isinstance(v, str):
        raise ConfigError(_join(path, key), f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        raise ConfigError(_join(path, key), f"must be one of {sorted(choices)}, got {v!r}")
    return v


def _boolean(doc: dict, key: str, default: bool) -> bool:
    v = doc.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(key, "expected a boolean")
    return v


def _parse_number_list(doc: dict, key: str, path: str, integer=False, lo=None, hi=None,
                       default=None) -> list:
    if default is not None and key not in doc:
        return default
    values = doc.get(key)
    if not isinstance(values, list) or not values:
        raise ConfigError(_join(path, key), "expected a non-empty list")
    items = [(f"{_join(path, key)}[{i}]", v) for i, v in enumerate(values)]
    if integer:
        return [_integer({item: v}, item, "", lo=lo) for item, v in items]
    return [_number({item: v}, item, "", lo=lo, hi=hi) for item, v in items]


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
            complex(*_parse_number_list({f"{path}[{i}]": row}, f"{path}[{i}]", ""))
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
        xi=_number(doc, "xi", path, default=0.0),
        theta=_number(doc, "theta", path),
        zeta=_number(doc, "zeta", path, default=0.0),
    )


def _parse_mode(doc, path: str, cls, modes: dict, parse_arg):
    """``cls.<mode>(*args)``: each mode names a constructor of ``cls``, and
    ``modes[mode]`` lists the keys of its arguments, each read by ``parse_arg``."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object with key mode")
    mode = _string(doc, "mode", path, choices=modes)
    _require_keys(doc, path, required=("mode", *modes[mode]))
    args = [parse_arg(doc, key, path) for key in modes[mode]]
    try:
        return getattr(cls, mode)(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_range(doc, path: str, count_key: str = "count",
                 _angle: bool = False) -> tuple[float, float, int]:
    """(start, stop, count) of an inclusive grid; ``_angle`` ranges must also
    lie within [0, pi/2].  Every span and every sum of two grid points stays
    within 2 max(|start|, |stop|), so its finiteness keeps both from
    overflowing."""
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected an object {start, stop, count}")
    _require_keys(doc, path, required=("start", "stop", count_key))
    start = _number(doc, "start", path)
    stop = _number(doc, "stop", path)
    count = _integer(doc, count_key, path, lo=2)
    if stop <= start:
        raise ConfigError(_join(path, "stop"), "must exceed start")
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


def _walk_bytes(n: int, batch: int, broken: bool = False) -> int:
    """An upper bound on the bytes a batch of ``n``-step walks holds at once:
    eight (2n+1, batch) complex arrays, plus for broken-link walks the
    (batch, n, 2n+2) link masks and one step's swap scratch of 41 bytes per
    link (a flag copy, an int64 index and two complex values).  ``propagate``
    steps four buffers of at most 2n+1 rows (n+1 on the occupied sublattice)
    with up to four coin tiles of at most 2n-1 rows (n on the sublattice); it
    frees two buffers and the tiles before it allocates its two (batch, 2n+1)
    results.  A random-phase chunk has per-step coins instead of tiles: 128n
    bytes a walk with their contiguous copy, beside 8n bytes of phases."""
    return batch * (128 * (2 * n + 1) + ((n + 41) * (2 * n + 2) if broken else 0))


def _rows_bytes(factors: dict) -> tuple[str, int]:
    """(path of the largest factor, bytes) of an output table whose row
    count is the product of ``factors``."""
    return max(factors, key=factors.get), math.prod(factors.values()) * _ROW_BYTES


def _check_size(site_updates: int, *costs: tuple[str, int]):
    """Reject a run whose largest (path, bytes) cost passes the ceiling,
    naming the field that drives it; announce on stderr a run of more than
    ``WARN_SITE_UPDATES`` site updates."""
    path, nbytes = max(costs, key=lambda cost: cost[1])
    if nbytes > MAX_WORK_BYTES:
        raise ConfigError(path, f"the run would need about {nbytes >> 20} MiB of working "
                                f"memory, over the {MAX_WORK_BYTES >> 20} MiB ceiling")
    if site_updates > WARN_SITE_UPDATES:
        print(f"warning: the run implies about {site_updates:.2e} site updates "
              "(n^2 per walk or realization)", file=sys.stderr)


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
        raise ConfigError(
            "experiment", f"config says {exp!r} but the {experiment!r} command was run"
        )
    required, optional, parse = _PARSERS[exp]
    _require_keys(doc, "", required, _COMMON_KEYS + optional)
    seed = _integer(doc, "seed", "", lo=0, default=0)
    realizations = _integer(doc, "realizations", "", lo=1, default=1000)
    out_format = _string(doc, "format", "", choices={"csv", "json"}, default="csv")
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
        if not isinstance(run, dict):
            raise ConfigError(path, "expected an object")
        _require_keys(run, path, required=("label", "n"), optional=("coin", "initial_state"))
        parsed.append((
            _string(run, "label", path),
            _integer(run, "n", path, lo=0),
            _parse_coin(run.get("coin", {"theta": math.pi / 4}), _join(path, "coin")),
            _parse_ic(run.get("initial_state", "symmetric"), _join(path, "initial_state")),
        ))
    rescale = _string(doc, "rescale", "", choices={"none", "max_position", "peak_position"},
                      default="none")
    widest = max(range(len(parsed)), key=lambda i: parsed[i][1])
    _check_size(sum(run[1] ** 2 for run in parsed),
                _rows_bytes({f"runs[{widest}].n": sum(2 * run[1] + 1 for run in parsed)}))
    return parsed, rescale


@_parser("heatmap", required=("statistic", "n", "grid"), optional=("initial_state",))
def _parse_heatmap(doc, _realizations):
    statistic = _string(doc, "statistic", "", choices={"skewness", "variance_over_n2"})
    n = _integer(doc, "n", "", lo=1)
    g = _section(doc, "grid", required=("eta", "theta"))
    eta, theta = (_parse_range(g[key], f"grid.{key}", _angle=True) for key in ("eta", "theta"))
    _exclude_half_pi(theta[1], "grid.theta.stop")
    ic = _parse_ic(doc.get("initial_state", "symmetric"), "initial_state")
    _check_size(eta[2] * theta[2] * n**2, ("n", _walk_bytes(n, _GRID_CHUNK)),
                _rows_bytes({"grid.eta.count": eta[2], "grid.theta.count": theta[2]}))
    return statistic, n, eta, theta, ic


@_parser("entropy", required=("theta_grid", "n_values"),
         optional=("p_tilde_values", "initial_state", "include_classical", "include_uniform"))
def _parse_entropy(doc, realizations):
    theta_grid = _parse_range(doc["theta_grid"], "theta_grid")
    n_values = _parse_number_list(doc, "n_values", "", integer=True, lo=0)
    p_tildes = _parse_number_list(doc, "p_tilde_values", "", lo=0.0, hi=1.0, default=[0.0])
    ic = _parse_ic(doc.get("initial_state", "symmetric"), "initial_state")
    flags = [_boolean(doc, flag, True) for flag in ("include_classical", "include_uniform")]
    _exclude_half_pi(theta_grid[1], "theta_grid.stop")
    widest = max(range(len(n_values)), key=n_values.__getitem__)
    walks = theta_grid[2] * sum(realizations if p else 1 for p in p_tildes)
    # a sweep ends with up to six (2n+1) float rows per theta
    sweep = 48 * theta_grid[2] * (2 * n_values[widest] + 1)
    _check_size(
        walks * sum(n**2 for n in n_values),
        (f"n_values[{widest}]", _walk_bytes(n_values[widest], decoherence._CHUNK)),
        ("theta_grid.count", sweep),
        _rows_bytes({"theta_grid.count": theta_grid[2],
                     "n_values": len(n_values) * (len(p_tildes) + 2)}),
    )
    return theta_grid, n_values, p_tildes, ic, *flags


@_parser("decoherence", required=("n", "theta", "p_values"),
         optional=("initial_state", "normalize_to_classical"))
def _parse_decoherence(doc, realizations):
    n = _integer(doc, "n", "", lo=1)
    theta = _number(doc, "theta", "")
    p_values = _parse_number_list(doc, "p_values", "", lo=0.0, hi=1.0)
    ic = _parse_ic(doc.get("initial_state", "symmetric"), "initial_state")
    to_classical = _boolean(doc, "normalize_to_classical", False)
    _check_size(sum(realizations if p else 1 for p in p_values) * n**2,
                ("n", _walk_bytes(n, decoherence._CHUNK, broken=True)),
                _rows_bytes({"n": 2 * n + 1, "p_values": len(p_values) + 1}))
    return n, theta, p_values, ic, to_classical


@_parser("compare_returns", required=("n", "p", "axis"),
         optional=("theta", "initial_state", "stable", "gaussian"))
def _parse_compare_returns(doc, realizations):
    n = _integer(doc, "n", "", lo=1)
    p = _number(doc, "p", "", lo=0.0, hi=1.0)
    axis = _parse_range(doc["axis"], "axis", count_key="bins")
    theta = _number(doc, "theta", "", default=math.pi / 4)
    ic = _parse_ic(doc.get("initial_state", "up"), "initial_state")
    s = _section(doc, "stable", required=("alpha", "beta"), optional=("c", "mu"))
    defaults = {"alpha": 0.5, "beta": 0.5, "c": 1.0 / math.sqrt(2.0), "mu": 0.0}
    kwargs = {k: _number(s, k, "stable", default=v) for k, v in defaults.items()}
    try:
        stable = StableParams(**kwargs)
    except ValueError as exc:
        raise ConfigError("stable", str(exc)) from exc
    g = _section(doc, "gaussian", optional=("mu", "sigma"))
    gaussian = (_number(g, "mu", "gaussian", default=0.0),
                _number(g, "sigma", "gaussian", default=1.0))
    if gaussian[1] <= 0:
        raise ConfigError("gaussian.sigma", "must be positive")
    _check_size((realizations if p else 1) * n**2,
                ("n", _walk_bytes(n, decoherence._CHUNK, broken=True)),
                _rows_bytes({"axis.bins": axis[2]}))
    return n, p, axis, theta, ic, stable, gaussian


@_parser("price_path", required=("model", "horizons"))
def _parse_price_path(doc, _realizations):
    horizons = _integer(doc, "horizons", "", lo=1)
    m = _section(
        doc,
        "model",
        required=("sigma", "steps_per_horizon", "dt_per_step", "coin"),
        optional=("mu", "s0", "initial_state", "decoherence", "scaler"),
    )
    kwargs = dict(
        mu=_number(m, "mu", "model", default=0.0),
        sigma=_number(m, "sigma", "model", lo=0.0),
        ic=_parse_ic(m.get("initial_state", "symmetric"), "model.initial_state"),
        angles=_parse_coin(m["coin"], "model.coin"),
        decoherence=_parse_mode(
            m.get("decoherence", {"mode": "none"}), "model.decoherence", DecoherenceSpec,
            {"none": (), "broken_links": ("p",), "random_phase": ("p_tilde",)},
            lambda d, key, path: _number(d, key, path, lo=0.0, hi=1.0),
        ),
        steps_per_horizon=_integer(m, "steps_per_horizon", "model", lo=1),
        dt_per_step=_number(m, "dt_per_step", "model", lo=0.0),
        scaler=_parse_mode(
            m.get("scaler", {"mode": "unit"}), "model.scaler", DiffusionScaler,
            {"unit": (), "inverse_sqrt": (), "custom": ("t", "f")}, _parse_number_list,
        ),
        s0=_number(m, "s0", "model", default=1.0),
    )
    try:
        model = QwPriceModel(**kwargs)
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc
    if not math.isfinite(horizons * model.horizon):  # the time of the last row
        raise ConfigError("horizons", "the time horizons * model.horizon must be finite")
    mode = model.decoherence.mode
    batch = 1 if mode == "none" else decoherence._CHUNK
    # a unitary walk serves every horizon; a stochastic one is walked per
    # horizon and per calibration realization
    walks = 1 if mode == "none" else horizons + pricing._CALIBRATION_REALIZATIONS
    _check_size(
        walks * model.steps_per_horizon**2,
        ("model.steps_per_horizon",
         _walk_bytes(model.steps_per_horizon, batch, broken=mode == "broken_links")),
        _rows_bytes({"horizons": horizons + 1}),
    )
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
            values += [c3 / d if (d := c2**1.5) > 0.0 else math.nan for c2, c3 in zip(k2, k3)]
        else:
            values += [c2 / n**2 for c2 in k2]
    rows = [[float(eta), float(theta), value] for (eta, theta), value in zip(cells, values)]
    return header, rows


def _uniform_entropy(n: int) -> float:
    # uniform over the n+1 parity-allowed sites of an origin-started walk
    return math.log(n + 1) if n > 0 else 0.0


def cmd_entropy(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """Entropy-vs-theta curves per n and per p_tilde, with classical-walk
    and uniform reference rows."""
    theta_grid, n_values, p_tildes, ic, include_classical, include_uniform = cfg.spec
    thetas = np.linspace(*theta_grid)
    header = ["series", "n", "p_tilde", "theta", "entropy"]
    rows = []
    for n in n_values:
        for p_tilde in p_tildes:
            results = decoherence._sweep(ic, thetas, DecoherenceSpec.random_phase(p_tilde),
                                         n, cfg.realizations, cfg.seed)
            for theta, result in zip(thetas, results):
                rows.append(["quantum", n, float(p_tilde), float(theta),
                             moments(result.mean).entropy])
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
    n, theta, p_values, ic, to_classical = cfg.spec
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

    ensemble = run_ensemble(
        ic, theta, DecoherenceSpec.broken_links(p), n, cfg.realizations, cfg.seed
    )
    idx = np.searchsorted(edges, ensemble.mean.sites / math.sqrt(n), side="right") - 1
    inside = (idx >= 0) & (idx < bins)
    quantum = unit_mass("quantum", np.bincount(idx[inside], ensemble.mean.probs[inside], bins))

    # Simpson's rule per bin; neighbouring bins share their edge values
    f_edges, f_mid = (np.array([stable_pdf(x, stable) for x in xs]) for xs in (edges, centers))
    stable_mass = (f_edges[:-1] + 4.0 * f_mid + f_edges[1:]) / 6.0 * (edges[1:] - edges[:-1])
    stable_col = unit_mass("stable", stable_mass)

    header = ["g", "gaussian", "stable", "quantum"]
    rows = [
        [float(c), float(g), float(f), float(q)]
        for c, g, f, q in zip(centers, gaussian, stable_col, quantum)
    ]
    return header, rows


def cmd_price_path(cfg: ExperimentConfig) -> tuple[list[str], list[list]]:
    """One walk-driven price series at horizon boundaries."""
    model, horizons = cfg.spec
    try:
        prices = qw_price_path(model, horizons, cfg.seed)
    except (ValueError, OverflowError) as exc:  # a point-mass walk; exp(r) past float range
        raise SelfCheckError(f"price path: {exc}") from exc
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
