"""Workload definitions: seeded CLI configs and the work they imply.

Every config is generated here from the workload seed; nothing is read
from the repository's bundled configs, so editing those cannot move the
benchmark.  Seed 0 reproduces the bundled experiment configs (with
``entropy_random_phase`` cut to 250 realizations, so that one pass of
``ensemble_pipeline`` fits several times into a run); any other seed jitters
grid ends, probabilities and RNG seeds while keeping every size that sets
the cost (grid counts, n, realizations, horizons, quadrature points) fixed.

All work counts (site-updates, realization-steps, stable-density points,
output rows) are derived from the generated config alone, never from
program output, so a change to the program cannot move a throughput
denominator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
HALF_PI_CUT = 1.5607963267948965  # pi/2 - 0.01, the bundled grid end
HADAMARD = math.pi / 4

WHY = {
    "grid_sweep": "64x64 (eta, theta) heatmap at n=100: 409,600 small unitary steps, so per-call overhead in the walk kernel dominates",
    "ensemble_pipeline": "random-phase entropy sweep, broken-links ensembles, compare_returns and price_path: ensemble engines, RNG streams, stable_pdf, pricing",
}
WORKLOADS = tuple(WHY)


@dataclass
class Invocation:
    """One CLI call: ``python -m qwalk.cli <command> --config <file>``."""

    name: str
    command: str
    config: dict


@dataclass
class Work:
    """Work counts derived from the configs of one pass."""

    site_updates: int = 0  # n^2 per walk or realization, all engines
    unitary_site_updates: int = 0  # n^2 per unitary evolve
    ensemble_realization_steps: int = 0  # realizations x n per run_ensemble
    horizons: int = 0
    stable_pdf_points: int = 0
    rows: dict = field(default_factory=dict)  # invocation name -> CSV rows


def _jitter(rng: random.Random | None, value: float, lo: float, hi: float) -> float:
    return value if rng is None else rng.uniform(lo, hi)


def _seed(rng: random.Random | None, value: int) -> int:
    return value if rng is None else rng.randrange(2**31)


def _range(rng, start, stop, count):
    return {
        "start": _jitter(rng, start, 0.005, 0.02),
        "stop": _jitter(rng, stop, HALF_PI_CUT - 0.01, HALF_PI_CUT),
        "count": count,
    }


def build(workload: str, seed: int) -> list[Invocation]:
    """The CLI invocations of one pass over ``workload`` for ``seed``."""
    rng = None if seed == DEFAULT_SEED else random.Random(f"{workload}:{seed}")
    if workload == "grid_sweep":
        return [Invocation("heatmap_skewness", "heatmap", {
            "experiment": "heatmap",
            "statistic": "skewness",
            "n": 100,
            "grid": {
                "eta": _range(rng, 0.01, HALF_PI_CUT, 64),
                "theta": _range(rng, 0.01, HALF_PI_CUT, 64),
            },
        })]
    if workload == "ensemble_pipeline":
        return [
            Invocation("entropy_random_phase", "entropy", {
                "experiment": "entropy",
                "seed": _seed(rng, 42),
                "realizations": 250,
                "theta_grid": _range(rng, 0.01, HALF_PI_CUT, 64),
                "n_values": [50],
                "p_tilde_values": [
                    0.0,
                    _jitter(rng, 0.01, 0.005, 0.02),
                    _jitter(rng, 0.1, 0.05, 0.15),
                    1.0,
                ],
            }),
            Invocation("decoherence_broken_links", "decoherence", {
                "experiment": "decoherence",
                "seed": _seed(rng, 42),
                "realizations": 1000,
                "n": 100,
                "theta": HADAMARD,
                "p_values": [
                    _jitter(rng, 0.01, 0.005, 0.02),
                    _jitter(rng, 0.1, 0.05, 0.15),
                    _jitter(rng, 0.3, 0.2, 0.4),
                    _jitter(rng, 0.5, 0.4, 0.6),
                ],
                "initial_state": "symmetric",
            }),
            Invocation("compare_returns", "compare-returns", {
                "experiment": "compare_returns",
                "seed": _seed(rng, 42),
                "realizations": 1000,
                "n": 100,
                "theta": HADAMARD,
                "p": _jitter(rng, 0.3, 0.25, 0.35),
                "initial_state": "up",
                "axis": {"start": -4.0, "stop": 4.0, "bins": 33},
                # alpha and the axis set which quadrature regime runs, so
                # they stay fixed across seeds
                "stable": {"alpha": 0.5, "beta": 0.5, "c": 0.7071067811865475, "mu": 0.0},
                "gaussian": {"mu": 0.0, "sigma": 1.0},
            }),
            Invocation("price_path", "price-path", {
                "experiment": "price_path",
                "seed": _seed(rng, 7),
                "model": {
                    "mu": 0.05,
                    "sigma": 0.2,
                    "s0": 100.0,
                    "steps_per_horizon": 100,
                    "dt_per_step": 0.01,
                    "coin": {"theta": HADAMARD},
                    "initial_state": "symmetric",
                    "decoherence": {"mode": "broken_links", "p": _jitter(rng, 0.1, 0.05, 0.15)},
                    "scaler": {"mode": "inverse_sqrt"},
                },
                "horizons": 250,
            }),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# realizations price_path spends calibrating its lattice scale
_PRICE_CALIBRATION_REALIZATIONS = 200


def work_of(invocations: list[Invocation]) -> Work:
    """Work counts implied by the configs of one pass.

    Written for the configs ``build`` makes: every decoherence probability
    is positive and ``entropy`` keeps its classical and uniform series.
    """
    w = Work()

    def unitary(n, walks=1):
        w.site_updates += walks * n * n
        w.unitary_site_updates += walks * n * n

    def ensemble(n, realizations, runs=1):
        w.site_updates += runs * realizations * n * n
        w.ensemble_realization_steps += runs * realizations * n

    for inv in invocations:
        c = inv.config
        exp = c["experiment"]
        if exp == "heatmap":
            cells = c["grid"]["eta"]["count"] * c["grid"]["theta"]["count"]
            unitary(c["n"], walks=cells)
            rows = cells
        elif exp == "entropy":
            count = c["theta_grid"]["count"]
            p_tildes = c["p_tilde_values"]
            for n in c["n_values"]:
                for pt in p_tildes:
                    if pt == 0.0:  # the unitary series
                        unitary(n, walks=count)
                    else:
                        ensemble(n, c["realizations"], runs=count)
            rows = len(c["n_values"]) * (len(p_tildes) + 2) * count
        elif exp == "decoherence":
            n = c["n"]
            ensemble(n, c["realizations"], runs=len(c["p_values"]))
            rows = (len(c["p_values"]) + 1) * (2 * n + 1)
        elif exp == "compare_returns":
            ensemble(c["n"], c["realizations"])
            w.stable_pdf_points += 3 * c["axis"]["bins"]
            rows = c["axis"]["bins"]
        elif exp == "price_path":
            n = c["model"]["steps_per_horizon"]
            ensemble(n, _PRICE_CALIBRATION_REALIZATIONS)
            w.site_updates += c["horizons"] * n * n  # one realization per horizon
            w.horizons += c["horizons"]
            rows = c["horizons"] + 1
        else:
            raise ValueError(f"no work model for experiment {exp!r}")
        w.rows[inv.name] = rows
    return w
