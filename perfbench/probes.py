"""Fixed-size layer probes, covering paths the CLI workloads cannot reach.

    PYTHONPATH=src python perfbench/probes.py OUT_JSON WORK_DIR

Each probe calls one public function on a fixed input and reports a rate
or a per-call time, the median of ``ROUNDS`` timed rounds.  The sizes
never depend on the workload or its seed.  A probe whose API is gone or
fails reports 0 and its error, so the other probes still run.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

ROUNDS = 5


def _median_time(fn, calls: int) -> float:
    """Median over rounds of the wall time of ``calls`` calls to ``fn``."""
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _walk(n: int, calls: int) -> float:
    from qwalk import SYMMETRIC_IC, evolve, make_theta_coin

    coin = make_theta_coin(math.pi / 4)
    return calls * n * n / _median_time(lambda: evolve(SYMMETRIC_IC, coin, n), calls)


def _ensemble(mode: str, p: float, realizations: int) -> float:
    from qwalk import SYMMETRIC_IC, DecoherenceSpec, run_ensemble

    spec = DecoherenceSpec(mode, p)
    n = 50
    t = _median_time(
        lambda: run_ensemble(SYMMETRIC_IC, math.pi / 4, spec, n, realizations, 1), 1
    )
    return realizations * n / t


def _rng_us() -> float:
    from qwalk import realization_rng

    return 1e6 * _median_time(lambda: realization_rng(5, 7), 500) / 500


def _moments_us() -> float:
    from qwalk import SYMMETRIC_IC, evolve, make_theta_coin, moments, position_distribution

    dist = position_distribution(evolve(SYMMETRIC_IC, make_theta_coin(math.pi / 4), 100))
    return 1e6 * _median_time(lambda: moments(dist), 200) / 200


def _stable_ms(x: float) -> float:
    from qwalk import StableParams, stable_pdf

    # the bundled compare_returns law; its direct-quadrature regime ends
    # near |x| = 131, beyond the reach of the CLI's return axis
    params = StableParams(alpha=0.5, beta=0.5, c=1.0 / math.sqrt(2.0), mu=0.0)
    return 1e3 * _median_time(lambda: stable_pdf(x, params), 1)


def _write_mb_per_s(work_dir: Path) -> float:
    from qwalk.cli import ExperimentConfig, write_outputs

    rows = [[0.001 * k, 0.002 * k, math.sin(k)] for k in range(20000)]
    cfg = ExperimentConfig("heatmap", 0, 1, "csv", {})
    paths = []

    def write():
        paths[:] = write_outputs(cfg, ["eta", "theta", "skewness"], rows, work_dir)

    t = _median_time(write, 1)
    return sum(p.stat().st_size for p in paths) / 1e6 / t


def probes(work_dir: Path) -> tuple[dict, dict]:
    """Probe values by metric name, and the errors of probes that failed."""
    plan = {
        "probe.walk_n100_site_updates_per_s": lambda: _walk(100, 20),
        "probe.walk_n1000_site_updates_per_s": lambda: _walk(1000, 1),
        "probe.ensemble_broken_realization_steps_per_s": lambda: _ensemble("broken_links", 0.3, 128),
        "probe.ensemble_phase_realization_steps_per_s": lambda: _ensemble("random_phase", 0.1, 256),
        "probe.rng_stream_us": _rng_us,
        "probe.moments_us": _moments_us,
        "probe.stable_pdf_direct_ms": lambda: _stable_ms(4.0),
        "probe.stable_pdf_accelerated_ms": lambda: _stable_ms(200.0),
        "probe.write_mb_per_s": lambda: _write_mb_per_s(work_dir),
    }
    values, errors = {}, {}
    for name, probe in plan.items():
        try:
            values[name] = probe()
        except Exception:  # one broken probe must not hide the others
            values[name] = 0.0
            errors[name] = traceback.format_exc(limit=3)
    return values, errors


def main() -> int:
    out_path, work_dir = Path(sys.argv[1]), Path(sys.argv[2])
    values, errors = probes(work_dir)
    out_path.write_text(json.dumps({"values": values, "errors": errors}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
