"""Working-memory bounds of the engines that set a CLI child's peak: one
broken-link summation block and compare-returns' stable column; and, for
random configs of all six commands, the charge the memory ceiling compares
with what a run holds.  The bounds, the config generator, its seed and its
allowance were fixed before the first run.  The output bytes are pinned by
the goldens, so these tests check only what is held at once; CI runs them
as a step of their own."""

import contextlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from qwalk import cli, decoherence
from qwalk.classical import StableParams, _stable_pdfs
from qwalk.walk import SYMMETRIC_IC

#: the traced bytes a command may hold beyond its charge, whatever its size:
#: the interpreter objects of a run (a lone small walk traces up to about
#: 16 KB of them)
_ALLOWANCE = 64 * 1024
#: the most site updates a generated config asks for, so the whole test runs
#: in a few seconds
_WORK = 3_000_000


def _traced_peak(call) -> int:
    """The traced peak of a second ``call()``: the first one's lasting
    module state and caches are not the engine's working memory."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_broken_link_block_at_n100_peaks_below_3_5_mb():
    # one summation block of the bundled decoherence sweep: 128 realizations
    # at four p and n = 100, walked as two batches of 64 walks, each with a
    # 1.3 MB count mask; one batch of 128 held 2.6 MB of mask and 1.6 MB of
    # step buffers, a traced 4.9 MB
    p_values = [0.01, 0.1, 0.3, 0.5]
    peak = _traced_peak(lambda: decoherence._sweep(
        SYMMETRIC_IC, [math.pi / 4], "broken_links", p_values, 100, 128, 42))
    assert peak < 3.5e6


def test_the_compare_returns_stable_column_peaks_below_2_5_mb():
    # the bundled axis: 34 bin edges and 33 centers on [-4, 4]; some of them
    # take several thousand panels, whose nodes are evaluated 1,024 panels
    # at a time (all at once the column traced 5.4 MB)
    edges = np.linspace(-4.0, 4.0, 34)
    centers = 0.5 * (edges[:-1] + edges[1:])
    params = StableParams(0.5, 0.5, 1.0 / math.sqrt(2.0), 0.0)
    assert _traced_peak(lambda: _stable_pdfs([*edges, *centers], params)) < 2.5e6


@pytest.mark.parametrize("bins, half", [(33, 40.0), (3, 100.0)])
def test_wide_stable_columns_peak_within_what_the_ceiling_charges(monkeypatch, bins, half):
    # the widest abscissa's direct quadrature asks for tens of thousands of
    # panels, whose per-panel rows the charge once left out: the whole run
    # was charged 2.24 and 1.98 MB against the column's traced 3.23 and 6.10 MB
    charged, check_size = [], cli._check_size
    monkeypatch.setattr(cli, "_check_size", lambda updates, *costs, **kw: charged.append(
        sum(nbytes for _, nbytes in costs)) or check_size(updates, *costs, **kw))
    cfg = cli.parse_config({"experiment": "compare_returns", "n": 24, "p": 0.3,
                            "realizations": 40,
                            "axis": {"start": -half, "stop": half, "bins": bins}})
    edges = np.linspace(-half, half, bins + 1)
    xs = [*edges, *(0.5 * (edges[:-1] + edges[1:]))]
    assert _traced_peak(lambda: _stable_pdfs(xs, cfg.spec[5])) <= charged[-1]


def _configs(seed=25, per_command=5):
    """Random valid configs of the six commands at n <= 300: both noise modes
    and p = 0 among the p, 1 to 300 realizations, heatmap grids under and
    over 64 cells, and compare-returns axes of 2 to 69 bins, the most that
    keep a site in every bin at n = 300.  Each config
    asks for at most ``_WORK`` site updates, so large n takes few walks."""
    rng = random.Random(seed)

    def log_int(lo, hi):
        return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))

    def probabilities(count):
        return [rng.choice([0.0, rng.uniform(0.001, 0.05), rng.uniform(0.05, 1.0)])
                for _ in range(count)]

    def realizations(walks_per_realization):
        return max(1, min(log_int(1, 300), _WORK // max(1, walks_per_realization)))

    def angle_range(count):
        start = rng.uniform(0.0, 0.7)
        return {"start": start, "stop": rng.uniform(start, 1.5), "count": count}

    for _ in range(per_command):
        runs = [{"label": f"r{i}", "n": rng.randint(0, 300),
                 "coin": {"xi": rng.uniform(0, 3), "theta": rng.uniform(0.1, 1.4),
                          "zeta": rng.uniform(0, 3)}} for i in range(rng.randint(1, 3))]
        yield {"experiment": "distribution", "runs": runs,
               "rescale": rng.choice(["none", "max_position", "peak_position"])}

        eta, theta = log_int(2, 12), log_int(2, 12)  # 4 to 144 cells
        n = min(rng.randint(1, 300), math.isqrt(_WORK // (eta * theta)))
        yield {"experiment": "heatmap", "n": max(1, n),
               "statistic": rng.choice(["skewness", "variance_over_n2"]),
               "grid": {"eta": angle_range(eta), "theta": angle_range(theta)}}

        n_values = [rng.randint(0, 300) for _ in range(rng.randint(1, 2))]
        p_tildes, thetas = probabilities(rng.randint(1, 3)), log_int(2, 16)
        walks = sum(n * n for n in n_values) * thetas * len(p_tildes)
        yield {"experiment": "entropy", "n_values": n_values, "p_tilde_values": p_tildes,
               "theta_grid": angle_range(thetas), "realizations": realizations(walks),
               "seed": rng.randrange(100)}

        n, p_values = log_int(1, 300), probabilities(rng.randint(1, 3))  # small n, many walks
        yield {"experiment": "decoherence", "n": n, "theta": rng.uniform(0.1, 1.4),
               "p_values": p_values, "realizations": realizations(n * n * len(p_values)),
               "seed": rng.randrange(100)}

        # an axis inside the light cone, g in [-sqrt(n), sqrt(n)], whose bins
        # are as wide as two sites, so that each holds one the unitary walk
        # occupies; |beta| < 1 keeps the stable density positive on the axis,
        # and alpha is the bundled 0.5, whose quadratures take the most panels
        n = rng.randint(5, 300)
        half = rng.uniform(1.0, min(4.0, math.sqrt(n)))
        yield {"experiment": "compare_returns", "n": n, "p": probabilities(1)[0],
               "realizations": realizations(n * n), "seed": rng.randrange(100),
               "axis": {"start": -half, "stop": half,
                        "bins": log_int(2, int(0.999 * half * math.sqrt(n)))},
               "stable": {"alpha": 0.5, "beta": rng.uniform(-0.9, 0.9)}}

        mode = rng.choice(["none", "broken_links", "random_phase"])
        p = {"none": {}, "broken_links": {"p": probabilities(1)[0]},
             "random_phase": {"p_tilde": probabilities(1)[0]}}[mode]
        horizons = log_int(1, 300)
        n = rng.randint(1, 300)
        if mode != "none":  # the calibration walks 200 realizations
            n = max(1, min(n, math.isqrt(_WORK // (200 + horizons))))
        yield {"experiment": "price_path", "horizons": horizons, "seed": rng.randrange(100),
               "model": {"sigma": 0.1, "steps_per_horizon": n, "dt_per_step": 0.01,
                         "coin": {"theta": rng.uniform(0.3, 1.3)},
                         "decoherence": {"mode": mode, **p}}}


def test_every_command_holds_at_most_what_the_ceiling_charges(monkeypatch):
    # each config is parsed once, recording the costs its parser hands to
    # _check_size, and run twice; the second run is traced
    charged, check_size = [], cli._check_size
    monkeypatch.setattr(cli, "_check_size", lambda updates, *costs, **kw: charged.append(
        sum(nbytes for _, nbytes in costs)) or check_size(updates, *costs, **kw))
    def run(cfg):
        # a run stopped by a self-check, such as an empty quantum bin of a
        # walk that many broken links keep near the origin, holds no more
        with contextlib.suppress(cli.SelfCheckError):
            cli._COMMANDS[cfg.experiment](cfg)

    over = []
    for doc in _configs():
        cfg = cli.parse_config(doc)
        peak = _traced_peak(lambda: run(cfg))
        if peak > charged[-1] + _ALLOWANCE:
            over.append((doc, peak, charged[-1]))
    assert len(charged) == 30 and not over
