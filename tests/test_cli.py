import contextlib
import copy
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import classical, cli, decoherence, walk
from qwalk.cli import (
    ConfigError,
    ExperimentConfig,
    cmd_compare_returns,
    cmd_decoherence,
    cmd_distribution,
    cmd_entropy,
    cmd_heatmap,
    cmd_price_path,
    parse_config,
    run,
    write_outputs,
)
from qwalk.classical import _stable_pdfs
from qwalk.coin import _coins, make_theta_coin
from qwalk.decoherence import realization_rng
from qwalk.stats import moments
from qwalk.walk import (
    SYMMETRIC_IC,
    InitialCoinState,
    PositionDistribution,
    _grid_probs,
    evolve,
    position_distribution,
    propagate,
)


def make_cfg(doc, experiment=None):
    return parse_config(doc, experiment=experiment)


DIST_DOC = {
    "experiment": "distribution",
    "seed": 3,
    "runs": [
        {"label": "hadamard-n10", "n": 10},
        {"label": "up-n10", "n": 10, "initial_state": "up"},
        {"label": "point", "n": 0, "initial_state": "up"},
    ],
}

HEATMAP_DOC = {
    "experiment": "heatmap",
    "statistic": "variance_over_n2",
    "n": 40,
    "grid": {
        "eta": {"start": 0.0, "stop": 0.02, "count": 2},
        "theta": {"start": math.pi / 4, "stop": math.pi / 4 + 0.01, "count": 2},
    },
}

ENTROPY_DOC = {
    "experiment": "entropy",
    "theta_grid": {"start": 0.0, "stop": 1.2, "count": 4},
    "n_values": [10],
    "realizations": 20,
}

DECOHERENCE_DOC = {
    "experiment": "decoherence",
    "n": 16,
    "theta": math.pi / 4,
    "p_values": [0.0, 0.4],
    "realizations": 25,
    "seed": 5,
}

COMPARE_DOC = {
    "experiment": "compare_returns",
    "n": 24,
    "p": 0.3,
    "realizations": 40,
    "axis": {"start": -3.0, "stop": 3.0, "bins": 13},
    "seed": 1,
}

PRICE_DOC = {
    "experiment": "price_path",
    "seed": 2,
    "model": {
        "mu": 0.02,
        "sigma": 0.1,
        "s0": 10.0,
        "steps_per_horizon": 12,
        "dt_per_step": 0.25,
        "coin": {"theta": math.pi / 4},
    },
    "horizons": 8,
}


# ------------------------------------------------------------ config layer


@pytest.mark.parametrize(
    "doc", [DIST_DOC, HEATMAP_DOC, ENTROPY_DOC, DECOHERENCE_DOC, COMPARE_DOC, PRICE_DOC]
)
def test_config_round_trip(doc):
    cfg = make_cfg(doc)
    assert parse_config(cfg.serialize()) == cfg


def test_unknown_keys_reported_with_paths():
    doc = dict(DIST_DOC, bogus=1)
    with pytest.raises(ConfigError) as err:
        make_cfg(doc)
    assert err.value.path == "bogus"

    doc = {
        "experiment": "distribution",
        "runs": [{"label": "x", "n": 1, "typo_key": 2}],
    }
    with pytest.raises(ConfigError) as err:
        make_cfg(doc)
    assert err.value.path == "runs[0].typo_key"

    doc = dict(HEATMAP_DOC)
    doc["grid"] = {
        "eta": {"start": 0.0, "stop": 0.1, "count": 2, "step": 0.1},
        "theta": {"start": 0.1, "stop": 0.2, "count": 2},
    }
    with pytest.raises(ConfigError) as err:
        make_cfg(doc)
    assert err.value.path == "grid.eta.step"


def test_experiment_mismatch_rejected():
    with pytest.raises(ConfigError, match="command"):
        make_cfg(DIST_DOC, experiment="heatmap")


def heatmap_doc(eta_start=0.0, eta_count=4, theta_stop=1.2):
    return dict(HEATMAP_DOC, grid={
        "eta": {"start": eta_start, "stop": 1.0, "count": eta_count},
        "theta": {"start": 0.0, "stop": theta_stop, "count": 4},
    })


def test_theta_half_pi_grid_rejected():
    _, rows = cmd_heatmap(make_cfg(heatmap_doc()))
    assert rows[-1][:2] == [1.0, 1.2]
    with pytest.raises(ConfigError, match="pi/2") as err:
        make_cfg(heatmap_doc(theta_stop=math.pi / 2))
    assert err.value.path == "grid.theta.stop"
    doc = dict(ENTROPY_DOC)
    doc["theta_grid"] = {"start": 0.0, "stop": math.pi / 2, "count": 8}
    with pytest.raises(ConfigError, match="pi/2") as err:
        make_cfg(doc)
    assert err.value.path == "theta_grid.stop"


def test_grid_counts_and_ranges_validated():
    for doc, path, message in [
        (heatmap_doc(eta_count=1), "grid.eta.count", "must be >= 2"),
        (heatmap_doc(eta_start=-0.2), "grid.eta", "0 <= start < stop <= pi/2"),
        (heatmap_doc(theta_stop=1.6), "grid.theta", "0 <= start < stop <= pi/2"),
    ]:
        with pytest.raises(ConfigError, match=message) as err:
            make_cfg(doc)
        assert err.value.path == path


def test_invalid_initial_state_and_probability():
    doc = dict(DECOHERENCE_DOC)
    doc["p_values"] = [0.5, 1.5]
    with pytest.raises(ConfigError) as err:
        make_cfg(doc)
    assert err.value.path == "p_values[1]"

    doc = dict(DIST_DOC)
    doc["runs"] = [{"label": "x", "n": 1, "initial_state": "sideways"}]
    with pytest.raises(ConfigError, match="preset"):
        make_cfg(doc)


# ------------------------------------------------------------- commands


def test_distribution_rows_sum_to_one_per_run():
    header, rows = cmd_distribution(make_cfg(DIST_DOC))
    assert header == ["label", "n", "j", "position", "prob"]
    by_label = {}
    for label, n, j, pos, prob in rows:
        by_label.setdefault(label, []).append(prob)
    for label, probs in by_label.items():
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    point_rows = [r for r in rows if r[0] == "point"]
    assert point_rows == [["point", 0, 0, 0.0, 1.0]]
    up_mean = sum(r[2] * r[4] for r in rows if r[0] == "up-n10")
    assert up_mean > 0.5  # up-component start biases the walk right


def test_distribution_rescale_modes():
    doc = dict(DIST_DOC, rescale="max_position")
    header, rows = cmd_distribution(make_cfg(doc))
    for label, n, j, pos, prob in rows:
        if n > 0:
            assert pos == pytest.approx(j / n)


def test_heatmap_variance_near_hadamard():
    header, rows = cmd_heatmap(make_cfg(HEATMAP_DOC))
    assert header == ["eta", "theta", "variance_over_n2"]
    assert len(rows) == 4
    for eta, theta, value in rows:
        assert value == pytest.approx(1 - math.sin(theta), abs=0.02)


def test_heatmap_skewness_non_positive_away_from_edge():
    doc = dict(HEATMAP_DOC, statistic="skewness")
    doc["grid"] = {
        "eta": {"start": 0.3, "stop": 1.2, "count": 3},
        "theta": {"start": 0.3, "stop": 1.0, "count": 3},
    }
    _, rows = cmd_heatmap(make_cfg(doc))
    assert all(value <= 0.0 for _, _, value in rows)


def test_entropy_theta_zero_row_is_log_two():
    header, rows = cmd_entropy(make_cfg(ENTROPY_DOC))
    assert header == ["series", "n", "p_tilde", "theta", "entropy"]
    quantum = [r for r in rows if r[0] == "quantum"]
    assert quantum[0][3] == 0.0
    assert quantum[0][4] == pytest.approx(math.log(2), abs=1e-12)
    series = {r[0] for r in rows}
    assert series == {"quantum", "classical", "uniform"}
    uniform = [r for r in rows if r[0] == "uniform"]
    assert uniform[0][4] == pytest.approx(math.log(11))  # n+1 reachable sites


def test_entropy_with_random_phase_series():
    doc = dict(ENTROPY_DOC)
    doc["p_tilde_values"] = [0.0, 1.0]
    _, rows = cmd_entropy(make_cfg(doc))
    p_values = {r[2] for r in rows if r[0] == "quantum"}
    assert p_values == {0.0, 1.0}


def test_decoherence_p_zero_matches_unitary_with_zero_sem():
    header, rows = cmd_decoherence(make_cfg(DECOHERENCE_DOC))
    assert header == ["series", "p", "j", "prob", "sem"]
    unitary = position_distribution(
        evolve(SYMMETRIC_IC, make_theta_coin(math.pi / 4), 16)
    )
    p0 = [r for r in rows if r[0] == "quantum" and r[1] == 0.0]
    assert len(p0) == 33
    for row in p0:
        j = row[2]
        assert row[3] == pytest.approx(unitary.probs[j + 16], abs=1e-14)
        assert row[4] == 0.0
    classical = [r for r in rows if r[0] == "classical"]
    assert sum(r[3] for r in classical) == pytest.approx(1.0, abs=1e-12)


def test_decoherence_normalized_to_classical_reference():
    doc = dict(DECOHERENCE_DOC, normalize_to_classical=True)
    doc["p_values"] = [0.4]
    _, rows = cmd_decoherence(make_cfg(doc))
    quantum = np.array([r[3] for r in rows if r[0] == "quantum"])
    classical = np.array([r[3] for r in rows if r[0] == "classical"])

    def trapezoid(p):
        return p.sum() - 0.5 * (p[0] + p[-1])

    assert trapezoid(quantum) == pytest.approx(trapezoid(classical), abs=1e-10)


def test_compare_returns_columns():
    header, rows = cmd_compare_returns(make_cfg(COMPARE_DOC))
    assert header == ["g", "gaussian", "stable", "quantum"]
    arr = np.array(rows, dtype=float)
    for col in (1, 2, 3):
        assert arr[:, col].sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(arr[:, col] > 0.0)
    # gaussian column peaks at the center bin
    assert abs(arr[np.argmax(arr[:, 1]), 0]) < 0.5


def test_price_path_rows():
    header, rows = cmd_price_path(make_cfg(PRICE_DOC))
    assert header == ["step", "time", "price"]
    assert len(rows) == 9
    assert rows[0][2] == 10.0
    assert all(r[2] > 0 for r in rows)
    assert rows[1][1] == pytest.approx(3.0)  # 12 steps * 0.25 per step


# ----------------------------------------------------------- end to end


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_end_to_end_byte_identical(tmp_path):
    cfg_path = write_config(tmp_path, DECOHERENCE_DOC)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["decoherence", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert run(["decoherence", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csv1 = (out1 / "decoherence.csv").read_bytes()
    csv2 = (out2 / "decoherence.csv").read_bytes()
    assert csv1 == csv2
    meta = json.loads((out1 / "decoherence.meta.json").read_text())
    assert meta["seed"] == 5
    assert meta["config"]["n"] == 16


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, DECOHERENCE_DOC)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["decoherence", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert (
        run(
            ["decoherence", "--config", str(cfg_path), "--out", str(out2),
             "--seed", "99"]
        )
        == 0
    )
    assert (out1 / "decoherence.csv").read_bytes() != (out2 / "decoherence.csv").read_bytes()
    assert json.loads((out2 / "decoherence.meta.json").read_text())["seed"] == 99


def test_cli_json_format(tmp_path):
    cfg_path = write_config(tmp_path, dict(DIST_DOC, format="json"))
    out = tmp_path / "o"
    assert run(["distribution", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / "distribution.json").read_text())
    assert doc["columns"] == ["label", "n", "j", "position", "prob"]
    assert doc["metadata"]["experiment"] == "distribution"


def test_cli_exit_code_on_config_error(tmp_path):
    cfg_path = write_config(tmp_path, dict(DIST_DOC, bogus=True))
    assert run(["distribution", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert run(["distribution", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 2
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert run(["distribution", "--config", str(bad_json), "--out", str(tmp_path)]) == 2


def test_cli_exit_code_on_self_check_failure(tmp_path, monkeypatch, capsys):
    # axis far outside the walk's reachable range leaves the quantum column
    # empty (the Gaussian, centred there, is not), which must be reported as
    # a numerical failure before any stable density is computed
    calls = []
    monkeypatch.setattr(cli, "_stable_pdfs", lambda *a: calls.append(a) or _stable_pdfs(*a))
    doc = dict(COMPARE_DOC, gaussian={"mu": 55.0, "sigma": 2.0})
    doc["axis"] = {"start": 50.0, "stop": 60.0, "bins": 5}
    cfg_path = write_config(tmp_path, doc)
    assert run(["compare-returns", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("numerical self-check failed: quantum column")
    assert calls == []


def test_cli_exit_code_on_tiny_stable_alpha(tmp_path, capsys):
    # the truncation point 36.84 ** (1 / alpha) passes the float range
    cfg_path = write_config(tmp_path, dict(COMPARE_DOC, stable={"alpha": 0.001, "beta": 0.5}))
    assert run(["compare-returns", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical self-check failed: truncation point overflows")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_csv_uses_full_precision(tmp_path):
    cfg_path = write_config(tmp_path, HEATMAP_DOC)
    out = tmp_path / "o"
    assert run(["heatmap", "--config", str(cfg_path), "--out", str(out)]) == 0
    text = (out / "heatmap.csv").read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0] == "eta,theta,variance_over_n2"
    value = lines[1].split(",")[2]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15


def _run_decoherence_with_theta(tmp_path, literal, capsys):
    # the literal goes into the JSON text as written: NaN and Infinity are
    # accepted by Python's JSON reader, and 1e400 reads as inf
    text = json.dumps(dict(DECOHERENCE_DOC, theta=0.5)).replace("0.5", literal)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    code = run(["decoherence", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


def test_cli_rejects_nan_config_number(tmp_path, capsys):
    code, err = _run_decoherence_with_theta(tmp_path, "NaN", capsys)
    assert code == 2 and "theta: must be finite" in err
    assert not (tmp_path / "o").exists()


def test_cli_rejects_infinity_config_number(tmp_path, capsys):
    code, err = _run_decoherence_with_theta(tmp_path, "-Infinity", capsys)
    assert code == 2 and "theta: must be finite" in err


def test_cli_rejects_overflowing_config_number(tmp_path, capsys):
    code, err = _run_decoherence_with_theta(tmp_path, "1e400", capsys)
    assert code == 2 and "theta: must be finite" in err
    code, err = _run_decoherence_with_theta(tmp_path, "1" + "0" * 400, capsys)
    assert code == 2 and "theta: must be finite" in err


def test_non_finite_numbers_in_lists_rejected():
    with pytest.raises(ConfigError, match=r"p_values\[1\]"):
        make_cfg(dict(DECOHERENCE_DOC, p_values=[0.1, float("nan")]))


NAN = float("nan")
BIG = 10**12
ROOT = Path(__file__).resolve().parent.parent
GRID = HEATMAP_DOC["grid"]


@pytest.mark.parametrize("doc,path", [
    (dict(DIST_DOC, runs=[{"label": "x", "n": 2, "initial_state": [[NAN, 0], [1, 0]]}]),
     "runs[0].initial_state[0][0]"),
    (dict(DECOHERENCE_DOC, initial_state=[[1, 0], [0, "a"]]), "initial_state[1][1]"),
    (dict(COMPARE_DOC, gaussian={"mu": NAN}), "gaussian.mu"),
    (dict(COMPARE_DOC, gaussian={"sigma": "1"}), "gaussian.sigma"),
    (dict(COMPARE_DOC, stable={"alpha": "x", "beta": 0}), "stable.alpha"),
    (dict(COMPARE_DOC, stable={"alpha": 1.5, "beta": 0, "c": NAN}), "stable.c"),
    (dict(COMPARE_DOC, stable={"alpha": 2.5, "beta": 0}), "stable"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], scaler={
        "mode": "custom", "t": [0, 1], "f": [NAN, 1]})), "model.scaler.f[0]"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], scaler={
        "mode": "custom", "t": [0, "1"], "f": [1, 1]})), "model.scaler.t[1]"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], scaler={
        "mode": "custom", "t": 3, "f": [1, 1]})), "model.scaler.t"),
    # requests whose largest working array would pass cli.MAX_WORK_BYTES
    (dict(HEATMAP_DOC, n=BIG), "n"),
    (dict(HEATMAP_DOC, n=2**64), "n"),
    (dict(HEATMAP_DOC, grid=dict(GRID, eta=dict(GRID["eta"], count=BIG))), "grid.eta.count"),
    (dict(HEATMAP_DOC, grid=dict(GRID, theta=dict(GRID["theta"], count=BIG))),
     "grid.theta.count"),
    (dict(DIST_DOC, runs=[{"label": "a", "n": 3}, {"label": "b", "n": BIG}]), "runs[1].n"),
    (dict(ENTROPY_DOC, n_values=[10, BIG]), "n_values[1]"),
    (dict(ENTROPY_DOC, theta_grid=dict(ENTROPY_DOC["theta_grid"], count=BIG)),
     "theta_grid.count"),
    (dict(DECOHERENCE_DOC, n=7000), "n"),  # 25 walks with their (n, 2n+2) link masks: 2.5 GB
    (dict(COMPARE_DOC, n=BIG), "n"),
    (dict(COMPARE_DOC, axis=dict(COMPARE_DOC["axis"], bins=BIG)), "axis.bins"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], steps_per_horizon=BIG)),
     "model.steps_per_horizon"),
    # a calibration batch of 64 walks with their link masks: 3,156 MiB
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], steps_per_horizon=5000, decoherence={
        "mode": "broken_links", "p": 0.1})), "model.steps_per_horizon"),
    (dict(PRICE_DOC, horizons=BIG), "horizons"),
    # |a0|^2 overflows a float: not normalized rather than an OverflowError
    (dict(DECOHERENCE_DOC, initial_state=[[1e200, 0], [0, 0]]), "initial_state"),
    # a random-phase sweep's per-theta sums: 48 * 1e5 * 2001 bytes
    (dict(ENTROPY_DOC, n_values=[1000], p_tilde_values=[0.1],
          theta_grid=dict(ENTROPY_DOC["theta_grid"], count=10**5)), "theta_grid.count"),
    # an infinite horizon, and a finite one whose row times pass the float range
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], dt_per_step=1e308,
                                scaler={"mode": "inverse_sqrt"})), "model"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], dt_per_step=1e307)), "horizons"),
    # an axis whose span, or whose bin midpoints, pass the float range
    (dict(COMPARE_DOC, axis=dict(COMPARE_DOC["axis"], start=-1e308, stop=1e308)), "axis"),
    (dict(COMPARE_DOC, axis=dict(COMPARE_DOC["axis"], start=1e308, stop=1.7e308)), "axis"),
    # 2e6 stable abscissae whose quadratures run side by side: gigabytes,
    # while their output rows are 256 MB
    (dict(COMPARE_DOC, axis=dict(COMPARE_DOC["axis"], bins=10**6)), "axis.bins"),
    # integers past the float range, which once overflowed the work warning
    # and the horizon instead
    (dict(DECOHERENCE_DOC, realizations=2**1100), "realizations"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], steps_per_horizon=2**1100)),
     "model.steps_per_horizon"),
    (dict(PRICE_DOC, horizons=2**1100), "horizons"),
])
def test_cli_rejects_bad_nested_numbers_with_their_path(tmp_path, capsys, doc, path):
    with pytest.raises(ConfigError) as err:
        make_cfg(doc)
    assert err.value.path == path
    cfg_path = write_config(tmp_path, doc)
    argv = [doc["experiment"].replace("_", "-"), "--config", str(cfg_path),
            "--out", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning reaches the user
        assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {path}: ")
    assert not (tmp_path / "o").exists()


def test_widest_accepted_axis_has_finite_midpoints():
    axis = dict(COMPARE_DOC["axis"], start=-8.9e307, stop=8.9e307)
    start, stop, bins = make_cfg(dict(COMPARE_DOC, axis=axis)).spec[2]
    edges = np.linspace(start, stop, bins + 1)
    assert np.all(np.isfinite(edges[:-1] + edges[1:]))


def test_memory_ceiling_names_the_field_that_drives_the_table(monkeypatch):
    monkeypatch.setattr(cli, "MAX_WORK_BYTES", 10**6)
    with pytest.raises(ConfigError) as err:
        make_cfg(dict(DECOHERENCE_DOC, p_values=[0.1] * 200))
    assert err.value.path == "p_values"
    with pytest.raises(ConfigError) as err:
        make_cfg(dict(ENTROPY_DOC, n_values=[10] * 2000))
    assert err.value.path == "n_values"


def test_memory_ceiling_charges_the_sum_of_what_a_run_holds(monkeypatch):
    # the bundled random-phase entropy sweep holds its walk batch (1.58 MiB)
    # and its per-theta rows (1.28 MiB) at once, and then its output rows:
    # neither alone passes a 2 MiB ceiling, their sum does
    doc = json.loads((ROOT / "scripts" / "configs" / "entropy_random_phase.json")
                     .read_text(encoding="utf-8"))
    parse_config(doc)
    monkeypatch.setattr(cli, "MAX_WORK_BYTES", 2 * 2**20)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.path == "n_values[0]"


def test_bundled_and_benchmark_configs_stay_far_below_the_memory_ceiling(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    docs = [json.loads(p.read_text(encoding="utf-8"))
            for p in (ROOT / "scripts" / "configs").glob("*.json")]
    docs += [invocation.config for workload in workloads.WORKLOADS for seed in (0, 1, 2)
             for invocation in workloads.build(workload, seed)]
    monkeypatch.setattr(cli, "MAX_WORK_BYTES", cli.MAX_WORK_BYTES // 100)
    for doc in docs:
        parse_config(doc)
    assert len(docs) == 25  # 10 bundled configs; 3 seeds x 5 benchmark invocations
    assert capsys.readouterr().err == ""  # none is announced as a large job


@pytest.mark.parametrize("case, p", [
    ("heatmap", None),
    ("broken_links", 0.2),
    ("broken_links_per_walk_coins", 1.0),  # every link swaps: the most scratch
    ("random_phase_per_step_coins", None),
    ("random_phase_sweep", [0.0, 0.9, 0.1, 0.5]),
    ("broken_links_sweep", [0.0, 0.9, 0.1, 0.5, 0.1]),
    # noiseless runs, charged the unitary walks they take: a sweep over p = 0
    # at p thetas, and a grid of p cells
    ("unitary_sweep", 1),
    ("unitary_sweep", 3),
    ("unitary_sweep", 100),
    ("unitary_grid", 4),
])
def test_walk_bytes_bounds_one_propagate_call(case, p):
    n, walks = 20, 64
    rng = np.random.default_rng(4)
    sweep = 0
    if case.startswith("unitary"):
        # at n = 20 a lone walk's fixed Python objects (about 14 KB) outweigh
        # its 128 (2n+1) = 5 KB of arrays; at n = 200 the arrays dominate
        n, held = 200, 0
        if case == "unitary_sweep":
            _, batch, sweep = decoherence._sweep_cost("broken_links", [0.0], n, walks, thetas=p)
            thetas = np.linspace(0.1, 1.4, p)
            run = lambda: decoherence._sweep(SYMMETRIC_IC, thetas, "broken_links", [0.0], n,
                                             walks, 4)
        else:
            _, batch = walk._grid_cost(p, n)
            run = lambda: list(_grid_probs(SYMMETRIC_IC, rng.uniform(0, 1.5, (p, 2)), n))
    elif case.endswith("_sweep"):
        # a whole one-chunk sweep over the p list: it draws once, walks each
        # nonzero p at every theta and holds all their series, which the
        # parsers' sweep term bounds
        thetas, mode = np.linspace(0.1, 1.4, 30), case.removesuffix("_sweep")
        sweep = 48 * len(thetas) * (2 * n + 1) * sum(map(bool, p))
        held, run = 0, lambda: decoherence._sweep(SYMMETRIC_IC, thetas, mode, p, n, walks, 4)
    elif case == "random_phase_per_step_coins":
        # one whole chunk of the engine: its (accept, phase) uniforms, its
        # zetas, its (n, walks, 2, 2) coins and the propagate call
        rngs = [realization_rng(4, r) for r in range(walks)]
        chunk = decoherence._chunk_walks(SYMMETRIC_IC, [0.7], "random_phase", [0.5], n, rngs)
        held, run = 0, lambda: list(chunk)
    else:
        if case == "broken_links":  # the engine's one real coin: no coin tiles
            coins = _coins(0.0, 0.7, np.zeros(walks))
        else:  # a coin per walk: four tiles as tall as the widest window
            xi, theta = rng.uniform(0, 1.5, (walks, 2)).T
            coins = _coins(xi, theta, 0.0)
        # the engine's count mask of one swept p, one byte a link
        broken = None if p is None else (rng.random((walks, n, 2 * n + 2)) < p).astype(np.uint8)
        held = coins.nbytes + (0 if p is None else broken.nbytes)
        run = lambda: propagate(SYMMETRIC_IC.a0, SYMMETRIC_IC.b0, coins, n, broken=broken)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if not case.startswith("unitary"):
        batch = walk._walk_bytes(n, walks, int(case.startswith("broken")))
    assert held + peak <= batch + sweep


@pytest.mark.parametrize("mode", ["broken_links", "random_phase"])
@pytest.mark.parametrize("realizations", [1, 2])
def test_sweep_cost_bounds_a_small_noisy_batch(mode, realizations):
    # a whole sweep whose one batch holds one or two walks at n = 300: each
    # realization's uniforms and the count mask's step from one p to the next
    # must fit in the charge of the walks the batch holds, not of 128
    n, ps, thetas = 300, [0.9, 0.1, 0.5], [0.3, 1.1]
    _, batch, sweep = decoherence._sweep_cost(mode, ps, n, realizations, thetas=len(thetas))
    # a first sweep in the process allocates about 0.8 MB of lasting module state
    decoherence._sweep(SYMMETRIC_IC, thetas, mode, ps, 2, realizations, 4)
    tracemalloc.start()
    try:
        decoherence._sweep(SYMMETRIC_IC, thetas, mode, ps, n, realizations, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= batch + sweep


@pytest.mark.parametrize("ic, theta", [
    # theta = 0 gives point masses (0/0 skewness); near 0, sites underflow to 0
    ("up", {"start": 0.0, "stop": 1e-6, "count": 9}),
    ("symmetric", {"start": 0.0, "stop": 1.5, "count": 9}),
])
@pytest.mark.parametrize("statistic", ["skewness", "variance_over_n2"])
def test_heatmap_chunk_statistics_equal_per_cell_moments(statistic, ic, theta):
    # 81 cells: a chunk of 64 takes the batched sums, the other 17 fsum
    cfg = make_cfg(dict(HEATMAP_DOC, statistic=statistic, initial_state=ic, grid={
        "eta": {"start": 0.0, "stop": 1.2, "count": 9}, "theta": theta}))
    _, n, _, _, initial = cfg.spec
    _, rows = cmd_heatmap(cfg)
    pairs = [(eta, th) for eta, th, _ in rows]
    dists = [PositionDistribution(n=n, probs=p) for probs in _grid_probs(initial, pairs, n)
             for p in probs]
    want = []
    for dist in dists:
        s = moments(dist)
        want.append(s.skewness if statistic == "skewness" else s.variance / n**2)
    assert len(want) == len(rows) == 81
    assert [struct.pack("<d", row[2]) for row in rows] == [struct.pack("<d", w) for w in want]
    if statistic == "skewness" and ic == "up":
        assert math.isnan(rows[0][2])


@pytest.mark.parametrize("n", [1, 2, 5, 37])
def test_distribution_equals_heatmap_cells_bitwise_for_complex_ic(n):
    # a complex initial state, whose products round, walked alone and in a batch
    ic = [[0.36, 0.48], [0.48, -0.64]]
    cells = list(itertools.product([0.0, 0.7, 2.9, 5.1], [0.3, math.pi / 4, 1.2, 2.6]))
    cfg = make_cfg(dict(DIST_DOC, runs=[
        {"label": f"c{i}", "n": n, "initial_state": ic, "coin": {"xi": eta, "theta": theta}}
        for i, (eta, theta) in enumerate(cells)]))
    _, rows = cmd_distribution(cfg)
    want = _grid_probs(InitialCoinState(0.36 + 0.48j, 0.48 - 0.64j), cells, n)
    assert np.array([row[4] for row in rows]).tobytes() == np.concatenate(list(want)).tobytes()


@pytest.mark.parametrize("n, warned", [(4900, False), (5000, True)])
def test_large_jobs_are_announced_on_stderr(capsys, n, warned):
    grid = {"start": 0.01, "stop": 1.5, "count": 64}
    parse_config({"experiment": "heatmap", "statistic": "skewness", "n": n,
                  "grid": {"eta": grid, "theta": grid}})
    err = capsys.readouterr().err
    # 64 x 64 walks of n^2 site updates each: 9.8e10 at n = 4900, 1.02e11 at 5000
    assert err == ("warning: the run implies about 1.02e+11 site updates "
                   "(n^2 per walk or realization)\n" if warned else "")


def test_long_stable_columns_are_announced_with_their_gauss_nodes(capsys):
    # 40,001 abscissae within 100 of mu, each up to three times 61,100 panels
    # of 16 nodes: 1.17e11 nodes, beside 23,040 site updates of the walk
    parse_config(dict(COMPARE_DOC, axis={"start": -100.0, "stop": 100.0, "bins": 20_000}))
    assert capsys.readouterr().err == (
        "warning: the run implies about 1.17e+11 site updates (n^2 per walk or "
        "realization) and stable-quadrature Gauss nodes (16 per panel)\n")
    parse_config(dict(COMPARE_DOC, axis={"start": -100.0, "stop": 100.0, "bins": 2_000}))
    assert capsys.readouterr().err == ""


def test_repeated_probabilities_are_counted_once(capsys):
    # the sweep walks a repeated p once: 1e5 realizations of n^2 = 1e4 site
    # updates, not 200 times that
    parse_config(dict(DECOHERENCE_DOC, n=100, p_values=[0.1] * 200, realizations=10**5))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("doc", [
    # each takes at most four unitary walks (at most 154 MB), once charged as
    # a whole batch of 64 or 128 walks: over 2 GiB
    dict(COMPARE_DOC, n=70_000, p=0.0),
    dict(DECOHERENCE_DOC, n=3000, p_values=[0.0]),
    dict(ENTROPY_DOC, n_values=[70_000], p_tilde_values=[0.0]),  # 4 thetas
    dict(HEATMAP_DOC, n=150_000),  # 2 x 2 cells
])
def test_noiseless_runs_are_charged_the_walks_they_take(capsys, doc):
    parse_config(doc)
    assert capsys.readouterr().err == ""


def test_small_noisy_ensembles_are_charged_the_walks_they_hold(capsys):
    # 25 realizations are one batch of 25 walks with their count masks, 453 MiB;
    # charged as a whole chunk of 128 walks they came to 2,321 MiB
    parse_config(dict(DECOHERENCE_DOC, n=3000))
    assert capsys.readouterr().err == ""


def test_broken_link_batches_are_charged_the_64_walks_they_hold():
    # a 3,000-step broken-link price path calibrates on 200 realizations in
    # batches of 64 walks, 1,161 MiB with their count masks; charged as 128
    # walks a batch they came to 2,322 MiB, over the ceiling
    model = dict(PRICE_DOC["model"], steps_per_horizon=3000,
                 decoherence={"mode": "broken_links", "p": 0.1})
    parse_config(dict(PRICE_DOC, model=model))


PHASE_MODEL = dict(PRICE_DOC["model"], decoherence={"mode": "random_phase", "p_tilde": 0.3})
BROKEN_MODEL = dict(PRICE_DOC["model"], decoherence={"mode": "broken_links", "p": 0.2})


@pytest.mark.parametrize("doc", [
    dict(ENTROPY_DOC, n_values=[10, 0, 6], p_tilde_values=[0.0, 0.1, 0.1]),
    DECOHERENCE_DOC,  # p_values [0.0, 0.4]
    dict(DECOHERENCE_DOC, p_values=[0.0]),
    dict(COMPARE_DOC, p=0.0),
    COMPARE_DOC,  # p = 0.3
    PRICE_DOC,  # mode none
    dict(PRICE_DOC, model=BROKEN_MODEL),
    dict(PRICE_DOC, model=PHASE_MODEL),
    dict(HEATMAP_DOC, grid={"eta": dict(GRID["eta"], count=9),
                            "theta": dict(GRID["theta"], count=8)}),  # 72 cells: two batches
    DIST_DOC,
])
def test_announced_work_equals_walked_work(monkeypatch, doc):
    announced, walked, quiet, streams = [], [], [], {}

    def check_size(site_updates, *costs, nodes=0):  # the walks' work alone
        announced.append(site_updates)

    def counted(kernel):
        def count(a0, b0, coins, n, broken=None):
            walked.append(np.shape(coins)[-3] * n**2)
            return kernel(a0, b0, coins, n, broken)
        return count

    def stream(seed, r):
        streams[r, seed] = rng = realization_rng(seed, r)
        return rng

    def chunk_walks(ic, thetas, mode, ps, n, rngs):
        # the random-phase rows that are not walked, counted from fresh copies
        # of the streams: a realization is quiet at p when none of its accept
        # draws is below p, and the quiet rows of a batch share one walk
        seeds = {id(rng): key for key, rng in streams.items()}
        if mode == "random_phase":
            keys = [seeds[id(rng)] for rng in rngs]
            low = np.array([realization_rng(seed, r).random((n, 2))[:, 0].min(initial=1.0)
                            for r, seed in keys])
            quiet.append(len(thetas) * n**2 * sum(max(np.sum(low >= p) - 1, 0) for p in ps))
        return engine(ic, thetas, mode, ps, n, rngs)

    engine = decoherence._chunk_walks
    monkeypatch.setattr(cli, "_check_size", check_size)
    # every engine's binding of the kernel's two entries
    monkeypatch.setattr(walk, "propagate", counted(propagate))
    probs = counted(walk._propagate_probs)
    for module in (walk, decoherence):
        monkeypatch.setattr(module, "_propagate_probs", probs)
    monkeypatch.setattr(decoherence, "realization_rng", stream)
    monkeypatch.setattr(decoherence, "_chunk_walks", chunk_walks)
    cfg = make_cfg(doc)
    cli._COMMANDS[cfg.experiment](cfg)
    assert announced == [sum(walked) + sum(quiet)] and sum(walked) > 0
    # at n = 10 and 6, p_tilde = 0.1 leaves about 35% and 53% of the walks quiet
    assert sum(quiet) > 0 or cfg.experiment != "entropy"


@pytest.mark.parametrize("model", [
    dict(PRICE_DOC["model"], coin={"theta": 0.0}, initial_state="up"),  # a point-mass walk
    dict(PRICE_DOC["model"], mu=1e12),  # exp(r) past the float range
    # a subnormal f makes dx = 1 / (f * walk_std) infinite
    dict(PRICE_DOC["model"], scaler={"mode": "custom", "t": [0, 10], "f": [1e-320, 1e-320]}),
    dict(PRICE_DOC["model"], s0=1e308, mu=100.0),  # a price past the float range
    dict(PRICE_DOC["model"], s0=1e-300, mu=-100.0),  # a price that underflows to 0
])
def test_price_path_numerical_failures_exit_3(tmp_path, capsys, model):
    cfg_path = write_config(tmp_path, dict(PRICE_DOC, model=model))
    assert run(["price-path", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("numerical self-check failed: price path: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                  "config_too_deep", "out_is_a_file", "out_under_a_file"])
def test_cli_io_errors_exit_2_without_leaving_files(tmp_path, capsys, monkeypatch, case):
    cfg_path = write_config(tmp_path, DIST_DOC)
    out = tmp_path / "o"
    # every one of these is refused before the command runs
    monkeypatch.setitem(cli._COMMANDS, "distribution", lambda cfg: pytest.fail("command ran"))
    if case == "config_is_a_directory":
        cfg_path = tmp_path / "dir.json"
        cfg_path.mkdir()
    elif case == "config_not_utf8":
        cfg_path.write_bytes(json.dumps(dict(DIST_DOC, rescale="none")).encode("latin-1")
                             .replace(b"none", b"n\xf6ne"))
    elif case == "config_too_deep":
        cfg_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    else:
        out.write_text("taken", encoding="utf-8")
        if case == "out_under_a_file":
            out = out / "sub" / "dir"

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}

    before = tree()
    assert run(["distribution", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "output error: " if case.startswith("out_") else "config error: ")
    assert tree() == before


def test_compare_returns_evaluates_each_stable_abscissa_once(monkeypatch):
    calls, phis, cf = [], [], classical.stable_cf

    def counting_pdfs(xs, params):
        calls.append([float(x) for x in xs])
        return _stable_pdfs(xs, params)

    monkeypatch.setattr(cli, "_stable_pdfs", counting_pdfs)
    monkeypatch.setattr(classical, "stable_cf", lambda t, p: phis.append(1) or cf(t, p))
    cfg = make_cfg(COMPARE_DOC)
    cmd_compare_returns(cfg)
    (xs,) = calls  # one call for the stable column
    assert len(xs) == len(set(xs)) == 2 * 13 + 1
    # one phi per panel set of each mirror pair: as many as one abscissa of
    # each |x| alone takes (23 of the 27 here)
    paired = len(phis)
    phis.clear()
    _stable_pdfs(list({abs(x): x for x in xs}.values()), cfg.spec[5])
    assert paired == len(phis) and len({abs(x) for x in xs}) < len(xs)


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--realizations", "0")])
def test_cli_override_flags_are_validated(tmp_path, capsys, flag, value):
    cfg_path = write_config(tmp_path, DECOHERENCE_DOC)
    argv = ["decoherence", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert run(argv + [flag, value]) == 2
    assert f"{flag[2:]}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_override_flag_past_the_float_range_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, DECOHERENCE_DOC)
    argv = ["decoherence", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert run(argv + ["--realizations", str(2**1100)]) == 2
    assert capsys.readouterr().err == "config error: realizations: must be finite, got inf\n"
    assert not (tmp_path / "o").exists()


def test_work_past_the_float_range_is_announced(capsys):
    # 1e6 site updates for each of 2**1022 realizations: no float holds the count
    parse_config(dict(DECOHERENCE_DOC, n=1000, p_values=[0.5], realizations=2**1022))
    assert capsys.readouterr().err == ("warning: the run implies over 1e+308 site updates "
                                       "(n^2 per walk or realization)\n")


def test_a_run_that_cannot_allocate_exits_2_with_one_line(tmp_path):
    # charged 1.2 GiB, below the ceiling; its (64, 3000, 6002) count mask
    # alone is 1.07 GiB, past an address-space limit of 600 MiB that the
    # child sets on itself
    doc = dict(DECOHERENCE_DOC, n=3000, p_values=[0.1], realizations=64)
    parse_config(doc)
    cfg_path = write_config(tmp_path, doc)
    limit = 600 * 2**20
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "decoherence", "--config", str(cfg_path),
         "--out", str(tmp_path / "o")], env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("memory error: ") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_override_flags_set_the_effective_config(tmp_path):
    cfg_path = write_config(tmp_path, DECOHERENCE_DOC)
    out = tmp_path / "o"
    argv = ["decoherence", "--config", str(cfg_path), "--out", str(out)]
    assert run(argv + ["--realizations", "3", "--format", "json"]) == 0
    meta = json.loads((out / "decoherence.json").read_text())["metadata"]
    assert (meta["seed"], meta["realizations"], meta["config"]["format"]) == (5, 3, "json")


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format this cell")


def test_failed_write_leaves_no_partial_file(tmp_path):
    cfg = ExperimentConfig("heatmap", 0, 1, "csv", {})
    out = tmp_path / "o"
    good = [[0.1, 0.2, 0.3]]
    write_outputs(cfg, ["eta", "theta", "skewness"], good, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    rows = good * 5000 + [[0.1, 0.2, _Unprintable()]]
    with pytest.raises(RuntimeError):
        write_outputs(cfg, ["eta", "theta", "skewness"], rows, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    fresh = tmp_path / "fresh"
    with pytest.raises(RuntimeError):
        write_outputs(cfg, ["eta", "theta", "skewness"], rows, fresh)
    assert list(fresh.iterdir()) == []


# ----------------------------------------------------------------- fuzzing

def _nodes(node, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


FUZZ_DOCS = [DIST_DOC, HEATMAP_DOC, ENTROPY_DOC, DECOHERENCE_DOC, COMPARE_DOC, PRICE_DOC]
# the documents' own keys, optional keys they leave out, and one unknown key
FUZZ_KEYS = sorted({path[-1] for doc in FUZZ_DOCS for path, _ in _nodes(doc)
                    if path and isinstance(path[-1], str)}
                   | {"initial_state", "p_tilde_values", "rescale", "stable", "gaussian",
                      "decoherence", "scaler", "mode", "p", "p_tilde", "xi", "bogus"})
FUZZ_LEAVES = [
    None, True, False, "", "up", -1, 0, 1, 2, 3, NAN, math.inf, -math.inf, BIG, 2**64,
    [], [0.5, 2], {}, {"mode": "custom", "theta": 1}, 2**1100,
]


def _mutate(pick, doc):
    """Replace one leaf of ``doc``, or add or delete one key or list item;
    ``pick(options)`` draws one of a list."""
    nodes = dict(_nodes(doc))

    def leaf():
        return copy.deepcopy(pick(FUZZ_LEAVES))

    op = pick(["replace", "replace", "delete", "add"])
    if op == "add":
        node = nodes[pick([path for path, node in nodes.items()
                           if isinstance(node, (dict, list))])]
        if isinstance(node, dict):
            node[pick(FUZZ_KEYS)] = leaf()
        else:
            node.append(leaf())
    elif op == "delete":
        *parent, key = pick([path for path in nodes if path])
        del nodes[tuple(parent)][key]
    else:
        *parent, key = pick(
            [path for path, node in nodes.items() if path and not isinstance(node, (dict, list))])
        nodes[tuple(parent)][key] = leaf()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_code_is_0_2_or_3_on_mutated_configs(data):
    base = data.draw(st.sampled_from(FUZZ_DOCS))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(lambda options: data.draw(st.sampled_from(options)), doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(Path(tmp), doc)
        argv = [base["experiment"].replace("_", "-"), "--config", str(cfg_path),
                "--out", str(Path(tmp) / "o"), "--realizations", "8"]
        assert run(argv) in (0, 2, 3)


def _spelled_out(value):
    """``value`` with each dataclass as its name and every field, those left
    out of its repr too, and each array as a list."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {f.name: _spelled_out(getattr(value, f.name))
                                      for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_spelled_out(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


#: sha256 of the parse outcomes of the 6,000 configs of ``random.Random(28)``
PARSE_OUTCOMES_SHA256 = "f3ee81519d7709a600f8642956204a482beea459fb1aa055746becac4a50bf86"


def test_parse_outcomes_of_mutated_configs_are_pinned():
    # each config's parsed values, or its error's type, field and message, and
    # what parsing printed: a rewrite of the config layer must keep them all
    rng, lines, parsed = random.Random(28), [], 0
    for _ in range(6000):
        base = rng.choice(FUZZ_DOCS)
        doc = copy.deepcopy(base)
        for _ in range(rng.randint(1, 3)):
            _mutate(rng.choice, doc)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                cfg = parse_config(doc, experiment=base["experiment"])
                outcome = [repr(cfg), repr(_spelled_out(cfg.spec))]
                parsed += 1
            except ConfigError as exc:
                outcome = ["ConfigError", exc.path, str(exc)]
        lines.append(json.dumps([outcome, err.getvalue()]))
    assert parsed == 458  # the corpus keeps its share of valid configs
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PARSE_OUTCOMES_SHA256
