import copy
import importlib
import itertools
import json
import math
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import cli, decoherence
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
from qwalk.classical import stable_pdf
from qwalk.coin import CoinAngles, _su2_matrices, make_theta_coin
from qwalk.decoherence import DecoherenceSpec, _phase_coins, realization_rng
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
    monkeypatch.setattr(cli, "stable_pdf", lambda *a: calls.append(a) or stable_pdf(*a))
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
    (dict(DECOHERENCE_DOC, n=3000), "n"),  # (128, n, 2n+2) link masks: 2.3 GB
    (dict(COMPARE_DOC, n=BIG), "n"),
    (dict(COMPARE_DOC, axis=dict(COMPARE_DOC["axis"], bins=BIG)), "axis.bins"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], steps_per_horizon=BIG)),
     "model.steps_per_horizon"),
    (dict(PRICE_DOC, model=dict(PRICE_DOC["model"], steps_per_horizon=3000, decoherence={
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
])
def test_walk_bytes_bounds_one_propagate_call(case, p):
    n, walks = 20, 64
    rng = np.random.default_rng(4)
    if case == "random_phase_per_step_coins":
        # one whole chunk of the engine: its (accept, phase) uniforms, its
        # zetas, its (n, walks, 2, 2) coins and the propagate call
        rngs = [realization_rng(4, r) for r in range(walks)]
        spec = DecoherenceSpec.random_phase(0.5)
        chunk = decoherence._chunk_walks(SYMMETRIC_IC, [0.7], spec, n, rngs)
        held, run = 0, lambda: list(chunk)
    else:
        if case == "broken_links":  # the engine's one real coin: no coin tiles
            coins = _phase_coins(0.7, np.zeros((walks, 1)))[0]
        else:  # a coin per walk: four tiles as tall as the widest window
            angles = rng.uniform(0, 1.5, (walks, 2))
            coins = _su2_matrices([CoinAngles(x, t, 0.0) for x, t in angles])
        broken = None if p is None else rng.random((walks, n, 2 * n + 2)) < p
        held = coins.nbytes + (0 if p is None else broken.nbytes)
        run = lambda: propagate(SYMMETRIC_IC.a0, SYMMETRIC_IC.b0, coins, n, broken=broken)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held + peak <= cli._walk_bytes(n, walks, broken=p is not None)


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
    calls = []

    def counting_pdf(x, params):
        calls.append(float(x))
        return stable_pdf(x, params)

    monkeypatch.setattr(cli, "stable_pdf", counting_pdf)
    cmd_compare_returns(make_cfg(COMPARE_DOC))
    assert len(calls) == len(set(calls)) == 2 * 13 + 1


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--realizations", "0")])
def test_cli_override_flags_are_validated(tmp_path, capsys, flag, value):
    cfg_path = write_config(tmp_path, DECOHERENCE_DOC)
    argv = ["decoherence", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
    assert run(argv + [flag, value]) == 2
    assert f"{flag[2:]}: must be >= " in capsys.readouterr().err
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
FUZZ_LEAVES = st.sampled_from([
    None, True, False, "", "up", -1, 0, 1, 2, 3, NAN, math.inf, -math.inf, BIG, 2**64,
    [], [0.5, 2], {}, {"mode": "custom", "theta": 1},
]).map(copy.deepcopy)


def _mutate(data, doc):
    """Replace one leaf of ``doc``, or add or delete one key or list item."""
    nodes = dict(_nodes(doc))
    op = data.draw(st.sampled_from(["replace", "replace", "delete", "add"]))
    if op == "add":
        node = nodes[data.draw(st.sampled_from(
            [path for path, node in nodes.items() if isinstance(node, (dict, list))]))]
        if isinstance(node, dict):
            node[data.draw(st.sampled_from(FUZZ_KEYS))] = data.draw(FUZZ_LEAVES)
        else:
            node.append(data.draw(FUZZ_LEAVES))
    elif op == "delete":
        *parent, key = data.draw(st.sampled_from([path for path in nodes if path]))
        del nodes[tuple(parent)][key]
    else:
        *parent, key = data.draw(st.sampled_from(
            [path for path, node in nodes.items() if path and not isinstance(node, (dict, list))]))
        nodes[tuple(parent)][key] = data.draw(FUZZ_LEAVES)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_exit_code_is_0_2_or_3_on_mutated_configs(data):
    base = data.draw(st.sampled_from(FUZZ_DOCS))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = write_config(Path(tmp), doc)
        argv = [base["experiment"].replace("_", "-"), "--config", str(cfg_path),
                "--out", str(Path(tmp) / "o"), "--realizations", "8"]
        assert run(argv) in (0, 2, 3)
