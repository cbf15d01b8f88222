"""The package's public surface.  ``perfbench/tracer.py`` times what each
layer lists in ``__all__``, so those lists and ``qwalk``'s re-exports must
agree, and the pinned names keep test-only oracles out of the package."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import qwalk

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "CoinAngles", "CoinOperator", "DOWN_IC", "DecoherenceSpec", "DiffusionScaler",
    "EnsembleResult", "InitialCoinState", "PositionDistribution", "QuadratureError",
    "QwPriceModel", "SYMMETRIC_IC", "StableParams", "SummaryStats", "UP_IC", "WalkState",
    "classical_rw_distribution", "evolve", "make_su2_coin", "make_theta_coin", "moments",
    "normalize_to_reference", "position_distribution", "propagate", "qw_price_path",
    "realization_rng", "run_ensemble", "stable_cf", "stable_pdf",
]


def test_public_names_are_pinned_and_listed_by_the_layers():
    exported = [name for name, value in vars(qwalk).items()
                if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(exported) == PUBLIC
    listed = []
    for layer in ("coin", "walk", "decoherence", "stats", "classical", "pricing"):
        module = importlib.import_module(f"qwalk.{layer}")
        for name in module.__all__:
            assert getattr(qwalk, name) is getattr(module, name), f"qwalk.{layer}.{name}"
        listed += module.__all__
    assert sorted(listed) == PUBLIC


def test_cli_surface_that_perfbench_wraps():
    # perfbench/tracer.py wraps these; perfbench/probes.py builds the config
    from qwalk import cli

    assert sorted(cli.__all__) == ["ConfigError", "ExperimentConfig", "SelfCheckError", "main"]
    for name in ("run", "parse_config", "write_outputs", "_COMMANDS"):
        assert hasattr(cli, name), name
    assert cli.ExperimentConfig("heatmap", 0, 1, "csv", {}).spec == ()


def test_a_cli_run_needs_no_package_beyond_numpy(tmp_path):
    # numpy is the one runtime dependency: neither the import nor a run of any
    # command loads these, nor numpy.polynomial, whose Gauss-Legendre rule
    # classical.py stores as constants (it cost every run 0.8 MB and a LAPACK call)
    runs = []
    for name in ("distribution_coins", "heatmap_skewness", "entropy_random_phase",
                 "decoherence_broken_links", "compare_returns", "price_path"):
        doc = json.loads((ROOT / "scripts" / "configs" / f"{name}.json").read_text("utf-8"))
        if "realizations" in doc:  # the engines as the bundled run takes them, fewer times
            doc["realizations"] = 20
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        runs.append((doc["experiment"].replace("_", "-"), str(config), str(tmp_path / name)))
    code = (
        "import sys, qwalk\n"
        "from qwalk import cli\n"
        f"for command, config, out in {runs!r}:\n"
        "    assert cli.run([command, '--config', config, '--out', out]) == 0, command\n"
        "print(sorted({'scipy', 'mpmath', 'sympy', 'hypothesis', 'pytest', 'numpy.polynomial'}\n"
        "             & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # after the paths the runs print
