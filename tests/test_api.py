"""The package's public surface.  ``perfbench/tracer.py`` times what each
layer lists in ``__all__``, so those lists and ``qwalk``'s re-exports must
agree, and the pinned names keep test-only oracles out of the package."""

import importlib
import inspect
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
    # numpy is the one runtime dependency: neither the import nor a run loads these
    config = ROOT / "scripts" / "configs" / "price_path.json"
    code = (
        "import sys, qwalk\n"
        "from qwalk import cli\n"
        f"assert cli.run(['price-path', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted({'scipy', 'mpmath', 'sympy', 'hypothesis', 'pytest'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"  # after the paths the run prints
