"""The package's public surface.  ``perfbench/tracer.py`` times what each
layer lists in ``__all__``, so those lists and ``qwalk``'s re-exports must
agree, and the pinned names keep test-only oracles out of the package."""

import importlib
import inspect

import qwalk

PUBLIC = [
    "CoinAngles", "CoinOperator", "DOWN_IC", "DecoherenceSpec", "DiffusionScaler",
    "EnsembleResult", "GbmParams", "Histogram", "InitialCoinState", "PositionDistribution",
    "QuadratureError", "QuadratureSpec", "QwPriceModel", "ReturnDistribution", "SYMMETRIC_IC",
    "StableParams", "SummaryStats", "UP_IC", "WalkState", "aggregate_histogram",
    "classical_rw_distribution", "evolve", "gaussian_pdf", "gbm_path", "gbm_terminal_samples",
    "make_su2_coin", "make_theta_coin", "moments", "normalize_to_reference",
    "normalized_returns", "position_distribution", "prenormalized_return_distribution",
    "propagate", "qw_price_path", "qw_return_distribution", "realization_rng", "run_ensemble",
    "stable_cf", "stable_pdf", "total_variation",
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
