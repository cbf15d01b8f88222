"""Golden outputs: the sha256 of every bundled config's CSV.

Each config in ``scripts/configs/`` runs in-process through ``cli.run`` with
``--realizations 64``, so the ensemble configs finish in seconds.  The
digests were recorded before the coin-and-shift kernel was batched; a
refactor that changes any byte of any output fails here.

The heatmap commands take no realizations, so the two heatmap digests are
the full-scale outputs; ``heatmap_skewness`` equals the seed-0 digest of
the ``grid_sweep`` benchmark workload in ``perfbench/digests.json``.

``VARIANTS`` are bundled configs with a few keys changed, covering paths
that no bundled config reaches: a random-phase price path and broken-link
means rescaled to the classical peak.  Their digests were recorded before
the broken-link engine and the price-path horizons were batched.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qwalk.cli import run

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"

GOLDEN = {
    "compare_returns": "6d31f7eb7ab9d04092a74895628b6185c226b3ad664e2af79b3b8daff011cf6c",
    "decoherence_broken_links": "d24be4aa21153d61e2671e73cbe4319f13661aed088d2690142d9e4975d9bb17",
    "distribution_coins": "48a07e24633cb7da2f90438df1bbf2a8035403373f70f93dd46cf57a6b729ba4",
    "distribution_initial_states": "0b2641ef825a87c67f8c9da40381fb382213f06515b55f7e37f35c112163088a",
    "distribution_step_counts": "2811d5f3e20bf5a5fcac253ea637d39bf79066a7122fc7112677eb2a20c9cc05",
    "entropy_random_phase": "bb5ffb7fcd03c7cd564d57786d6b91492547a734ce7b9002861b972e0ed9beae",
    "entropy_unitary": "0198e6d6574e8ca7a33432a48dc091375ef33544904cfbf6c0189b54ba775fc4",
    "heatmap_skewness": "587e298240753439a0050e83513ceb247c600ede01bd42653bfa512e55771f1f",
    "heatmap_variance": "5978fe3aef7f2f7681e422e4491c6529b6cc90075ace93711dc00338b81fc72c",
    "price_path": "565d368cd0f4ac926abb48de405bba523871146cab09f1b1d0cd2886c27afed1",
}

VARIANTS = {
    "price_path_random_phase": (
        "price_path",
        {"model.decoherence": {"mode": "random_phase", "p_tilde": 0.3},
         "model.steps_per_horizon": 40, "horizons": 300},
        "b50e564b8ca224dfa1aa6640f82b168577dfaacfd0f5eaabda5b25f1f4c392dd",
    ),
    "decoherence_normalized": (
        "decoherence_broken_links", {"normalize_to_classical": True},
        "35a0c70558a3e39c524eb0c6adc5d6351e0ae96956394aff3625e1ebc856c739",
    ),
}


def _run_csv(doc, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    experiment = doc["experiment"]
    argv = [experiment.replace("_", "-"), "--config", str(config),
            "--out", str(tmp_path), "--realizations", "64"]
    assert run(argv) == 0
    return (tmp_path / f"{experiment}.csv").read_bytes()


def _with_changes(doc, changes):
    """``doc`` with each dotted path in ``changes`` set to its value."""
    for path, value in changes.items():
        *parents, key = path.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = value
    return doc


def test_every_bundled_config_has_a_golden_digest():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_digest(name, tmp_path):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(_run_csv(doc, tmp_path)).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_csv_digest(name, tmp_path):
    base, changes, digest = VARIANTS[name]
    doc = json.loads((CONFIG_DIR / f"{base}.json").read_text(encoding="utf-8"))
    assert hashlib.sha256(_run_csv(_with_changes(doc, changes), tmp_path)).hexdigest() == digest
