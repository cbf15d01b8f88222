"""Golden outputs: the sha256 of every bundled config's CSV and meta.json.

Each config in ``scripts/configs/`` runs in-process through ``cli.run`` with
``--realizations 64``, so the ensemble configs finish in seconds.  The
digests were recorded before the coin-and-shift kernel was batched; a
refactor that changes any byte of any output fails here.

The heatmap commands take no realizations and the price path ignores them,
so those digests are the full-scale outputs; ``heatmap_skewness`` and
``price_path`` equal the seed-0 digests of the benchmark workloads in
``perfbench/digests.json``, which a test here reads.

``VARIANTS`` are bundled configs with a few keys changed, covering paths
that no bundled config reaches: a random-phase price path and broken-link
means rescaled to the classical peak.  Their digests were recorded before
the broken-link engine and the price-path horizons were batched.  The two
``_200`` variants run 200 realizations, so every ensemble spans two chunks
of 128 walks; their digests were recorded before the ensembles, theta
sweeps and price-path horizons shared one chunk loop.  The two
``price_path_unitary`` variants, the second with a coin whose xi and zeta
differ, cover the noiseless price path; their digests were recorded before
every p = 0 price path took that path.

``META`` pins each run's ``meta.json``, the echo of the effective config,
so a change to how configs are parsed cannot alter what a run records about
itself.  These digests were recorded before the CLI parsed each config
once into typed values; they include the library version.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qwalk.cli import run

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "scripts" / "configs"

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
        64,
        "b50e564b8ca224dfa1aa6640f82b168577dfaacfd0f5eaabda5b25f1f4c392dd",
    ),
    "decoherence_normalized": (
        "decoherence_broken_links", {"normalize_to_classical": True},
        64,
        "35a0c70558a3e39c524eb0c6adc5d6351e0ae96956394aff3625e1ebc856c739",
    ),
    "entropy_random_phase_200": (
        "entropy_random_phase", {"theta_grid.count": 6},
        200,
        "194e0c68da75c564d9f62574bb6529a40b50057e4acb51d518937d07cb0b7e0d",
    ),
    "decoherence_broken_links_200": (
        "decoherence_broken_links", {},
        200,
        "3352110198e380cc99aee022e1be311c2adfc5b40053db908c79c4e94335fa23",
    ),
    "price_path_unitary": (
        "price_path", {"model.decoherence": {"mode": "none"}},
        64,
        "5c85cccadf96f5ec9872cadd135cbafa711f799f3f2d9094231a1b659419da8b",
    ),
    "price_path_unitary_coin": (
        "price_path",
        {"model.decoherence": {"mode": "none"},
         "model.coin": {"xi": 0.8, "theta": 1.1, "zeta": 0.3}},
        64,
        "76d31e13e7a4b070cb4e660212deeef892e1bd771a83986b86b18f2c517f1ac7",
    ),
}


META = {
    "compare_returns": "747ec25d8ac65b8200c40ec8b39dcf5dd62c81dbee9c467dd2f82eca8d7500ba",
    "decoherence_broken_links": "08e57fb031163da6e8f744940a4fbbb67cb38b30f3abf283fe6da0947e681e99",
    "decoherence_broken_links_200":
        "2300225bbc11c6e27649472114932210d30205e39680c539d7dd8e5346e81f41",
    "decoherence_normalized": "5f56b4d8d3e7e5269718109c2d045d953ac1a79ff8096a29098f9a706702bfc3",
    "distribution_coins": "c86765a2c8235f153669037f52253626de89aac255aba137259bc51de499a471",
    "distribution_initial_states": "60036dd7d8b235a92bf578a16a1b3cc98edb2de62c853fa17e9a04b12e561923",
    "distribution_step_counts": "ae39b4d7f07084ae6f7d59d8f44602d5f29ded637b0c2b6d77bc619135b3ee33",
    "entropy_random_phase": "fe44b1cbf2ef6abe8bd37a796980a4695cbd3ef81ccc3eb4bd629ee88c26d856",
    "entropy_random_phase_200":
        "a521e28f5bb37a9742908469e806f114de4106a3316e5147ed52907fd04f4aff",
    "entropy_unitary": "6423a313423fa5622b50bea7ca6a5727626e3727d1d20755022e55c63236477a",
    "heatmap_skewness": "50eba0fcfe314d03a279697080d93962a43f99a7d62638d348b5e1354fbc1dad",
    "heatmap_variance": "ebb23693f438cddce389046d2b7259ada0af23a7c36374a40a781b30786b607f",
    "price_path": "12c85f4257440e650d4f24e73777425421a1abebdbdf58f5aab03f7c4c6d6065",
    "price_path_random_phase": "dd7d0630788c3c7c8d3d0e2571304571ddd8a038a071400e6329db842934d561",
    "price_path_unitary": "b4cd0385c72130d5fec3b14c070a435e9998c9ee92d9f5ce95edacd051839a03",
    "price_path_unitary_coin":
        "acff0804880b31cc546158928f79a20317e4614299b1c18c5d2eb684fe5ede5a",
}


def _digests(doc, tmp_path, realizations=64):
    """sha256 of the CSV and of the meta.json that one run writes with
    ``realizations`` realizations per ensemble."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    experiment = doc["experiment"]
    argv = [experiment.replace("_", "-"), "--config", str(config),
            "--out", str(tmp_path), "--realizations", str(realizations)]
    assert run(argv) == 0
    return tuple(hashlib.sha256((tmp_path / f"{experiment}{suffix}").read_bytes()).hexdigest()
                 for suffix in (".csv", ".meta.json"))


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
    assert sorted(META) == sorted([*GOLDEN, *VARIANTS])


def test_full_scale_goldens_equal_the_benchmark_digests():
    bench = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    assert GOLDEN["heatmap_skewness"] == bench["grid_sweep"]["heatmap_skewness"]["heatmap.csv"]
    price = bench["ensemble_pipeline"]["price_path"]["price_path.csv"]
    assert GOLDEN["price_path"] == price


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_digest(name, tmp_path):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert _digests(doc, tmp_path) == (GOLDEN[name], META[name])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_csv_digest(name, tmp_path):
    base, changes, realizations, digest = VARIANTS[name]
    doc = json.loads((CONFIG_DIR / f"{base}.json").read_text(encoding="utf-8"))
    got = _digests(_with_changes(doc, changes), tmp_path, realizations)
    assert got == (digest, META[name])


def _run_experiments(*args):
    """Run ``scripts/run_experiments.py`` with ``args`` on the package in src/."""
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "run_experiments.py"), *args],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)


def test_run_experiments_script_writes_the_golden_price_path(tmp_path):
    done = _run_experiments("--only", "price_path", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    csv = (tmp_path / "price_path" / "price_path.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == GOLDEN["price_path"]
    none = _run_experiments("--only", "no_such_config", "--out", str(tmp_path / "none"))
    assert none.returncode == 1 and "no configs matched" in none.stderr
