"""Output-correctness checks for one CLI invocation.

Two layers of checking:

* invariants, for every seed: the CSV parses, its row count equals the
  count derived from the config, probability columns are finite and
  non-negative and every run or series sums to one within 1e-9, entropy
  lies in [0, log(2n+1)], prices are positive;
* for the default seed, the sha256 of every output file must equal the
  reference digest recorded at the seed commit (``digests.json``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

SUM_TOL = 1e-9
DIGESTS = Path(__file__).with_name("digests.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_files(out_dir: Path, experiment: str) -> list[Path]:
    return [out_dir / f"{experiment}.csv", out_dir / f"{experiment}.meta.json"]


def reference_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_invocation(
    config: dict, rows_expected: int, out_dir: Path, digests: dict | None
) -> list[str]:
    """Problems found in one invocation's outputs; empty when all pass.

    ``digests`` maps output file name to sha256, or is None for seeds
    without reference digests.
    """
    exp = config["experiment"]
    csv_path, meta_path = output_files(out_dir, exp)
    for path in (csv_path, meta_path):
        if not path.is_file():
            return [f"missing output {path.name}"]
    problems = check_csv(config, rows_expected, csv_path)
    if digests is not None:
        for path in (csv_path, meta_path):
            if sha256(path) != digests.get(path.name):
                problems.append(f"{path.name}: sha256 differs from the reference digest")
    return problems


def check_csv(config: dict, rows_expected: int, csv_path: Path) -> list[str]:
    try:
        with open(csv_path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error, ValueError) as exc:
        return [f"{csv_path.name}: unreadable CSV ({exc})"]
    if len(rows) != rows_expected:
        return [f"{csv_path.name}: {len(rows)} rows, expected {rows_expected}"]
    try:
        table = [dict(zip(header, row, strict=True)) for row in rows]
        return _INVARIANTS[config["experiment"]](config, table)
    except (KeyError, ValueError) as exc:
        return [f"{csv_path.name}: malformed table ({exc!r})"]


def _num(cell: str) -> float:
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {cell!r}")
    return v


def _sums_to_one(groups: dict, what: str) -> list[str]:
    out = []
    for key, probs in groups.items():
        if any(p < 0.0 for p in probs):
            out.append(f"{what} {key}: negative probability")
        total = math.fsum(probs)
        if abs(total - 1.0) > SUM_TOL:
            out.append(f"{what} {key}: sums to {total!r}, not 1 within {SUM_TOL}")
    return out


def _heatmap(config, table):
    for row in table:
        for col in ("eta", "theta", config["statistic"]):
            _num(row[col])
    return []


def _entropy(config, table):
    out = []
    for row in table:
        n = int(row["n"])
        h = _num(row["entropy"])
        if not 0.0 <= h <= math.log(2 * n + 1) + SUM_TOL:
            out.append(f"entropy {h} outside [0, log(2n+1)] at n={n}")
    return out


def _decoherence(config, table):
    groups = defaultdict(list)
    for row in table:
        groups[(row["series"], row["p"])].append(_num(row["prob"]))
        if _num(row["sem"]) < 0.0:
            return [f"negative sem at j={row['j']}"]
    return _sums_to_one(groups, "series")


def _compare_returns(config, table):
    groups = defaultdict(list)
    for row in table:
        _num(row["g"])
        for col in ("gaussian", "stable", "quantum"):
            groups[col].append(_num(row[col]))
    return _sums_to_one(groups, "column")


def _price_path(config, table):
    for k, row in enumerate(table):
        if int(row["step"]) != k:
            return [f"row {k} has step {row['step']}"]
        if _num(row["price"]) <= 0.0:
            return [f"non-positive price at step {k}"]
    return []


_INVARIANTS = {
    "heatmap": _heatmap,
    "entropy": _entropy,
    "decoherence": _decoherence,
    "compare_returns": _compare_returns,
    "price_path": _price_path,
}


def corrupted_copies_rejected(
    config: dict, rows_expected: int, out_dir: Path, digests: dict | None, scratch: Path
) -> list[str]:
    """Corrupt copies of a checked output two ways and confirm that the
    check rejects each; returns the corruptions it failed to reject."""
    exp = config["experiment"]
    csv_path, meta_path = output_files(out_dir, exp)
    lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
    last = lines[-1].rstrip("\n").split(",")
    last[-1] = "nan"
    corruptions = {
        "last row dropped": lines[:-1],
        "last cell set to nan": lines[:-1] + [",".join(last) + "\n"],
    }
    missed = []
    for label, body in corruptions.items():
        copy_dir = scratch / label.replace(" ", "_")
        copy_dir.mkdir(parents=True, exist_ok=True)
        (copy_dir / csv_path.name).write_text("".join(body), encoding="utf-8")
        (copy_dir / meta_path.name).write_bytes(meta_path.read_bytes())
        if not check_invocation(config, rows_expected, copy_dir, digests):
            missed.append(label)
    return missed
