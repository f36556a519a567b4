"""Output checks: pinned digests for the default seed, structure otherwise.

``expected.json`` pins the sha256 of every generated input and of the
bundle, alarm file and sweep report each workload produces at
``PINNED_SEED``. For any other seed the outputs are checked for structure:
the bundle loads, every alarm line parses with an in-range ``line_id``, and
the sweep report has one row per (configuration, epsilon) pair.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from logconformal import conformal, evalharness
from logconformal.errors import BundleError

PINNED_SEED = 1
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Sweep rows: the four parsers and the ensemble, at each of the 5 grid points.
SWEEP_ROWS = 5 * len(evalharness.DEFAULT_GRID)


class CheckFailed(Exception):
    pass


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_digest(expected: dict, key: str, path) -> None:
    """Compare ``path`` with the digest pinned under ``key``."""
    want = expected.get(key)
    if want is None:
        raise CheckFailed(f"no digest pinned for {key}")
    got = sha256_file(path)
    if got != want:
        raise CheckFailed(f"{key}: sha256 {got} != pinned {want}")


def check_bundle(path, n_parsers: int = 4) -> list:
    try:
        models, _ = conformal.load_bundle(path)
    except BundleError as exc:
        raise CheckFailed(str(exc)) from exc
    if len(models) != n_parsers:
        raise CheckFailed(f"bundle holds {len(models)} models, want {n_parsers}")
    return models


def read_alarms(path, n_lines: int) -> list[int]:
    """Line ids of the alarm file; every line must parse and be in range."""
    ids = []
    for k, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        try:
            doc = json.loads(line)
        except ValueError as exc:
            raise CheckFailed(f"alarm line {k} does not parse: {exc}") from exc
        if not isinstance(doc, dict):
            raise CheckFailed(f"alarm line {k} is not an object")
        line_id = doc.get("line_id")
        if not isinstance(line_id, int) or not 1 <= line_id <= n_lines:
            raise CheckFailed(f"alarm line {k}: line_id {line_id!r} out of range")
        if doc.get("label") != "anomaly":
            raise CheckFailed(f"alarm line {k}: label {doc.get('label')!r}")
        if "error" in doc:
            raise CheckFailed(f"alarm line {k} carries error {doc['error']!r}")
        ids.append(line_id)
    if len(set(ids)) != len(ids):
        raise CheckFailed("alarm file repeats a line_id")
    return ids


def check_sweep(path) -> None:
    rows = Path(path).read_text(encoding="utf-8").splitlines()
    if not rows or not rows[0].startswith("configuration,epsilon,"):
        raise CheckFailed("sweep report has no header")
    if len(rows) - 1 != SWEEP_ROWS:
        raise CheckFailed(f"sweep report has {len(rows) - 1} rows, want {SWEEP_ROWS}")


def anomaly_ids(labels_path, n_train: int) -> set[int]:
    """1-based test-file line ids labeled anomaly in ``labels.csv``."""
    out = set()
    for row in Path(labels_path).read_text(encoding="utf-8").splitlines()[1:]:
        line_id, label = row.split(",")
        if label == "anomaly":
            out.add(int(line_id) - n_train)
    return out
