"""Correctness references: one ``RunStats`` digest per job and seed.

A digest is the sha256 of the canonical JSON of ``RunStats.to_dict()``
(floats in shortest-repr form, so equal digests mean bit-identical
statistics), cut to 16 hex digits.  ``reference/<workload>.json`` holds the
committed digests per seed; ``HELD_OUT_SEED`` is the seed kept out of
tuning - a change that claims a gain shows it there too.

The files change only through ``python3 perfbench/run.py --write-reference
SEED ...``, which must be asked for explicitly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.runner.job import canonical_json

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: The seed not to be used while tuning (see the module docstring).
HELD_OUT_SEED = 7919


def digest(stats: dict) -> str:
    """Digest of one serialized ``RunStats``."""
    return hashlib.sha256(canonical_json(stats).encode("utf-8")).hexdigest()[:16]


def reference_path(workload: str, directory: Path = REFERENCE_DIR) -> Path:
    return directory / f"{workload}.json"


def load_reference(workload: str, seed: int, directory: Path = REFERENCE_DIR) -> dict | None:
    """Committed ``label -> digest`` map for ``seed``; ``None`` if there is none."""
    path = reference_path(workload, directory)
    if not path.exists():
        return None
    seeds = json.loads(path.read_text(encoding="utf-8"))["seeds"]
    return seeds.get(str(seed))


def write_reference(
    workload: str, seed: int, digests: dict[str, str], directory: Path = REFERENCE_DIR
) -> int:
    """Store ``digests`` for ``seed``; returns how many entries changed."""
    path = reference_path(workload, directory)
    data = {"workload": workload, "held_out_seed": HELD_OUT_SEED, "seeds": {}}
    if path.exists():
        data["seeds"] = json.loads(path.read_text(encoding="utf-8"))["seeds"]
    old = data["seeds"].get(str(seed), {})
    changed = sum(1 for k, v in digests.items() if old.get(k) != v) + len(set(old) - set(digests))
    data["seeds"][str(seed)] = dict(sorted(digests.items()))
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return changed


def mismatches(observed: dict[str, str | None], expected: dict[str, str]) -> list[str]:
    """Labels whose job raised (digest ``None``) or differs from ``expected``."""
    return sorted(
        name for name, value in observed.items()
        if value is None or expected.get(name) != value
    )
