"""Behaviour digest: one hash over every answer and every QueryStats field.

An optimisation must leave answers and simulated costs exactly as they
were, so the benchmark hashes both for a fixed prefix of each workload
and compares the hash with the one recorded in ``digests.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

RECORD_PATH = Path(__file__).with_name("digests.json")


def canonical(value: Any) -> Any:
    """A JSON-ready form of answers, stats and counters.

    Floats keep every digit (``json`` writes their shortest exact repr);
    NumPy scalars become Python numbers; dataclasses become field dicts in
    declaration order, so adding a ``QueryStats`` field changes the digest.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "item") and callable(value.item):
        return value.item()
    return value


class Digest:
    """An incremental SHA-256 over canonical JSON records."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.records = 0

    def add(self, *parts: Any) -> None:
        payload = json.dumps(canonical(list(parts)), separators=(",", ":"),
                             allow_nan=True)
        self._hash.update(payload.encode())
        self._hash.update(b"\n")
        self.records += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:24]


def load_record(path: Path = RECORD_PATH) -> dict[str, Any]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())

