"""Flat `key = value` text documents.

The format of run settings files (bench.RunSettings.from_document). Every
value is JSON-encoded on its line, which keeps floats at full round-trip
precision and makes lists unambiguous while the document itself stays
grep-able line-per-field text.
"""
from __future__ import annotations

import json
import re

import numpy as np

from .errors import IngestionError

_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def save_document(path, mapping: dict) -> None:
    lines = []
    for key, value in mapping.items():
        if not _KEY.match(key):
            raise ValueError(f"bad document key {key!r}")
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, (np.integer,)):
            value = int(value)
        elif isinstance(value, (np.floating,)):
            value = float(value)
        lines.append(f"{key} = {json.dumps(value)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_document(path) -> dict:
    out = {}
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or not _KEY.match(key):
                raise IngestionError(f"{path}: line {n}: expected 'key = "
                                     f"value', got {line!r}")
            try:
                out[key] = json.loads(raw.strip())
            except json.JSONDecodeError as exc:
                raise IngestionError(
                    f"{path}: line {n}: bad value for {key!r}: {exc}") from None
    return out
