"""State-file ingestion and canonical serialization.

JSON is the canonical format (explicit re/im per amplitude); CSV is
accepted for ingestion only, with row j holding the 2 d interleaved
values re, im, re, im, ... over i.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ParseError
from .states import PureBipartiteState, validate_state

STATE_SCHEMA_VERSION = 1


def state_to_dict(state: PureBipartiteState) -> dict:
    return {
        "schema_version": STATE_SCHEMA_VERSION,
        "n": state.n,
        "d": state.d,
        "amplitudes": [
            [{"re": float(a.real), "im": float(a.imag)} for a in row]
            for row in state.amplitudes
        ],
    }


def serialize_state(state: PureBipartiteState) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(state_to_dict(state), sort_keys=True, indent=2) + "\n"


def write_state_file(state: PureBipartiteState, path) -> None:
    Path(path).write_text(serialize_state(state))


def _parse_state_dict(doc: dict, renormalize: bool) -> PureBipartiteState:
    try:
        n = int(doc["n"])
        d = int(doc["d"])
        rows = doc["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed field: {exc}") from exc
    if len(rows) != n or any(len(row) != d for row in rows):
        raise DimensionMismatchError(
            f"amplitudes shape ({len(rows)} x ...) does not match n={n}, d={d}"
        )
    try:
        raw = np.array(
            [[complex(c["re"], c["im"]) for c in row] for row in rows], dtype=complex
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad amplitude entry: {exc}") from exc
    return validate_state(raw, renormalize=renormalize)


def _parse_state_csv(text: str, renormalize: bool) -> PureBipartiteState:
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise ParseError("empty CSV state file")
    parsed = []
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise DimensionMismatchError("ragged CSV rows")
        try:
            parsed.append([float(x) for x in row])
        except ValueError as exc:
            raise ParseError(f"non-numeric CSV entry: {exc}") from exc
    if width % 2 != 0:
        raise DimensionMismatchError(
            f"CSV rows must hold re,im pairs; got odd width {width}"
        )
    raw = np.array(
        [[complex(row[2 * i], row[2 * i + 1]) for i in range(width // 2)] for row in parsed]
    )
    return validate_state(raw, renormalize=renormalize)


def parse_state_file(path, renormalize: bool = False) -> PureBipartiteState:
    """Read a state from JSON (canonical) or CSV (by .csv suffix)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        return _parse_state_csv(text, renormalize)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object in {p}")
    return _parse_state_dict(doc, renormalize)
