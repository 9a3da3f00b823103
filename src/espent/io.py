"""State-file ingestion and canonical serialization.

JSON is the canonical format (explicit re/im per amplitude); CSV is
accepted for ingestion only, with row j holding the 2 d interleaved
values re, im, re, im, ... over i.
"""

from __future__ import annotations

import csv
import json
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ParseError, TooLargeError
from .states import MAX_AMPLITUDES, PureBipartiteState, validate_state

STATE_SCHEMA_VERSION = 1


def state_to_dict(state: PureBipartiteState) -> dict:
    """The state file as a dict; its json.dumps with sorted keys and indent 2
    is the canonical text, which the writers below give without building it."""
    return {
        "schema_version": STATE_SCHEMA_VERSION,
        "n": state.n,
        "d": state.d,
        "amplitudes": [
            [{"re": float(a.real), "im": float(a.imag)} for a in row]
            for row in state.amplitudes
        ],
    }


# One amplitude of the canonical text: keys sorted, so "im" comes first.
_AMPLITUDE = '      {\n        "im": %s,\n        "re": %s\n      }'


def _canonical_chunks(state: PureBipartiteState):
    """The canonical text in pieces, one per row of amplitudes.

    The bytes are those of json.dumps(state_to_dict(state), sort_keys=True,
    indent=2) + "\n"; the digits come from float.__repr__, as json's own.
    """
    row = "    [\n" + ",\n".join([_AMPLITUDE] * state.d) + "\n    ]"
    amps = state.amplitudes
    pairs = np.stack((amps.imag, amps.real), axis=-1).reshape(state.n, 2 * state.d)
    rows = (row % tuple(map(float.__repr__, values.tolist())) for values in pairs)
    yield '{\n  "amplitudes": [\n' + next(rows)
    for text in rows:
        yield ",\n" + text
    yield (
        f'\n  ],\n  "d": {state.d},\n  "n": {state.n},\n'
        f'  "schema_version": {STATE_SCHEMA_VERSION}\n}}\n'
    )


def serialize_state(state: PureBipartiteState) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return "".join(_canonical_chunks(state))


def write_state_file(state: PureBipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_canonical_chunks(state))


# json.loads gives exactly these types for numbers; bool is not among them.
_REAL = frozenset((int, float))


def _amplitude(entry) -> complex:
    if type(entry) is dict:
        real, imag = entry.get("re"), entry.get("im")
        if type(real) in _REAL and type(imag) in _REAL:
            try:
                return complex(real, imag)
            except OverflowError as exc:  # an integer too large for a float
                raise ParseError(f"bad amplitude entry: {exc}") from exc
    raise ParseError("bad amplitude entry: need an object with real numbers re and im")


def _amplitudes(rows: list, n: int, d: int) -> np.ndarray:
    """The n x d complex matrix of decoded rows, already n lists of d entries.

    The entries are type-checked as a whole and the two float arrays filled
    from the lists of re and im; on any failure, and for an empty matrix,
    the per-entry route raises the first bad entry's error or builds it.
    """
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) == {dict}:
        real = list(map(dict.get, entries, repeat("re")))
        imag = list(map(dict.get, entries, repeat("im")))
        if _REAL.issuperset(map(type, real)) and _REAL.issuperset(map(type, imag)):
            try:  # an integer too large for a float overflows here
                real, imag = np.array((real, imag), dtype=float).reshape(2, n, d)
            except OverflowError:
                pass
            else:
                raw = np.empty((n, d), dtype=complex)
                raw.real, raw.imag = real, imag
                return raw
    return np.array([[_amplitude(c) for c in row] for row in rows], dtype=complex)


def _parse_state_dict(doc: dict, renormalize: bool) -> PureBipartiteState:
    try:
        n, d, rows = doc["n"], doc["d"], doc["amplitudes"]
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    for name, value in (("n", n), ("d", d)):
        if type(value) is not int:
            raise ParseError(f"{name} must be an integer, not {type(value).__name__}")
    _check_size(n * d)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError("amplitudes must be a list of rows, each a list")
    if len(rows) != n or any(len(row) != d for row in rows):
        raise DimensionMismatchError(
            f"amplitudes shape ({len(rows)} x ...) does not match n={n}, d={d}"
        )
    return validate_state(_amplitudes(rows, n, d), renormalize=renormalize)


def _parse_state_csv(text: str, renormalize: bool) -> PureBipartiteState:
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise ParseError("empty CSV state file")
    parsed = []
    width = len(rows[0])
    _check_size(len(rows) * width // 2)
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
    # Each row's re, im pairs are the two float64 halves of a complex128.
    return validate_state(np.array(parsed).view(complex), renormalize=renormalize)


def _check_size(amplitudes: int) -> None:
    if amplitudes > MAX_AMPLITUDES:
        raise TooLargeError(f"state of {amplitudes} amplitudes exceeds {MAX_AMPLITUDES}")


def parse_state_file(path, renormalize: bool = False) -> PureBipartiteState:
    """Read a state from JSON (canonical) or CSV (by .csv suffix)."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        return _parse_state_csv(text, renormalize)
    # JSONDecodeError is a ValueError, as is an integer of over 4300 digits;
    # json.loads raises RecursionError on arrays or objects nested too deep.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object in {p}")
    return _parse_state_dict(doc, renormalize)
