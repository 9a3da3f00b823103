"""State-file ingestion and canonical serialization.

JSON is the canonical format. Schema 3, the one written, holds the n d
amplitudes as one string: the base64 (RFC 4648, padded, no line breaks)
of their little-endian complex128 bytes, row-major, so re, im, re, im, ...
as CSV rows hold them. Schema 2 (n rows of those 2 d floats) and schema 1
(one {"re", "im"} object per amplitude) are still read. CSV is accepted
for ingestion only.
"""

from __future__ import annotations

import base64
import csv
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ParseError, TooLargeError
from .states import MAX_AMPLITUDES, PureBipartiteState, validate_state

STATE_SCHEMA_VERSION = 3
_DTYPE = "<c16"  # little-endian complex128: re, then im
# Bytes per written piece. Base64 of whole 3-byte groups has no padding, so
# the pieces' encodings concatenate to the encoding of all the bytes.
_PIECE_BYTES = 3 * 2**16
# Most amplitudes a schema 1 or 2 file may hold: their rows of Python numbers cost
# far more than the amplitudes. A schema 2 file of 2^20 takes 0.80 s and a 125 MiB
# tracemalloc peak to parse (2-core Xeon); 2^24 extrapolates to about 2.7 GB.
MAX_LISTED_AMPLITUDES = 1 << 20


def _amplitude_bytes(state) -> np.ndarray:
    """The amplitudes' little-endian complex128 bytes, row-major, as uint8."""
    return np.ascontiguousarray(state.amplitudes, dtype=_DTYPE).reshape(-1).view(np.uint8)


def state_to_dict(state: PureBipartiteState) -> dict:
    """The state file as a dict; its json.dumps with sorted keys and indent 2
    is the canonical text, which the writers below give without building it."""
    return {
        "schema_version": STATE_SCHEMA_VERSION,
        "n": state.n,
        "d": state.d,
        "amplitudes": base64.b64encode(_amplitude_bytes(state)).decode("ascii"),
    }


def canonical_chunks(state: PureBipartiteState):
    """The canonical text in pieces: the header, the base64 of each
    _PIECE_BYTES of amplitude bytes, and the closing keys.

    The pieces concatenate to json.dumps(state_to_dict(state),
    sort_keys=True, indent=2) + "\n": no base64 character needs escaping.
    """
    raw = _amplitude_bytes(state)
    yield '{\n  "amplitudes": "'
    for start in range(0, raw.size, _PIECE_BYTES):
        yield base64.b64encode(raw[start : start + _PIECE_BYTES]).decode("ascii")
    yield (
        f'",\n  "d": {state.d},\n  "n": {state.n},\n'
        f'  "schema_version": {STATE_SCHEMA_VERSION}\n}}\n'
    )


def serialize_state(state: PureBipartiteState) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return "".join(canonical_chunks(state))


def write_state_file(state: PureBipartiteState, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(canonical_chunks(state))


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


def _interleaved(rows: list) -> np.ndarray:
    """The complex matrix of rows of real numbers re, im, re, im, ...: each
    row's pairs are the two float64 halves of a complex128."""
    try:  # an integer too large for a float overflows here
        return np.array(rows, dtype=float).view(complex)
    except OverflowError as exc:
        raise ParseError(f"bad amplitude entry: {exc}") from exc


def _decoded(text, n: int, d: int) -> np.ndarray:
    """The n x d matrix of a schema 3 amplitudes string, refused before the
    decode if it is not a string or not the length n d amplitudes encode to.

    The string is decoded a piece of whole 4-character groups at a time into
    one buffer, so no ASCII copy of all of it is made."""
    if type(text) is not str:
        raise ParseError("schema 3 amplitudes must be a base64 string")
    size = 16 * n * d
    if n < 1 or d < 1 or len(text) != 4 * -(-size // 3):
        raise DimensionMismatchError(
            f"n={n}, d={d}: schema 3 amplitudes hold 4 ceil(16 n d / 3) base64 characters,"
            f" not {len(text)}"
        )
    out, step = bytearray(size), 4 * _PIECE_BYTES // 3
    for start in range(0, len(text), step):
        try:  # a non-ASCII character is a ValueError, and binascii.Error is one
            raw = base64.b64decode(text[start : start + step], validate=True)
        except ValueError as exc:
            raise ParseError(f"bad base64 amplitudes: {exc}") from exc
        stop = 3 * start // 4 + len(raw)
        # Each piece's own padding may only end the last: every other decodes to _PIECE_BYTES
        if stop != min(size, 3 * start // 4 + _PIECE_BYTES):
            raise ParseError(f"bad base64 amplitudes: padding for {stop} bytes, not {size}")
        out[stop - len(raw) : stop] = raw
    return np.frombuffer(out, _DTYPE).reshape(n, d)


def _parse_state_dict(doc: dict, bound: int) -> np.ndarray:
    """The amplitude matrix of a parsed JSON document of at most bound amplitudes (at
    most MAX_LISTED_AMPLITUDES for schemas 1 and 2); takes its amplitudes out of doc."""
    # type(), not ==: True == 1, and 1.0 == 1.
    version = doc.get("schema_version", 1)
    if type(version) is not int or version not in (1, 2, 3):
        raise ParseError(f"unknown schema_version {version!r}: this reader knows 1, 2 and 3")
    try:  # popped: once decoded, a schema 3 string is held by nothing
        n, d, rows = doc["n"], doc["d"], doc.pop("amplitudes")
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    for name, value in (("n", n), ("d", d)):
        if type(value) is not int:
            raise ParseError(f"{name} must be an integer, not {type(value).__name__}")
    _check_size(n * d, bound if version == 3 else min(bound, MAX_LISTED_AMPLITUDES))
    if version == 3:
        return _decoded(rows, n, d)
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ParseError("amplitudes must be a list of rows, each a list")
    width = d if version == 1 else 2 * d
    if len(rows) != n or any(len(row) != width for row in rows):
        raise DimensionMismatchError(
            f"amplitudes shape ({len(rows)} x ...) does not match n={n}, d={d}"
            + ("" if version == 1 else f": schema 2 rows hold 2 d = {width} floats")
        )
    if version == 1:
        return np.array([[_amplitude(c) for c in row] for row in rows], dtype=complex)
    if not _REAL.issuperset(map(type, chain.from_iterable(rows))):
        raise ParseError("bad amplitude entry: schema 2 rows hold only real numbers")
    return _interleaved(rows)


def _parse_state_csv(text: str, bound: int) -> np.ndarray:
    rows = [row for row in csv.reader(text.splitlines()) if row]
    if not rows:
        raise ParseError("empty CSV state file")
    parsed = []
    width = len(rows[0])
    _check_size(len(rows) * width // 2, bound)
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
    return _interleaved(parsed)


def _check_size(amplitudes: int, bound: int) -> None:
    if amplitudes > bound:
        raise TooLargeError(f"state of {amplitudes} amplitudes exceeds {bound}")


def parse_state_file(
    path, renormalize: bool = False, max_amplitudes: int | None = None
) -> PureBipartiteState:
    """Read a state from JSON (schema 3, 2 or 1) or CSV (by .csv suffix).

    A state of over max_amplitudes amplitudes (MAX_AMPLITUDES if None) is refused
    with TooLargeError as soon as n and d are known, before any amplitude is
    converted; the JSON text is parsed first."""
    bound = MAX_AMPLITUDES if max_amplitudes is None else max_amplitudes
    p = Path(path)
    try:
        text = p.read_bytes().decode("utf-8")  # a text-mode reader costs 5 of 17 us at 22 KB
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    if p.suffix.lower() == ".csv":
        return validate_state(_parse_state_csv(text, bound), renormalize=renormalize)
    # JSONDecodeError is a ValueError, as is an integer of over 4300 digits;
    # json.loads raises RecursionError on arrays or objects nested too deep.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {p}: {exc}") from exc
    del text  # not held while the amplitudes become an array: 20 -> 15 MiB peak at 512 x 512
    if not isinstance(doc, dict):
        raise ParseError(f"expected a JSON object in {p}")
    # The amplitudes string is freed when _parse_state_dict returns, before validation
    return validate_state(_parse_state_dict(doc, bound), renormalize=renormalize)
