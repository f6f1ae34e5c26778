"""Frame files.

A frame is stored as one JSON object:

    {
      "dim": 2,
      "field": "real",
      "vectors": [[[1.0, 0.0], [0.0, 0.0]], ...]
    }

Each vector is a list of dim [re, im] pairs. A "real"-tagged file must
have every im exactly 0.0; anything else is a format error. Floats are
written with repr precision, so a write/read round trip reproduces the
array bit for bit.
"""

import cmath
import json
from typing import Any

import numpy as np

from .errors import FrameFormatError
from .frames import _FIELDS, Frame


def json_complex(entry: Any) -> complex | None:
    """An [re, im] pair of JSON numbers as a complex, or None if `entry` is
    not one. Frame files and vector files read their numbers here: a bool
    is not a number, and an integer too large for a float reads as
    infinite, like the literal 1e400."""
    if not isinstance(entry, list) or len(entry) != 2:
        return None
    parts = []
    for x in entry:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            return None
        try:
            parts.append(float(x))
        except OverflowError:
            parts.append(float("inf") if x > 0 else float("-inf"))
    return complex(*parts)


def json_pairs(a: np.ndarray) -> list:
    """A complex array as nested lists with an [re, im] pair of floats in
    place of each entry, the inverse of json_complex entry by entry."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def frame_to_document(frame: Frame) -> dict[str, Any]:
    return {"dim": frame.dim, "field": frame.field, "vectors": json_pairs(frame.vectors)}


def frame_from_document(doc: Any) -> Frame:
    if not isinstance(doc, dict):
        raise FrameFormatError("frame document must be a JSON object")
    missing = {"dim", "field", "vectors"} - set(doc)
    if missing:
        raise FrameFormatError(f"missing keys: {sorted(missing)}")
    dim = doc["dim"]
    field = doc["field"]
    vectors = doc["vectors"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FrameFormatError(f"dim must be a positive integer, got {dim!r}")
    if field not in _FIELDS:
        raise FrameFormatError(f"field must be one of {_FIELDS}, got {field!r}")
    if not isinstance(vectors, list) or not vectors:
        raise FrameFormatError("vectors must be a non-empty list")
    rows = []
    for i, vec in enumerate(vectors):
        if not isinstance(vec, list) or len(vec) != dim:
            raise FrameFormatError(f"vector {i} must be a list of {dim} entries")
        row = []
        for j, entry in enumerate(vec):
            z = json_complex(entry)
            if z is None:
                raise FrameFormatError(
                    f"vector {i} entry {j} must be a [re, im] pair of numbers"
                )
            if not cmath.isfinite(z):
                raise FrameFormatError(f"vector {i} entry {j} is not finite")
            if field == "real" and z.imag != 0.0:
                raise FrameFormatError(
                    f"field is 'real' but vector {i} entry {j} has im = {z.imag!r}"
                )
            row.append(z)
        rows.append(row)
    return Frame(dim, rows, field)


def write_frame(frame: Frame, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(frame_to_document(frame), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_frame(path: str) -> Frame:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise FrameFormatError(f"invalid JSON: {exc}") from exc
    return frame_from_document(doc)
