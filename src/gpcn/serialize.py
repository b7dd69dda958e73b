"""Deterministic on-disk formats: a flat binary array container with a JSON
shape manifest, CSV writers with round-trip float formatting, and the one
type check every config value and config dataclass field passes.

The container is a single file: magic, header length, UTF-8 JSON header
(sorted keys), then the raw little-endian array payloads back to back.
Writing the same arrays and metadata twice produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct

import numpy as np

__all__ = ["check_value", "check_fields", "save_arrays", "load_arrays", "write_csv", "dump_json"]

_MAGIC = b"GPCNBIN1"


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, (float, np.floating)) and math.isfinite(v))


# kind (a dataclass field annotation) -> (type test, what the message asks for);
# nothing is coerced: 4.0 is not an integer, "5" and true are not numbers
_KINDS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "float | None": (lambda v: v is None or _is_number(v), "a finite number or null"),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a JSON object"),
    "list": (lambda v: isinstance(v, list), "a list"),
}


def check_value(kind: str, value, where: str):
    """``value`` unchanged if it is of ``kind`` (a key of ``_KINDS``), else
    ValueError naming ``where``."""
    test, wanted = _KINDS[kind]
    if not test(value):
        raise ValueError(f"{where} must be {wanted}, got {value!r}")
    return value


def check_fields(obj) -> None:
    """Check every field of a dataclass instance against its annotation."""
    for f in dataclasses.fields(obj):
        check_value(f.type, getattr(obj, f.name), f.name)


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named float64/int64 arrays plus a JSON metadata block."""
    entries = []
    payload = bytearray()
    for name in arrays:
        a = np.asarray(arrays[name])  # keeps a 0-d shape; tobytes() below is C order
        if a.dtype not in (np.dtype(np.float64), np.dtype(np.int64)):
            a = a.astype(np.float64)
        entries.append(
            {
                "name": name,
                "dtype": str(a.dtype),
                "shape": list(a.shape),
                "offset": len(payload),
                "nbytes": a.nbytes,
            }
        )
        payload.extend(a.tobytes())
    header = json.dumps(
        {"meta": meta or {}, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def _read_exact(fh, size: int, path) -> bytes:
    """The next ``size`` bytes, checked against the file's length before reading."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated gpcn binary container")
    return fh.read(size)


def _entry_ok(e) -> bool:
    """A manifest entry as :func:`save_arrays` writes it (both dtypes are 8 bytes)."""
    return (isinstance(e, dict) and isinstance(e.get("name"), str)
            and e.get("dtype") in ("float64", "int64") and isinstance(e.get("shape"), list)
            and all(_is_int(v) and v >= 0 for v in [e.get("offset"), e.get("nbytes"), *e["shape"]])
            and e["nbytes"] == 8 * math.prod(e["shape"]))


def load_arrays(path):
    """Read a container written by :func:`save_arrays`; returns (arrays, meta).

    A damaged or truncated file, or a malformed header, raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a gpcn binary container")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, path))
        header = json.loads(_read_exact(fh, hlen, path).decode("utf-8"))
        payload = fh.read()
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("arrays"), list) and all(map(_entry_ok, header["arrays"]))):
        raise ValueError(f"{path}: malformed gpcn binary container header")
    arrays = {}
    for entry in header["arrays"]:
        if entry["offset"] + entry["nbytes"] > len(payload):
            raise ValueError(f"{path}: truncated gpcn binary container")
        raw = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        arrays[entry["name"]] = np.frombuffer(raw, dtype=entry["dtype"]).reshape(
            entry["shape"]
        ).copy()
    return arrays, header["meta"]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Plain CSV with shortest round-trip float formatting (deterministic)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def dump_json(path, obj) -> None:
    """Deterministic JSON dump (sorted keys, fixed separators)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
