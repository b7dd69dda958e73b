"""Deterministic on-disk formats: a flat binary array container with a JSON
shape manifest, and CSV writers with round-trip float formatting.

The container is a single file: magic, header length, UTF-8 JSON header
(sorted keys), then the raw little-endian array payloads back to back.
Writing the same arrays and metadata twice produces byte-identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

__all__ = ["save_arrays", "load_arrays", "write_csv", "dump_json"]

_MAGIC = b"GPCNBIN1"


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named float64/int64 arrays plus a JSON metadata block."""
    entries = []
    payload = bytearray()
    for name in arrays:
        a = np.ascontiguousarray(arrays[name])
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
    data = fh.read(size)
    if len(data) != size:
        raise ValueError(f"{path}: truncated gpcn binary container")
    return data


def load_arrays(path):
    """Read a container written by :func:`save_arrays`; returns (arrays, meta).

    A damaged or truncated file raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a gpcn binary container")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, path))
        header = json.loads(_read_exact(fh, hlen, path).decode("utf-8"))
        payload = fh.read()
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
