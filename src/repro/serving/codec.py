"""The one binary encoding of a block of rows in ``repro.serving``.

A block is ``u32 header_len | json {rows, dim, ts} | raw float64`` —
network-order length prefix, UTF-8 JSON header, then ``rows * dim``
little-endian IEEE-754 doubles in C order (NaN gaps and ±inf travel as
their bit patterns).  Two carriers share it:

* the body of every :class:`~.durability.WriteAheadLog` record (behind
  the record head that adds magic, sequence number and CRC32), and
* the ``application/octet-stream`` request body of the ingest and query
  POST routes (:mod:`repro.serving.http`), which skips the JSON float
  lists' print-and-parse on both ends.

:func:`decode_block` trusts nothing it reads: every length is checked
against the bytes actually present before anything is allocated.
"""

from __future__ import annotations

import json
import struct

import numpy as np

__all__ = ["BlockCodecError", "decode_block", "encode_block"]

_HEADER_LEN = struct.Struct("!I")
_FLOAT64 = np.dtype("<f8")

#: Upper bound on the JSON header.  Encoders write about 50 bytes; a
#: length prefix read from outside must not hand megabytes to the JSON
#: parser.
MAX_HEADER_BYTES = 1024


class BlockCodecError(ValueError):
    """Bytes that are not a well-formed block (or rows that cannot be
    encoded as one)."""


def encode_block(block, ts: float = 0.0) -> bytes:
    """``(k, d)`` rows — or one ``(d,)`` row — as a block body."""
    try:
        arr = np.asarray(block, dtype=_FLOAT64)
    except (TypeError, ValueError) as exc:
        raise BlockCodecError(f"rows are not numeric: {exc}") from exc
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise BlockCodecError(f"expected (k, d) rows, got shape {arr.shape}")
    header = json.dumps(
        {"rows": int(arr.shape[0]), "dim": int(arr.shape[1]),
         "ts": float(ts)},
        separators=(",", ":"),
    ).encode()
    return _HEADER_LEN.pack(len(header)) + header + arr.tobytes()


def decode_block(body: bytes) -> tuple[np.ndarray, float]:
    """Body bytes -> ``(block, ts)``; :class:`BlockCodecError` on any
    malformed input.  The returned block is a fresh, writable, aligned
    ``float64`` array."""
    try:
        (header_len,) = _HEADER_LEN.unpack_from(body, 0)
        start = _HEADER_LEN.size + header_len
        if header_len > MAX_HEADER_BYTES or start > len(body):
            raise BlockCodecError(
                f"header length {header_len} exceeds the body or "
                f"{MAX_HEADER_BYTES}"
            )
        header = json.loads(body[_HEADER_LEN.size:start].decode())
        rows, dim = header["rows"], header["dim"]
        if (type(rows) is not int or type(dim) is not int
                or rows < 0 or dim <= 0):
            raise BlockCodecError(f"bad shape ({rows!r}, {dim!r})")
        # Python ints do not overflow: a forged rows*dim is simply a
        # number the payload length cannot equal, caught before the
        # product ever sizes an allocation.
        if len(body) - start != rows * dim * _FLOAT64.itemsize:
            raise BlockCodecError(
                f"payload of {len(body) - start} bytes does not match "
                f"({rows}, {dim}) float64"
            )
        ts = float(header.get("ts", 0.0))
        block = np.frombuffer(
            body, dtype=_FLOAT64, count=rows * dim, offset=start
        ).reshape(rows, dim).astype(np.float64)
        return block, ts
    except BlockCodecError:
        raise
    except (struct.error, ValueError, KeyError, TypeError,
            OverflowError, RecursionError) as exc:
        raise BlockCodecError(f"malformed block: {exc!r}") from exc
