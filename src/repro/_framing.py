"""The CRC-32 record framing of WAL segments and blackbox dumps.

A framed file is a flat run of records, each

``magic (2B) | length (4B LE) | crc32 (4B LE) | payload``

written by plain appends, so a crash can tear the last record.
:func:`parse_frames` returns the payloads up to the first record that
is cut short or fails its magic or CRC check; each format keeps its
own magic, decodes its own payloads and raises its own errors.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

#: Bytes of framing before each payload: magic + length + CRC-32.
HEADER_BYTES = 10

_LENGTH_CRC = struct.Struct("<II")


def frame(magic: bytes, payload: bytes) -> bytes:
    """One framed record holding ``payload``."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return magic + _LENGTH_CRC.pack(len(payload), crc) + payload


def parse_frames(magic: bytes, data: bytes) -> Tuple[List[bytes], int, bool]:
    """Split ``data`` into the payloads of its intact records.

    Parsing stops at the first short header, wrong magic, short
    payload or CRC mismatch.  Returns ``(payloads, good_bytes, torn)``:
    ``good_bytes`` is the offset just past the last intact record, and
    ``torn`` reports whether any bytes follow it.
    """
    payloads: List[bytes] = []
    offset = 0
    size = len(data)
    while offset < size:
        start = offset + HEADER_BYTES
        if start > size or data[offset:offset + 2] != magic:
            return payloads, offset, True
        length, crc = _LENGTH_CRC.unpack_from(data, offset + 2)
        end = start + length
        payload = data[start:end]
        if end > size or zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return payloads, offset, True
        payloads.append(payload)
        offset = end
    return payloads, offset, False
