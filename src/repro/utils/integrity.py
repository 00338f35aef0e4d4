"""Payload integrity helpers: CRC32 checksums and deterministic bit flips.

Shared by the resilience layer (which stamps and verifies checksums)
and the fault injector (which corrupts payloads).  Both operate on the
raw byte image of a payload, so the checks are dtype-agnostic and a
single flipped bit anywhere is always detected.

:func:`crc32_combine` / :func:`crc32_concat` derive the CRC of a
concatenation from its parts' CRCs, so a partitioned image whose parts
were already hashed (by the codec cache) need not be hashed again.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Any, Iterable, Optional

import numpy as np

__all__ = ["payload_crc32", "flip_bit", "crc32_combine", "crc32_concat"]

#: reflected CRC-32 polynomial (zlib's)
_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """Product of two polynomials modulo the CRC-32 polynomial (bit-
    reflected, as in zlib's ``multmodp``)."""
    m = 1 << 31
    p = 0
    while True:
        if a & m:
            p ^= b
            if not a & (m - 1):
                return p
        m >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1


@lru_cache(maxsize=256)
def _shift_operator(nbytes: int) -> int:
    """``x^(8 * nbytes) mod p``: the factor that advances a CRC past
    ``nbytes`` zero bytes, by square-and-multiply.  Memoised because
    partition lengths repeat; the LRU bound keeps the table small."""
    p = 1 << 31  # x^0
    square = 1 << 23  # x^8: one byte
    while nbytes:
        if nbytes & 1:
            p = _multmodp(square, p)
        nbytes >>= 1
        if nbytes:
            square = _multmodp(square, square)
    return p


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """CRC-32 of ``A + B`` from ``crc1 = crc32(A)``, ``crc2 = crc32(B)``
    and ``len2 = len(B)`` (zlib's ``crc32_combine``, which Python's
    ``zlib`` module does not expose)."""
    return (_multmodp(_shift_operator(len2), crc1) ^ crc2) & 0xFFFFFFFF


def crc32_concat(parts: Iterable[tuple[Optional[int], int]]) -> Optional[int]:
    """CRC-32 of the concatenated byte images described by ``(crc,
    nbytes)`` pairs, or ``None`` when any part's CRC is unknown."""
    crc = None
    for part_crc, nbytes in parts:
        if part_crc is None:
            return None
        crc = part_crc if crc is None else crc32_combine(crc, part_crc, nbytes)
    return 0 if crc is None else crc


def _raw_bytes(payload: Any) -> bytes:
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload).tobytes()
    return bytes(payload)


def payload_crc32(payload: Any) -> int:
    """CRC32 of a payload's byte image (ndarray or bytes-like)."""
    if isinstance(payload, np.ndarray):
        # zlib consumes the buffer directly; a contiguous uint8 view
        # avoids materializing a bytes copy of the whole payload.
        return zlib.crc32(np.ascontiguousarray(payload).view(np.uint8)) & 0xFFFFFFFF
    return zlib.crc32(bytes(payload)) & 0xFFFFFFFF


def flip_bit(payload: Any, bit_index: int):
    """Return a copy of ``payload`` with one bit flipped.

    ``bit_index`` is taken modulo the payload's bit length; an ndarray
    keeps its dtype and shape so the corrupted copy is indistinguishable
    from the original at the type level (as a wire-level flip would be).
    """
    raw = bytearray(_raw_bytes(payload))
    if not raw:
        return payload
    bit = bit_index % (len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    if isinstance(payload, np.ndarray):
        return np.frombuffer(bytes(raw), dtype=payload.dtype).reshape(payload.shape)
    return bytes(raw)
