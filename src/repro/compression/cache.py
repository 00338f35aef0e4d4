"""Content-addressed memoization of codec results.

Collectives forward the *same* payload along many hops (a 16-rank
binomial bcast compresses one buffer 15 times), and benchmark sweeps
re-send identical buffers.  The simulator charges the modelled kernel
time for every (de)compression regardless; this cache only removes the
*redundant host-side numpy work*, so it changes wall-clock speed of
the simulation, never its results.

Lookups are keyed by a CRC-32 fingerprint of the raw bytes plus the
codec identity, then confirmed by an exact byte comparison against a
reference copy stored with the entry, so a fingerprint collision can
only ever cause a spurious miss — never a wrong result.  Entries are
LRU-bounded by total byte size (reference copies included).

CRC-32 is not free: zlib 1.2.13 computes it from tables, without
CLMUL (about 1.9 GB/s on 1 MiB on a 2-vCPU Xeon VM), and around the
codecs it is the largest host cost of a send.  Every byte image is therefore hashed once per
process, and the hashes are handed on rather than recomputed:

* ``compress`` records its lookup fingerprint — the CRC of the source
  bytes — on the result as ``meta["src_crc32"]``;
* ``decompress`` hashes a decoded image once, when it stores it, and
  records that CRC on the ``CompressedData`` it was given as
  ``meta["out_crc32"]`` (on hits and misses alike).

The integrity stamps and checks (:class:`repro.core.engine.
CompressionEngine`, :mod:`repro.mpi.comm`) read these instead of
re-hashing the same bytes, folding per-partition CRCs together with
:func:`repro.utils.integrity.crc32_concat`.  That is sound only while
the stored image cannot change, so stored decode results are private
and read-only; ``decompress`` returns a fresh, writeable copy whose
bytes are exactly the hashed ones (callers may mutate received
arrays).  Fault-wrapped ``cache_unsafe`` codecs bypass the cache and
record no CRC, so their output is always hashed fresh and a silently
corrupted decode is still caught.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict

import numpy as np

from repro.compression.base import CompressedData, Compressor

__all__ = ["CodecCache", "GLOBAL_CODEC_CACHE"]


def _raw_view(payload: np.ndarray) -> np.ndarray:
    """Flat contiguous uint8 view of an array's byte image (no copy
    when the input is already contiguous)."""
    return np.ascontiguousarray(payload).view(np.uint8).reshape(-1)


class CodecCache:
    """LRU cache over compress/decompress results."""

    def __init__(self, max_bytes: int = 512 << 20):
        self.max_bytes = max_bytes
        # key -> (value, entry_bytes, reference_byte_image)
        self._store: OrderedDict[tuple, tuple] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.bytes_saved = 0

    def _key(self, op: str, codec: Compressor, params: tuple, crc: int,
             nbytes: int) -> tuple:
        return (op, codec.name, params, crc, nbytes)

    def _put(self, key: tuple, value, nbytes: int, ref: np.ndarray) -> None:
        prev = self._store.pop(key, None)
        if prev is not None:
            self._bytes -= prev[1]
        self._store[key] = (value, nbytes, ref)
        self._bytes += nbytes
        while self._bytes > self.max_bytes and self._store:
            _, (_, freed, _) = self._store.popitem(last=False)
            self._bytes -= freed

    def _get(self, key: tuple, raw: np.ndarray):
        hit = self._store.get(key)
        if hit is None or not np.array_equal(hit[2], raw):
            # A mismatched byte image under a matching fingerprint is a
            # CRC collision: treat as a miss (the put will replace it).
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        self.bytes_saved += raw.nbytes
        return hit[0]

    @staticmethod
    def _codec_params(codec: Compressor) -> tuple:
        """Every parameter of ``codec`` (its public instance attributes:
        MPC's dimensionality, ZFP's rate, SZ's error bound, ...)."""
        return tuple(sorted((k, v) for k, v in vars(codec).items()
                            if not k.startswith("_")))

    def compress(self, codec: Compressor, data: np.ndarray) -> CompressedData:
        """Memoized ``codec.compress(data)``."""
        if getattr(codec, "cache_unsafe", False):
            # Fault-wrapped codecs are intentionally non-deterministic
            # per call; memoizing them would both skip injected faults
            # and poison the cache for clean codecs of the same name.
            return codec.compress(data)
        raw = _raw_view(data)
        crc = zlib.crc32(raw)
        key = self._key("c", codec,
                        self._codec_params(codec) + (data.dtype.char,), crc,
                        raw.nbytes)
        cached = self._get(key, raw)
        if cached is not None:
            return cached
        comp = codec.compress(data)
        # The fingerprint doubles as the integrity checksum of the
        # source bytes, so the send path can reuse it instead of
        # re-hashing the same buffer (see CompressionEngine._plan_crc).
        comp.meta.setdefault("src_crc32", crc & 0xFFFFFFFF)
        # The reference must be a snapshot: the caller may mutate its
        # buffer in place and re-send, and a stale alias would then
        # confirm a hit against bytes the stored result was not
        # computed from.
        self._put(key, comp, comp.nbytes + raw.nbytes + 64, raw.copy())
        return comp

    def decompress(self, codec: Compressor, comp: CompressedData) -> np.ndarray:
        """Memoized ``codec.decompress(comp)``: returns a fresh copy and
        sets ``comp.meta["out_crc32"]`` to that copy's CRC-32."""
        if getattr(codec, "cache_unsafe", False):
            comp.meta.pop("out_crc32", None)
            return codec.decompress(comp)
        raw = _raw_view(comp.payload)
        key = self._key(
            "d", codec,
            self._codec_params(codec) + (comp.n_elements, comp.dtype.char),
            zlib.crc32(raw), raw.nbytes,
        )
        cached = self._get(key, raw)
        if cached is None:
            out = codec.decompress(comp)
            out.setflags(write=False)
            cached = (out, zlib.crc32(_raw_view(out)) & 0xFFFFFFFF)
            self._put(key, cached, out.nbytes + raw.nbytes + 64, raw.copy())
        out, comp.meta["out_crc32"] = cached
        return out.copy()

    def stats(self) -> dict:
        """Counter snapshot: cache effectiveness for profiling reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bytes_saved": self.bytes_saved,
            "entries": len(self._store),
            "bytes": self._bytes,
        }

    def clear(self) -> None:
        self._store.clear()
        self._bytes = 0
        self.hits = self.misses = self.bytes_saved = 0


#: process-wide cache shared by every CompressionEngine
GLOBAL_CODEC_CACHE = CodecCache()
