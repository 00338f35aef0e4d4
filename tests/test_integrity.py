"""CRC-32 helpers and the hash-each-byte-image-once rule."""

import os
import sys
import zlib
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compression.cache as cache_mod
import repro.utils.integrity as integrity
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core import CompressionConfig
from repro.core.tuning import partitions_for_message
from repro.mpi.cluster import Cluster
from repro.utils.integrity import crc32_combine, crc32_concat
from repro.utils.units import MiB


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=600), st.binary(max_size=600))
def test_crc32_combine_matches_concatenation(a, b):
    assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)


def test_crc32_combine_empty_and_large_parts():
    big = os.urandom((1 << 20) + 13)
    for a, b in ((b"", b""), (b"", b"xyz"), (b"xyz", b""), (b"head", big),
                 (big, b"tail")):
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) \
            == zlib.crc32(a + b)


def test_crc32_combine_memo_stays_bounded():
    memo = integrity._shift_operator
    limit = memo.cache_info().maxsize
    rng = np.random.default_rng(0)
    for n in range(1, 3 * limit):
        a, b = rng.bytes(3), rng.bytes(n)
        # lengths past the memo's capacity evict older operators and
        # must still combine correctly
        assert crc32_combine(zlib.crc32(a), zlib.crc32(b), n) == zlib.crc32(a + b)
    assert memo.cache_info().currsize <= limit


def test_crc32_concat_folds_parts():
    chunks = [b"alpha", b"", b"beta" * 100, b"g"]
    parts = [(zlib.crc32(c), len(c)) for c in chunks]
    assert crc32_concat(parts) == zlib.crc32(b"".join(chunks))
    assert crc32_concat([]) == zlib.crc32(b"")
    assert crc32_concat(parts[:2] + [(None, 4)]) is None


# -- hashed bytes of a warm pt2pt ping-pong ----------------------------------

class _CountingZlib:
    """Stands in for ``zlib`` in one module: counts the bytes each
    calling function hands to ``crc32``."""

    def __init__(self, counts: Counter, module: str):
        self._counts, self._module = counts, module

    def __getattr__(self, name):
        return getattr(zlib, name)

    def crc32(self, data, value=0):
        site = sys._getframe(1).f_code.co_name
        self._counts[(self._module, site)] += memoryview(data).nbytes
        return zlib.crc32(data, value)


def _pingpong(comm, data, iterations):
    peer = 1 - comm.rank
    for _ in range(iterations):
        if comm.rank == 0:
            yield from comm.send(data, peer, tag=1)
            yield from comm.recv(peer, tag=2)
        else:
            msg = yield from comm.recv(peer, tag=1)
            yield from comm.send(msg, peer, tag=2)


def test_warm_pingpong_hashes_each_source_once(monkeypatch):
    """Over a warm-cache 2-rank MPC-OPT 4 MiB ping-pong, the receiver's
    integrity check hashes no decoded bytes and the sender hashes each
    source buffer exactly once (as the cache's lookup fingerprint)."""
    nbytes, iterations = 4 * MiB, 3
    assert partitions_for_message(nbytes) == 4
    data = np.cumsum(np.random.default_rng(1).standard_normal(nbytes // 4)) \
        .astype(np.float32)
    cluster = Cluster("longhorn", nodes=2, gpus_per_node=1)
    config = CompressionConfig.mpc_opt()
    GLOBAL_CODEC_CACHE.clear()
    cluster.run(_pingpong, config=config, args=(data, iterations))  # warm-up

    counts: Counter = Counter()
    monkeypatch.setattr(cache_mod, "zlib", _CountingZlib(counts, "cache"))
    monkeypatch.setattr(integrity, "zlib", _CountingZlib(counts, "integrity"))
    cluster.run(_pingpong, config=config, args=(data, iterations))
    sends = 2 * iterations
    integrity_bytes = sum(n for (mod, _), n in counts.items()
                          if mod == "integrity")
    assert integrity_bytes == 0, counts
    assert counts[("cache", "compress")] == sends * nbytes, counts
    # decode lookups fingerprint the (smaller) compressed wire bytes
    # only; hashing a decoded image too would reach sends * nbytes
    assert 0 < counts[("cache", "decompress")] < sends * nbytes, counts
    assert set(counts) == {("cache", "compress"), ("cache", "decompress")}
