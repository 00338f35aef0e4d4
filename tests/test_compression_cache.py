"""Codec memoization cache."""

import zlib

import numpy as np
import pytest

from repro.compression import MpcCompressor, ZfpCompressor, get_compressor
from repro.compression.cache import CodecCache


def test_compress_hit_on_equal_bytes(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    a = rng.standard_normal(1000).astype(np.float32)
    b = a.copy()  # different object, same bytes
    c1 = cache.compress(codec, a)
    c2 = cache.compress(codec, b)
    assert cache.hits == 1 and cache.misses == 1
    assert c1 is c2


def test_different_params_miss(rng):
    cache = CodecCache()
    a = rng.standard_normal(1000).astype(np.float32)
    cache.compress(MpcCompressor(1), a)
    cache.compress(MpcCompressor(2), a)
    assert cache.misses == 2


def test_sz_error_bound_keys_the_cache(rng):
    cache = CodecCache()
    x = rng.standard_normal(1000)
    fine, coarse = get_compressor("sz", error_bound=1e-3), \
        get_compressor("sz", error_bound=0.1)
    fine_comp = cache.compress(fine, x)
    coarse_comp = cache.compress(coarse, x)
    assert cache.misses == 2 and cache.hits == 0
    assert coarse_comp.payload.tobytes() == coarse.compress(x).payload.tobytes()
    assert coarse_comp.nbytes < fine_comp.nbytes
    # decoding the same bytes under another bound is another entry too
    cache.decompress(fine, fine_comp)
    out = cache.decompress(coarse, fine_comp)
    assert cache.misses == 4
    assert np.array_equal(out, coarse.decompress(fine_comp))


def test_different_codec_miss(rng):
    cache = CodecCache()
    a = rng.standard_normal(1000).astype(np.float32)
    cache.compress(MpcCompressor(1), a)
    cache.compress(ZfpCompressor(16), a)
    assert cache.misses == 2


def test_decompress_returns_fresh_copy(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    a = rng.standard_normal(1000).astype(np.float32)
    comp = codec.compress(a)
    d1 = cache.decompress(codec, comp)
    d2 = cache.decompress(codec, comp)
    assert cache.hits == 1
    assert np.array_equal(d1, d2)
    d1[0] = 999.0  # mutating one must not poison the other
    d3 = cache.decompress(codec, comp)
    assert d3[0] != 999.0


def test_lru_eviction(rng):
    cache = CodecCache(max_bytes=10_000)
    codec = MpcCompressor(1)
    arrays = [rng.standard_normal(2000).astype(np.float32) for _ in range(8)]
    for a in arrays:
        cache.compress(codec, a)
    cache.compress(codec, arrays[0])  # early entry was evicted
    assert cache.misses == 9
    assert cache._bytes <= 10_000


def test_clear(rng):
    cache = CodecCache()
    cache.compress(MpcCompressor(1), rng.standard_normal(100).astype(np.float32))
    cache.clear()
    assert cache.hits == cache.misses == 0
    assert len(cache._store) == 0


def test_cache_correctness_under_mpc_roundtrip(rng):
    cache = CodecCache()
    codec = MpcCompressor(2)
    x = np.cumsum(rng.standard_normal(5000)).astype(np.float32)
    comp = cache.compress(codec, x)
    y = cache.decompress(codec, comp)
    assert np.array_equal(x.view(np.uint32), y.view(np.uint32))


def test_decompress_records_crc_of_returned_copy_on_miss_and_hit(rng):
    cache = CodecCache()
    codec = ZfpCompressor(16)
    comp = codec.compress(rng.standard_normal(1000).astype(np.float32))
    miss = cache.decompress(codec, comp)
    assert comp.meta["out_crc32"] == zlib.crc32(miss)
    # a fresh container for the same bytes (as a receiver builds one)
    again = type(comp)(comp.algorithm, comp.payload.copy(), comp.n_elements,
                       comp.dtype, dict(comp.params))
    hit = cache.decompress(codec, again)
    assert cache.hits == 1
    assert again.meta["out_crc32"] == zlib.crc32(hit) == comp.meta["out_crc32"]


def test_mutating_returned_copy_leaves_entry_intact(rng):
    cache = CodecCache()
    codec = MpcCompressor(1)
    a = rng.standard_normal(1000).astype(np.float32)
    comp = codec.compress(a)
    out = cache.decompress(codec, comp)
    assert out.flags.writeable
    out[:] = 0.0
    (stored, crc), = [entry[0] for entry in cache._store.values()]
    assert not stored.flags.writeable
    assert np.array_equal(stored, a) and crc == zlib.crc32(a)
    assert np.array_equal(cache.decompress(codec, comp), a)


def test_cache_unsafe_codec_records_no_crc(rng):
    class Flaky(MpcCompressor):
        cache_unsafe = True

    cache = CodecCache()
    codec = Flaky(1)
    comp = codec.compress(rng.standard_normal(1000).astype(np.float32))
    comp.meta["out_crc32"] = 123  # stale value from elsewhere
    cache.decompress(codec, comp)
    assert "out_crc32" not in comp.meta
    assert cache.hits == cache.misses == 0
