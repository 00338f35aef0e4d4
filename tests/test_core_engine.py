"""Unit tests for the compression engine pipelines."""

import numpy as np
import pytest

from repro.core import CompressionConfig, CompressionEngine
from repro.faults import FaultPlan
from repro.gpu.device import Device
from repro.gpu.spec import V100
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload
from repro.sim import Simulator, Tracer
from repro.utils.units import KiB, MiB, us

from tests.conftest import smooth_f32


def make_engine(config):
    sim = Simulator()
    Tracer(sim)
    dev = Device(sim, V100, 0)
    return sim, dev, CompressionEngine(sim, dev, config)


def run_send(engine, data):
    return engine.sim.run_process(engine.sender_prepare(data))


def full_roundtrip(config, data):
    """sender_prepare -> receiver_prepare -> receiver_complete."""
    sim, dev, eng_s = make_engine(config)
    eng_r = CompressionEngine(sim, dev, config)

    def proc():
        plan = yield from eng_s.sender_prepare(data)
        res = yield from eng_r.receiver_prepare(plan.header)
        out, _ = yield from eng_r.receiver_complete(plan.header, plan.payload, res)
        yield from eng_s.sender_release(plan)
        return plan, out

    plan, out = sim.run_process(proc())
    return sim, plan, out


# -- compressibility gate -------------------------------------------------------

def test_below_threshold_not_compressed():
    cfg = CompressionConfig.mpc_opt(threshold=1 * MiB)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(1000)  # 4 KB
    plan = run_send(eng, data)
    assert not plan.compressed
    assert plan.wire_nbytes == data.nbytes


def test_above_threshold_compressed():
    cfg = CompressionConfig.mpc_opt(threshold=64 * KiB)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(100_000)
    plan = run_send(eng, data)
    assert plan.compressed
    assert plan.wire_nbytes < data.nbytes


def test_disabled_never_compresses():
    cfg = CompressionConfig.disabled()
    sim, dev, eng = make_engine(cfg)
    plan = run_send(eng, smooth_f32(1_000_000))
    assert not plan.compressed


def test_unsupported_dtype_passthrough():
    cfg = CompressionConfig.mpc_opt(threshold=0)
    sim, dev, eng = make_engine(cfg)
    data = np.arange(100_000, dtype=np.int64)
    plan = run_send(eng, data)
    assert not plan.compressed


def test_incompressible_falls_back_to_raw(rng):
    """Random data expands under MPC; the engine must ship it raw."""
    cfg = CompressionConfig.mpc_opt(threshold=64 * KiB)
    sim, dev, eng = make_engine(cfg)
    data = rng.integers(0, 1 << 32, 100_000, dtype=np.uint64).astype(np.uint32).view(np.float32)
    plan = run_send(eng, data)
    assert not plan.compressed
    assert plan.wire_nbytes == data.nbytes


# -- MPC roundtrips -------------------------------------------------------------

@pytest.mark.parametrize("partitions", [1, 2, 4, 8])
def test_mpc_roundtrip_partitions(partitions):
    cfg = CompressionConfig.mpc_opt(threshold=0, partitions=partitions)
    data = smooth_f32(200_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.header.n_partitions == partitions
    assert np.array_equal(out.view(np.uint32), data.view(np.uint32))


def test_mpc_auto_partitions_follow_schedule():
    cfg = CompressionConfig.mpc_opt(threshold=0, partitions=0)
    data = smooth_f32((2 * MiB) // 4)  # 2 MiB -> 4 partitions
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.header.n_partitions == 4


def test_mpc_dimensionality_in_header():
    cfg = CompressionConfig.mpc_opt(threshold=0).with_(mpc_dimensionality=3)
    data = smooth_f32(100_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.header.param == 3
    assert np.array_equal(out, data)


def test_naive_mpc_roundtrip():
    cfg = CompressionConfig.naive_mpc(threshold=0)
    data = smooth_f32(100_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert np.array_equal(out, data)


# -- ZFP roundtrips --------------------------------------------------------------

@pytest.mark.parametrize("rate", [4, 8, 16])
def test_zfp_roundtrip(rate):
    cfg = CompressionConfig.zfp_opt(rate=rate, threshold=0)
    data = smooth_f32(100_000)
    sim, plan, out = full_roundtrip(cfg, data)
    assert plan.compressed
    assert plan.wire_nbytes == pytest.approx(data.nbytes * rate / 32, rel=0.01)
    from repro.compression import ZfpCompressor

    assert np.abs(out - data).max() <= ZfpCompressor(rate).max_abs_error_bound(data)


def test_zfp_float64_roundtrip():
    cfg = CompressionConfig.zfp_opt(rate=16, threshold=0)
    data = np.sin(np.linspace(0, 10, 50_000))
    sim, plan, out = full_roundtrip(cfg, data)
    assert out.dtype == np.float64
    assert np.abs(out - data).max() < 1e-2


# -- cost accounting ---------------------------------------------------------------

def test_naive_mpc_pays_cudamalloc():
    data = smooth_f32(100_000)
    _, _, eng_naive = make_engine(CompressionConfig.naive_mpc(threshold=0))
    plan = run_send(eng_naive, data)
    t_naive = eng_naive.sim.now
    malloc_time = eng_naive.sim.tracer.total("malloc")
    assert malloc_time > us(150)  # comp buffer + d_off


def test_opt_mpc_avoids_cudamalloc():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0))
    run_send(eng, data)
    assert eng.sim.tracer.total("malloc") == 0.0


def test_opt_faster_than_naive():
    data = smooth_f32(500_000)
    _, _, naive = make_engine(CompressionConfig.naive_mpc(threshold=0))
    run_send(naive, data)
    t_naive = naive.sim.now
    _, _, opt = make_engine(CompressionConfig.mpc_opt(threshold=0))
    run_send(opt, data)
    assert opt.sim.now < t_naive / 2  # paper: up to 4x


def test_gdrcopy_vs_memcpy_for_size():
    data = smooth_f32(100_000)
    _, _, naive = make_engine(CompressionConfig.naive_mpc(threshold=0))
    run_send(naive, data)
    naive_copies = naive.sim.tracer.total("data_copy")
    _, _, opt = make_engine(CompressionConfig.mpc_opt(threshold=0))
    run_send(opt, data)
    opt_copies = opt.sim.tracer.total("data_copy")
    assert naive_copies >= us(19)
    assert opt_copies < us(5)


def test_naive_zfp_pays_device_props():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.naive_zfp(threshold=0))
    run_send(eng, data)
    assert eng.sim.tracer.total("get_max_grid_dims") == pytest.approx(us(1840))


def test_opt_zfp_caches_attrs():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.zfp_opt(threshold=0))

    def proc():
        yield from eng.sender_prepare(data)
        yield from eng.sender_prepare(data)

    eng.sim.run_process(proc())
    # one ~1us query, second send free
    assert eng.sim.tracer.total("get_max_grid_dims") <= us(1.5)


def test_zfp_no_size_copy():
    """ZFP's predictable size means no D2H size retrieval at all."""
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.zfp_opt(threshold=0))
    run_send(eng, data)
    assert eng.sim.tracer.total("data_copy") == 0.0


def test_partitioned_kernels_overlap():
    """With 4 partitions the busy window is much shorter than the
    summed kernel time."""
    data = smooth_f32(2_000_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=4))
    run_send(eng, data)
    tr = eng.sim.tracer
    assert tr.busy("compression_kernel") < 0.6 * tr.total("compression_kernel")


def test_partitioned_combine_charged():
    data = smooth_f32(2_000_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=4))
    run_send(eng, data)
    assert eng.sim.tracer.total("combine") > 0


def test_single_partition_no_combine():
    data = smooth_f32(100_000)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=1))
    run_send(eng, data)
    assert eng.sim.tracer.total("combine") == 0


def _plan_crc_input(layout):
    flat = smooth_f32(2 * 4096 * 64)
    if layout == "2d":
        return flat[: 4096 * 64].reshape(4096, 64)
    return flat.reshape(4096, 128)[:, ::2]  # non-contiguous rows


@pytest.mark.parametrize("layout", ["2d", "strided"])
def test_plan_crc_folds_partition_fingerprints(layout):
    """The lossless stamp folded from the cache's per-piece
    fingerprints equals a fresh hash of the whole (row-split) input."""
    from repro.compression.cache import GLOBAL_CODEC_CACHE
    from repro.utils.integrity import payload_crc32

    data = _plan_crc_input(layout)
    _, _, eng = make_engine(CompressionConfig.mpc_opt(threshold=0, partitions=4))
    codec = eng._codec("mpc", 1)
    comps = [GLOBAL_CODEC_CACHE.compress(codec, p) for p in np.array_split(data, 4)]
    assert all("src_crc32" in c.meta for c in comps)
    assert eng._plan_crc(codec, data, comps) == payload_crc32(data)


@pytest.mark.parametrize("layout", ["2d", "strided"])
def test_plan_crc_lossy_folds_decoded_crcs(layout):
    from repro.compression.cache import GLOBAL_CODEC_CACHE
    from repro.utils.integrity import payload_crc32

    data = _plan_crc_input(layout)
    _, _, eng = make_engine(CompressionConfig.zfp_opt(threshold=0))
    codec = eng._codec("zfp", 16)
    comps = [GLOBAL_CODEC_CACHE.compress(codec, p) for p in np.array_split(data, 4)]
    decoded = np.concatenate([codec.decompress(c) for c in comps])
    assert eng._plan_crc(codec, data, comps) == payload_crc32(decoded)


def test_sender_release_returns_buffers():
    cfg = CompressionConfig.mpc_opt(threshold=0)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(100_000)

    def proc():
        plan = yield from eng.sender_prepare(data)
        yield from eng.sender_release(plan)
        return plan

    plan = sim.run_process(proc())
    assert plan.resources == []


def test_receiver_prepare_uncompressed_no_resources():
    cfg = CompressionConfig.disabled()
    sim, dev, eng = make_engine(cfg)
    from repro.core.header import CompressionHeader

    def proc():
        res = yield from eng.receiver_prepare(CompressionHeader.uncompressed(100))
        return res

    assert sim.run_process(proc()) == []


def test_payload_partition_size_mismatch_rejected():
    cfg = CompressionConfig.mpc_opt(threshold=0)
    data = smooth_f32(100_000)
    sim, dev, eng = make_engine(cfg)
    plan = run_send(eng, data)

    def proc():
        res = yield from eng.receiver_prepare(plan.header)
        out, _ = yield from eng.receiver_complete(
            plan.header, plan.payload[:-8], res
        )
        return out

    from repro.errors import CompressionError

    with pytest.raises(CompressionError):
        sim.run_process(proc())


# -- one sender pipeline for every transport codec --------------------------------

def _pingpong(config, data, faults=None):
    """Rank 0 sends ``data`` to rank 1, which sends what it got back."""
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1, tag=1)
            got = yield from comm.recv(1, tag=2)
            return got
        got = yield from comm.recv(0, tag=1)
        yield from comm.send(got, 0, tag=2)
        return got

    return cluster.run(rank_fn, config=config, faults=faults)


def _wave_f64(nbytes):
    return make_payload("wave", nbytes // 2, seed=1).astype(np.float64)


@pytest.mark.parametrize("algorithm", ["sz", "fpc", "gfc"])
def test_pipelined_pingpong_round_trips_every_codec(algorithm):
    config = CompressionConfig(enabled=True, algorithm=algorithm,
                               pipeline=True, partitions=4)
    data = _wave_f64(1 * MiB)
    res = _pingpong(config, data)
    m = res.tracer.metrics
    assert m.counter("mpi.sends", protocol="rndv_pipelined") == 2
    assert 0 < m.counter("compress.bytes_out", codec=algorithm) \
        < m.counter("compress.bytes_in", codec=algorithm)
    if algorithm == "sz":
        # each hop stays within the bound the header carries
        bound = float(np.float32(config.sz_error_bound))
        hop1, hop2 = res.values[1], res.values[0]
        assert np.abs(hop1 - data).max() <= bound
        assert np.abs(hop2 - hop1).max() <= bound
    else:
        for got in res.values:
            assert got.tobytes() == data.tobytes()


def test_sz_float64_send_survives_compress_failures():
    """The sender encodes with the float32 bound it puts in the header,
    so the receiver's decode matches the sender's integrity stamp."""
    config = CompressionConfig(enabled=True, algorithm="sz")
    data = _wave_f64(4 * MiB)
    res = _pingpong(config, data,
                    faults=FaultPlan(seed=11, compress_fail_rate=0.2))
    m = res.tracer.metrics
    assert m.counter_total("resilience.retransmit") == 0
    assert m.counter("compress.bytes_in", codec="sz") > 0
    bound = float(np.float32(config.sz_error_bound))
    assert np.abs(res.values[1] - data).max() <= bound


@pytest.mark.parametrize("algorithm", ["mpc", "zfp", "sz", "fpc"])
def test_adaptive_policy_learns_from_every_codec(algorithm):
    cfg = CompressionConfig(enabled=True, algorithm=algorithm, threshold=0,
                            adaptive=True)
    sim, dev, eng = make_engine(cfg)
    data = smooth_f32(100_000)
    plan = run_send(eng, data)
    assert plan.compressed
    st = eng.adaptive_policy.stats(data.nbytes)
    assert st.samples == 1
    assert st.ratio == pytest.approx(data.nbytes / plan.wire_nbytes)
    assert st.compress_time > 0 and st.decompress_time > 0
