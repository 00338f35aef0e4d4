"""Sender/receiver compression pipelines (the paper's Algorithms 1-3).

The engine is instantiated once per MPI rank.  It owns the rank's
pre-allocated buffer pools and CUDA streams, and exposes four
generator subroutines the MPI protocol layer calls:

``sender_prepare``
    Steps 1-3 of Figure 4: decide whether to compress, obtain device
    buffers (pool vs. ``cudaMalloc``), launch the compression
    kernel(s), retrieve the compressed size (GDRCopy vs.
    ``cudaMemcpy``), combine partitions, and build the header that the
    protocol layer piggybacks on the RTS packet.
``sender_release``
    Return pooled buffers / free temporaries once the send completes.
``receiver_prepare``
    Step between RTS and CTS: allocate the temporary device buffer for
    the incoming compressed payload.
``receiver_complete``
    Steps 6-7: launch the decompression kernel(s) and restore the
    original data.

Real numpy codecs run on the actual payload (compression ratios are
measured, not assumed); kernel durations come from the calibrated
:mod:`repro.compression.perfmodel` models and every driver-level cost
(malloc, memcpy, GDRCopy, attribute queries) is charged on the shared
simulation clock with a tracer span, so latency breakdowns
(Figs 6/8/10) fall out of the traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.compression import get_compressor, kernel_cost_model_for
from repro.compression.base import CompressedData
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core.adaptive import AdaptivePolicy
from repro.core.config import CompressionConfig
from repro.core.header import CompressionHeader
from repro.core.tuning import partitions_for_message
from repro.errors import CompressionError
from repro.gpu.device import Device
from repro.gpu.pool import BufferPool, SizeClassBufferPool
from repro.utils.integrity import crc32_concat, payload_crc32
from repro.utils.units import KiB, MiB

__all__ = ["CompressionEngine", "SendPlan"]

_MAX_STREAMS = 16
#: ZFP's zfp_stream / zfp_field construction cost (paper Sec. V: ~9us)
_ZFP_STREAM_FIELD_TIME = 9e-6


@dataclass
class SendPlan:
    """Everything the protocol layer needs to ship one message."""

    header: CompressionHeader
    payload: np.ndarray  # bytes that go on the wire (or the raw array)
    wire_nbytes: int
    resources: list = field(default_factory=list)
    #: CRC32 of the data the receiver should reconstruct (the clean
    #: decompression round-trip for compressed sends, the raw bytes
    #: otherwise); piggybacked on RTS/DATA for integrity checking
    crc: Optional[int] = None

    @property
    def compressed(self) -> bool:
        return self.header.compressed


@dataclass
class PipelinedSendPlan:
    """A send split into independently-compressed, streamable partitions.

    The protocol layer runs ``kernel_run(i)`` (a generator subroutine)
    for each partition — charging that partition's compression kernel
    and size retrieval — and puts ``comps[i].payload`` on the wire as
    soon as it returns, overlapping compression with transfer.
    """

    header: CompressionHeader
    comps: list
    resources: list = field(default_factory=list)
    kernel_run: object = None  # callable(i) -> generator
    crc: Optional[int] = None  # CRC32 of the reassembled decompressed data

    @property
    def n_parts(self) -> int:
        return len(self.comps)


def _partition_counts(n_elements: int, parts: int) -> list[int]:
    """Element count per partition — must match ``np.array_split``."""
    base, rem = divmod(n_elements, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def _parts_crc(comps, key: str) -> Optional[int]:
    """CRC-32 of the concatenated (source or decoded) images of
    ``comps``, folded from the per-part CRCs the codec cache recorded
    under ``meta[key]``; ``None`` when any part lacks one."""
    return crc32_concat((c.meta.get(key), c.n_elements * c.dtype.itemsize)
                        for c in comps)


def _join(arrays: list) -> np.ndarray:
    """Concatenate per-partition arrays (no copy for a single one)."""
    return np.concatenate(arrays) if len(arrays) > 1 else arrays[0]


def _source_crc(data, comps) -> int:
    """CRC-32 of ``data``, folded from the codec cache's per-piece
    source fingerprints (``src_crc32``) when every piece of ``comps``
    has one, hashed fresh otherwise."""
    crc = _parts_crc(comps, "src_crc32") if comps else None
    return payload_crc32(data) if crc is None else crc


def _raw_plan(data, comps=()) -> SendPlan:
    """Ship ``data`` uncompressed (compression off, below threshold,
    unsupported dtype, or the incompressible fallback after ``comps``
    were tried)."""
    nbytes = int(data.nbytes) if isinstance(data, np.ndarray) else len(data)
    return SendPlan(header=CompressionHeader.uncompressed(nbytes), payload=data,
                    wire_nbytes=nbytes, crc=_source_crc(data, comps))


def _buffer_bound(codec, data: np.ndarray) -> int:
    """Worst-case compressed bytes the send buffer is sized for: ZFP's
    exact fixed-rate size, MPC's and the other codecs' expansion bound."""
    nbytes = data.nbytes
    if codec.name == "zfp":
        return codec.expected_compressed_bytes(data.size, data.dtype.itemsize)
    if codec.name == "mpc":
        return nbytes + nbytes // 16 + 4096
    return nbytes + nbytes // 4 + 8192


def _wire_parts(header: CompressionHeader, payload, part=None) -> list:
    """Split a compressed wire payload along the header's partition
    table into one :class:`CompressedData` per partition — or just
    partition ``part`` when ``payload`` is that partition alone —
    after checking the table accounts for every payload byte."""
    dtype = np.dtype(header.dtype_name)
    counts = _partition_counts(header.n_elements, header.n_partitions)
    sizes = header.partition_sizes
    if part is not None:
        counts, sizes = counts[part:part + 1], sizes[part:part + 1]
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    if sum(sizes) != payload.nbytes:
        raise CompressionError(
            f"payload has {payload.nbytes} bytes but partitions account "
            f"for {sum(sizes)}"
        )
    params = header.codec_params()
    return [
        CompressedData(algorithm=header.algorithm, payload=piece,
                       n_elements=count, dtype=dtype, params=params)
        for count, piece in zip(counts, np.split(payload, np.cumsum(sizes[:-1])))
    ]


class CompressionEngine:
    """Per-rank compression state machine."""

    def __init__(self, sim, device: Device, config: CompressionConfig):
        self.sim = sim
        self.device = device
        self.config = config
        self._codecs: dict = {}
        self.adaptive_policy: Optional[AdaptivePolicy] = (
            AdaptivePolicy() if config.adaptive else None
        )
        # Pre-allocated pools, built at init (MPI_Init) off the
        # critical path — MPC-OPT optimizations 1 & 2.
        if config.enabled and config.use_buffer_pool:
            self.data_pool = SizeClassBufferPool(
                device, min_bytes=64 * KiB, max_bytes=256 * MiB, count_per_class=2
            )
            self.doff_pool = BufferPool(device, 4 * KiB, count=8)
        else:
            self.data_pool = None
            self.doff_pool = None
        self.streams = [device.new_stream() for _ in range(_MAX_STREAMS)]

    # -- helpers -----------------------------------------------------------
    def _codec(self, algorithm: str, param: int):
        """This rank's codec for a header's ``(algorithm, param)``, built
        from :meth:`CompressionHeader.params_for` — the sender from the
        param it is about to ship, the receiver from the one it got."""
        key = (algorithm, param)
        if key not in self._codecs:
            self._codecs[key] = get_compressor(
                algorithm, **CompressionHeader.params_for(algorithm, param))
        return self._codecs[key]

    def _wire_codec(self):
        """``(codec, header param)`` that the config puts on the wire.
        SZ ships its bound as float32 bits and encodes with that
        rounded bound, the one the receiver decodes with."""
        cfg = self.config
        if cfg.algorithm == "sz":
            param = CompressionHeader.encode_sz_bound(cfg.sz_error_bound)
        else:
            param = {"mpc": cfg.mpc_dimensionality,
                     "zfp": cfg.zfp_rate}.get(cfg.algorithm, 0)
        return self._codec(cfg.algorithm, param), param

    def _compressible(self, data) -> bool:
        cfg = self.config
        return (
            cfg.enabled
            and isinstance(data, np.ndarray)
            and data.dtype.type in (np.float32, np.float64)
            and data.nbytes >= cfg.threshold
        )

    def _partitions(self, data: np.ndarray) -> int:
        """The configured (or tuned) partition count for ``data``, never
        below one SM per kernel or 64 elements per partition."""
        parts = self.config.partitions or partitions_for_message(data.nbytes)
        return max(1, min(parts, self.device.spec.sm_count, data.size // 64 or 1))

    def _plan_crc(self, codec, data, comps) -> int:
        """CRC32 of what the receiver must reconstruct.

        Lossless codecs round-trip to the original bytes, so the raw
        CRC suffices: the codec cache already hashed each source piece
        as its lookup fingerprint (``src_crc32``).  Lossy codecs
        (zfp/sz) are checked against the *clean* decompression of the
        wire bytes — decoded with the unwrapped codec so an installed
        fault wrapper can neither corrupt nor draw RNG for the expected
        value; the cache records each part's ``out_crc32`` on the
        (cache-shared) comp, so re-sends need no decode at all.
        """
        clean = getattr(codec, "inner", codec)
        if clean.lossless:
            return _source_crc(data, comps)
        for c in comps:
            if "out_crc32" not in c.meta:
                GLOBAL_CODEC_CACHE.decompress(clean, c)
        return _parts_crc(comps, "out_crc32")

    def _acquire_data_buffer(self, nbytes: int, label: str):
        """Pool hit (cheap) or cudaMalloc (the naive path's cost)."""
        if self.data_pool is not None:
            buf = yield from self.data_pool.acquire(nbytes, label)
        else:
            buf = yield from self.device.malloc(nbytes, label)
        return buf

    def _acquire_doff(self, label: str = "d_off"):
        if self.doff_pool is not None:
            buf = yield from self.doff_pool.acquire(self.device.spec.sm_count * 4, label)
        else:
            buf = yield from self.device.malloc(self.device.spec.sm_count * 4, label)
        return buf

    def _release(self, resources: list):
        for buf in resources:
            if buf.pooled:
                pool = self.doff_pool if buf.capacity == 4 * KiB else self.data_pool
                yield from pool.release(buf)
            else:
                yield from self.device.free(buf)

    def sender_release(self, plan: SendPlan):
        """Return the send-side buffers (after the data has left)."""
        yield from self._release(plan.resources)
        plan.resources = []

    # -- sender ---------------------------------------------------------------
    def sender_prepare(self, data, path_bandwidth: float = 0.0,
                       force_uncompressed: bool = False):
        """Compress (or not) and produce a :class:`SendPlan`.

        ``path_bandwidth`` (bytes/s of the route to the destination)
        feeds the adaptive policy when enabled.  ``force_uncompressed``
        skips the compression pipeline entirely — the protocol layer
        uses it when a peer's compression circuit breaker is open.
        """
        if not force_uncompressed and self._compressible(data):
            if self.adaptive_policy is None or self.adaptive_policy.should_compress(
                data.nbytes, path_bandwidth
            ):
                plan = yield from self._send_compressed(data, *self._wire_codec())
                return plan
        return _raw_plan(data)

    def _run_partition_kernels(self, durations: list[float], blocks: int,
                               category: str, label: str = "p0"):
        """Launch one kernel per partition on separate CUDA streams
        (a lone kernel is labelled ``label``).

        Kernels overlap on the device (bounded by the SM pool), but
        their *submissions* serialize on the CPU — one enqueue per
        stream — which is what makes over-partitioning small messages a
        loss and motivates the tuned schedule.
        """
        if len(durations) == 1:
            yield from self.streams[0].run_kernel(durations[0], blocks, category, label)
            return
        submit = self.device.spec.kernel_launch
        failstop = getattr(self.sim, "failstop", None)
        procs = []
        for i, d in enumerate(durations):
            if i:
                yield self.sim.timeout(submit)
            p = self.sim.process(
                self.streams[i % _MAX_STREAMS].run_kernel(d, blocks, category, f"p{i}"),
                name=f"{category}-p{i}",
            )
            if failstop is not None:
                # Partition kernels belong to this device's rank (ranks
                # map 1:1 onto GPUs) so a fail-stop kill sweeps them up.
                failstop.adopt(self.device.device_id, p)
            procs.append(p)
        yield self.sim.all_of(procs)

    def _send_compressed(self, data: np.ndarray, codec, param: int):
        """Steps 1-3 of Figure 4 for any transport codec: buffers,
        kernel(s), size readback, combine, header.

        The codecs differ in three ways.  MPC splits the message into
        partitions (one kernel each, on separate streams) and needs a
        ``d_off`` buffer.  ZFP builds its stream/field first and reads
        no size back: its compressed size is predictable (Sec. III).
        Every other codec runs one full-device kernel.
        """
        if data.dtype.type not in codec.supported_dtypes:
            return _raw_plan(data)
        name = codec.name
        spec = self.device.spec
        model = kernel_cost_model_for(name)
        nbytes = data.nbytes
        parts = self._partitions(data) if name == "mpc" else 1

        t_prepare_start = self.sim.now
        resources = []
        try:
            if name == "zfp":
                yield from self._zfp_setup()
            comp_buf = yield from self._acquire_data_buffer(
                _buffer_bound(codec, data), f"{name}_compressed")
            resources.append(comp_buf)
            if name == "mpc":
                doff = yield from self._acquire_doff()
                resources.append(doff)

            # Real compression, one partition at a time (memoized host-side;
            # kernel time is charged below regardless).
            pieces = np.array_split(data, parts)
            comps = [GLOBAL_CODEC_CACHE.compress(codec, p) for p in pieces]
            sizes = [c.nbytes for c in comps]

            # Modelled kernel executions (concurrent when partitioned);
            # MPC labels its kernels by partition, the others by codec.
            blocks = max(1, spec.sm_count // parts)
            durations = [
                model.compress_time(p.nbytes, blocks, spec.sm_count) for p in pieces
            ]
            self._observe_kernels("compress", name, durations)
            yield from self._run_partition_kernels(
                durations, blocks, "compression_kernel",
                "p0" if name == "mpc" else name)
            if name != "zfp":
                yield from self._read_sizes(parts)

            # Merge partition outputs into one contiguous buffer (fixed
            # order, Sec. IV); partition 0 is already in place.
            if parts > 1:
                yield from self.device.memcpy_d2d(sum(sizes[1:]), "combine")

            payload = _join([c.payload for c in comps])
            if self.adaptive_policy is not None:
                est_decompr = max(
                    model.decompress_time(p.nbytes, blocks, spec.sm_count) for p in pieces
                )
                self.adaptive_policy.record(
                    nbytes, nbytes / max(1, payload.nbytes),
                    self.sim.now - t_prepare_start, est_decompr,
                )
        except BaseException:
            yield from self._release(resources)
            raise
        if payload.nbytes >= nbytes:
            # Incompressible: fall back to the raw message (the kernel
            # time was still spent — that is the price of trying).
            self._record_compression(name, nbytes, payload.nbytes, fallback=True)
            yield from self._release(resources)
            return _raw_plan(data, comps)
        self._record_compression(name, nbytes, payload.nbytes)
        comp_buf.write(payload)
        header = CompressionHeader.for_message(name, data.dtype, data.size, param, sizes)
        return SendPlan(
            header=header, payload=payload, wire_nbytes=payload.nbytes,
            resources=resources, crc=self._plan_crc(codec, data, comps),
        )

    def _read_sizes(self, parts: int):
        """Retrieve ``parts`` u32 compressed sizes from the device:
        GDRCopy (OPT) vs cudaMemcpy (naive)."""
        if self.config.use_gdrcopy:
            yield from self.device.gdrcopy(4 * parts, "compressed_size")
        else:
            yield from self.device.memcpy_d2h(4 * parts, "compressed_size")

    def _zfp_setup(self):
        """Construct zfp_stream / zfp_field (CPU-side, ~9us), then ZFP's
        get_max_grid_dims: per-message cudaGetDeviceProperties in the
        naive library vs. a cached cudaDeviceGetAttribute in ZFP-OPT
        (Section V)."""
        t0 = self.sim.now
        yield self.sim.timeout(_ZFP_STREAM_FIELD_TIME)
        if self.sim.tracer is not None:
            self.sim.tracer.span(t0, self.sim.now, "zfp_stream_field", "create",
                                 rank=self.device.device_id, track="main")
        if self.config.cache_device_attrs:
            yield from self.device.get_device_attribute("max_grid_dim_x", cached=True)
        else:
            yield from self.device.get_device_properties()

    def _record_compression(self, codec_name: str, bytes_in: int,
                            bytes_out: int, fallback: bool = False) -> None:
        """Feed the compression-ratio metrics (CR = bytes_in/bytes_out)."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        if fallback:
            tracer.metrics.inc("compress.fallback", codec=codec_name)
        else:
            tracer.metrics.inc("compress.bytes_in", bytes_in, codec=codec_name)
            tracer.metrics.inc("compress.bytes_out", bytes_out, codec=codec_name)

    def _observe_kernels(self, kind: str, codec_name: str, durations) -> None:
        """Feed per-launch kernel durations (microseconds) into the
        ``compress.kernel_us`` / ``decompress.kernel_us`` histograms."""
        tracer = self.sim.tracer
        if tracer is None:
            return
        name = f"{kind}.kernel_us"
        for d in durations:
            tracer.metrics.observe(name, d * 1e6, codec=codec_name)

    # -- pipelined extension -------------------------------------------------
    def sender_prepare_pipelined(self, data, path_bandwidth: float = 0.0):
        """Build a :class:`PipelinedSendPlan`, or return ``None`` when
        the message should take the ordinary path (not compressible,
        too small to split, or incompressible data).

        Works for every transport codec: ZFP partitions are independent
        4-block groups, MPC partitions reset the LNV predictor exactly
        as in the paper's combined scheme (Section IV notes the ratio
        impact is negligible).
        """
        cfg = self.config
        if not (cfg.pipeline and self._compressible(data)):
            return None
        codec, param = self._wire_codec()
        parts = self._partitions(data)
        if parts < 2 or data.dtype.type not in codec.supported_dtypes:
            return None
        name = codec.name
        spec = self.device.spec
        nbytes = data.nbytes
        model = kernel_cost_model_for(name)

        pieces = np.array_split(data, parts)
        comps = [GLOBAL_CODEC_CACHE.compress(codec, p) for p in pieces]
        sizes = [c.nbytes for c in comps]
        if sum(sizes) >= nbytes:
            return None  # incompressible: take the raw fallback path
        self._record_compression(name, nbytes, sum(sizes))

        resources = []
        try:
            # Every codec's pipeline buffer is sized like MPC's.
            bound = nbytes + nbytes // 16 + 4096
            comp_buf = yield from self._acquire_data_buffer(bound, "pipe_compressed")
            resources.append(comp_buf)
            if name == "mpc":
                doff = yield from self._acquire_doff()
                resources.append(doff)
            elif name == "zfp":
                yield from self._zfp_setup()
        except BaseException:
            yield from self._release(resources)
            raise

        # Pipelining wants *staggered* completions: chunks run back to
        # back on one stream at half-device width (the paper's "half
        # the SMs is roughly the same as using full GPU"), so chunk 0
        # is on the wire while chunk 1 is still compressing.
        blocks = max(1, spec.sm_count // 2)
        engine = self

        def kernel_run(i: int):
            duration = model.compress_time(pieces[i].nbytes, blocks, spec.sm_count)
            engine._observe_kernels("compress", name, [duration])
            yield from engine.streams[0].run_kernel(
                duration, blocks, "compression_kernel", f"pipe{i}"
            )
            if name != "zfp":
                yield from engine._read_sizes(1)

        header = CompressionHeader.for_message(
            name, data.dtype, data.size, param, sizes, pipelined=True
        )
        return PipelinedSendPlan(
            header=header, comps=comps, resources=resources, kernel_run=kernel_run,
            crc=self._plan_crc(codec, data, comps),
        )

    def pipelined_release(self, plan: PipelinedSendPlan):
        yield from self._release(plan.resources)
        plan.resources = []

    def pipelined_receive_part(self, header: CompressionHeader, part: int, payload):
        """Decompress one arrived partition (generator subroutine).

        Returns ``(data, crc)``: ``crc`` is the codec cache's CRC-32 of
        ``data``, or ``None`` when it must be hashed fresh."""
        spec = self.device.spec
        model = kernel_cost_model_for(header.algorithm)
        codec = self._codec(header.algorithm, header.param)
        dtype = np.dtype(header.dtype_name)
        counts = _partition_counts(header.n_elements, header.n_partitions)
        # Half-device kernels: arrivals are already staggered by the
        # wire, adjacent parts may overlap pairwise.
        blocks = max(1, spec.sm_count // 2)
        duration = model.decompress_time(counts[part] * dtype.itemsize, blocks,
                                         spec.sm_count)
        self._observe_kernels("decompress", header.algorithm, [duration])
        yield from self.streams[part % _MAX_STREAMS].run_kernel(
            duration, blocks, "decompression_kernel", f"pipe{part}"
        )
        comp, = _wire_parts(header, payload, part)
        out = GLOBAL_CODEC_CACHE.decompress(codec, comp)
        return out, comp.meta.get("out_crc32")

    # -- compressed-domain reduction (hZCCL-style) ---------------------------
    def reduce_capable(self, op) -> bool:
        """True when reduction collectives may combine *compressed* wire
        payloads directly via :meth:`reduce_wire_payload` instead of
        decoding at every hop: compression on, the reduction is a plain
        sum, and the configured codec advertises
        :attr:`~repro.compression.base.Compressor.reduce_supported`."""
        cfg = self.config
        if not cfg.enabled or op is not np.add:
            return False
        codec, _ = self._wire_codec()
        clean = getattr(codec, "inner", codec)
        return bool(clean.reduce_supported)

    def reduce_wire_payload(self, header_a: CompressionHeader, payload_a,
                            header_b: CompressionHeader, payload_b,
                            want_crc: bool = False):
        """Combine two compressed wire payloads without decoding either
        to full precision (generator subroutine).

        Both operands must be compressed images of the same shape (same
        codec, element count and partitioning — which reduction
        collectives guarantee because every rank packs the same chunk
        geometry).  One fused partial-decode + add + re-encode kernel is
        charged per partition; the result's bits are exactly
        ``compress(add(decompress(a), decompress(b)))`` per the
        :meth:`~repro.compression.base.Compressor.reduce_compressed`
        contract.

        Returns ``(header, payload, crc)`` for the combined image —
        falling back to an uncompressed header + raw array when the
        partial sums stop compressing.  ``crc`` (the post-decode stamp)
        is computed only when ``want_crc`` — integrity checking is the
        only consumer.
        """
        if not (header_a.compressed and header_b.compressed):
            raise CompressionError("reduce_wire_payload needs two compressed operands")
        if (header_a.algorithm != header_b.algorithm
                or header_a.n_elements != header_b.n_elements
                or header_a.n_partitions != header_b.n_partitions
                or header_a.dtype_name != header_b.dtype_name):
            raise CompressionError(
                f"wire reduction operand mismatch: {header_a!r} vs {header_b!r}"
            )
        spec = self.device.spec
        model = kernel_cost_model_for(header_a.algorithm)
        codec = self._codec(header_a.algorithm, header_a.param)
        clean = getattr(codec, "inner", codec)
        dtype = np.dtype(header_a.dtype_name)
        parts = header_a.n_partitions
        counts = _partition_counts(header_a.n_elements, parts)

        # Fused kernels, one per partition, like the decode path.
        blocks = max(1, spec.sm_count // parts)
        durations = [
            model.reduce_time(c * dtype.itemsize, blocks, spec.sm_count)
            for c in counts
        ]
        self._observe_kernels("reduce", header_a.algorithm, durations)
        yield from self._run_partition_kernels(durations, blocks, "reduction_kernel")

        reduced = [clean.reduce_compressed(a, b) for a, b in zip(
            _wire_parts(header_a, payload_a), _wire_parts(header_b, payload_b))]
        sizes = [c.nbytes for c in reduced]

        raw_nbytes = header_a.n_elements * dtype.itemsize
        if sum(sizes) >= raw_nbytes:
            # Partial sums stopped compressing: decode once and degrade
            # this accumulator to a raw image.
            out = _join([clean.decompress(c) for c in reduced])
            self._record_compression(header_a.algorithm, raw_nbytes,
                                     sum(sizes), fallback=True)
            return (CompressionHeader.uncompressed(raw_nbytes), out,
                    payload_crc32(out) if want_crc else None)

        self._record_compression(header_a.algorithm, raw_nbytes, sum(sizes))
        payload = _join([c.payload for c in reduced])
        header = CompressionHeader.for_message(
            header_a.algorithm, dtype, header_a.n_elements,
            header_a.param, sizes,
        )
        crc = None
        if want_crc:
            for c in reduced:
                GLOBAL_CODEC_CACHE.decompress(clean, c)
            crc = _parts_crc(reduced, "out_crc32")
        return header, payload, crc

    # -- receiver -----------------------------------------------------------
    def receiver_prepare(self, header: CompressionHeader):
        """Between RTS and CTS: obtain the temporary device buffer (and
        MPC's d_off) for the incoming compressed payload."""
        if not header.compressed:
            return []
        resources = []
        try:
            buf = yield from self._acquire_data_buffer(header.wire_bytes, "recv_compressed")
            resources.append(buf)
            if header.algorithm == "mpc":
                doff = yield from self._acquire_doff()
                resources.append(doff)
        except BaseException:
            yield from self._release(resources)
            raise
        return resources

    def receiver_complete(self, header: CompressionHeader, payload, resources: list):
        """After the data lands: decompress and restore the original.

        Returns ``(data, crc)``: ``crc`` is the CRC-32 of ``data``
        folded from the codec cache's per-part decode CRCs, or ``None``
        when the caller must hash ``data`` itself (uncompressed
        payloads, fault-wrapped codecs)."""
        if not header.compressed:
            return payload, None
        spec = self.device.spec
        model = kernel_cost_model_for(header.algorithm)
        codec = self._codec(header.algorithm, header.param)
        dtype = np.dtype(header.dtype_name)

        if header.algorithm == "zfp":
            yield from self._zfp_setup()

        parts = header.n_partitions
        counts = _partition_counts(header.n_elements, parts)
        blocks = max(1, spec.sm_count // parts)
        durations = [
            model.decompress_time(c * dtype.itemsize, blocks, spec.sm_count)
            for c in counts
        ]
        self._observe_kernels("decompress", header.algorithm, durations)
        yield from self._run_partition_kernels(durations, blocks, "decompression_kernel")

        comps = _wire_parts(header, payload)
        result = _join([GLOBAL_CODEC_CACHE.decompress(codec, c) for c in comps])

        yield from self._release(resources)
        return result, _parts_crc(comps, "out_crc32")
