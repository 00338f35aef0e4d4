"""Communicator: point-to-point primitives and collective methods.

Point-to-point follows MVAPICH2's two protocols:

**Eager** (below :data:`EAGER_THRESHOLD`): envelope + payload travel
together; no handshake, no compression (small messages never cross the
compression threshold anyway).

**Rendezvous** (paper Figures 3-4):

1. sender (optionally) compresses — :meth:`CompressionEngine.sender_prepare`;
2. RTS carries the piggybacked compression header to the receiver;
3. receiver matches the RTS, obtains its temporary device buffer, and
   answers CTS;
4. sender pushes the (compressed) payload across the topology;
5. receiver decompresses into the user buffer and completes.

All primitives are generator subroutines (``yield from comm.send(...)``)
except ``isend``/``irecv``, which spawn a protocol process and return a
:class:`~repro.mpi.request.Request`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.errors import (
    BufferPoolExhaustedError,
    CollectiveAbortedError,
    CompressionError,
    IntegrityError,
    MpiError,
    OutOfDeviceMemoryError,
    RankFailedError,
    RendezvousTimeoutError,
    RetryExhaustedError,
)
from repro.core.header import CompressionHeader
from repro.faults import DROPPED
from repro.mpi import collectives as _coll
from repro.mpi.matching import ANY
from repro.mpi.message import Packet, PacketKind
from repro.mpi.request import Request
from repro.mpi.wire import WireImage
from repro.sim.trace import trace_scope
from repro.utils.integrity import payload_crc32
from repro.utils.units import KiB

__all__ = ["Communicator", "ANY_SOURCE", "ANY_TAG", "EAGER_THRESHOLD",
           "PIPELINE_STEPS", "TAG_STRIDE"]

ANY_SOURCE = ANY
ANY_TAG = ANY

#: tag-space stride between communicators: every tag of comm ``c`` is
#: shifted by ``c * TAG_STRIDE`` at the point-to-point boundary, so
#: messages of a shrunk (derived) communicator can never match posts of
#: the revoked one.  Sits above the collective tag block (``1 << 20``)
#: and the agreement block (``1 << 19``).
TAG_STRIDE = 1 << 24

#: tag blocks of the failure-agreement protocol (below COLL_TAG_BASE)
_AGREE_TAG = 1 << 19
_AGREE_REPLY_TAG = _AGREE_TAG + 256

#: eager/rendezvous protocol switch point (MVAPICH2-GDR GPU default scale)
EAGER_THRESHOLD = 16 * KiB

#: CPU-side software overhead charged per point-to-point operation
SETUP_TIME = 1.0e-6

#: The rendezvous pipeline's step spans (category ``"pipeline"``), in
#: protocol order across both sides — Figure 4's seven stages.  Sender
#: records sender_prepare / rts / wire_transfer / sender_release;
#: receiver records receiver_prepare / cts / receiver_complete.
PIPELINE_STEPS = (
    "sender_prepare",      # steps 1-3: decide, buffers, kernels, size, combine
    "rts",                 # step 4a: RTS carrying the piggybacked header
    "receiver_prepare",    # step 4b: receiver's temporary device buffer
    "cts",                 # step 5: clear-to-send back to the sender
    "wire_transfer",       # step 6: (compressed) payload crosses the fabric
    "receiver_complete",   # step 7: decompression kernels + restore
    "sender_release",      # post-send: return pooled buffers / temporaries
)

#: transient faults the resilience layer absorbs (retry/fallback); any
#: other exception still propagates immediately
_TRANSIENT = (CompressionError, OutOfDeviceMemoryError, BufferPoolExhaustedError)

#: what decoding a corrupted wire image can raise: every codec wraps its
#: own failures in CompressionError; ValueError/IndexError escape from
#: numpy reshaping/frombuffer on structurally-mangled streams.  Anything
#: else (a KeyboardInterrupt, a genuine bug) must propagate, not be
#: retried as if the fabric corrupted the payload.
_DECODE_ERRORS = (CompressionError, ValueError, IndexError)


class _AgreementRestart(Exception):
    """Internal: a believed-alive member died mid-agreement round; all
    participants restart with the larger snapshot (never escapes
    :meth:`Communicator.agree_failures`)."""


class _AgreementDecided(Exception):
    """Internal: a decision reached this participant outside its current
    round — an earlier round's reply, or the decision board after a
    death wake-up (never escapes :meth:`Communicator.agree_failures`)."""

    def __init__(self, decided: tuple):
        super().__init__(decided)
        self.decided = tuple(decided)


class Communicator:
    """An MPI communicator bound to one rank of a running job.

    A communicator is a *view* over a group of global ranks (GPUs):
    ``rank``/``size`` are communicator-local, ``grank`` is the global
    rank this instance is bound to, and every point-to-point call
    translates local peers to global ones and shifts user tags by
    ``comm_id * TAG_STRIDE`` so traffic on different communicators can
    never cross-match.  The base (world) communicator has
    ``comm_id == 0`` and an identity group, making the translation a
    no-op — byte-identical to the pre-shrink protocol.
    """

    def __init__(self, runtime, rank: int, size: int,
                 group: Optional[tuple] = None, comm_id: int = 0):
        self._rt = runtime
        self.rank = rank
        self.size = size
        self._group = tuple(group) if group is not None else tuple(range(size))
        if len(self._group) != size:
            raise MpiError(
                f"group of {len(self._group)} ranks for a size-{size} comm")
        self._comm_id = comm_id
        self._tag_shift = comm_id * TAG_STRIDE
        self._grank = self._group[rank]
        # SPMD collective counter: every member issues collectives in
        # the same order, so (comm_id, coll_seq) names one collective
        # instance across ranks — the happens-before engine groups
        # participation barriers by it.
        self._coll_seq = 0

    def next_coll_seq(self) -> int:
        """Per-communicator collective instance number (SPMD-aligned)."""
        seq = self._coll_seq
        self._coll_seq += 1
        return seq

    # -- introspection ------------------------------------------------------
    @property
    def sim(self):
        return self._rt.sim

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._rt.sim.now

    @property
    def grank(self) -> int:
        """The global rank (GPU index) this communicator view is bound to."""
        return self._grank

    @property
    def group(self) -> tuple:
        """Global ranks of the members, indexed by local rank."""
        return self._group

    @property
    def comm_id(self) -> int:
        return self._comm_id

    def device(self):
        """This rank's GPU."""
        return self._rt.device_of(self._grank)

    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise MpiError(f"{what} rank {peer} out of range [0, {self.size})")

    def _to_global(self, peer: int) -> int:
        return self._group[peer]

    def _shift_tag(self, tag: int) -> int:
        return tag if tag == ANY_TAG else tag + self._tag_shift

    # -- nonblocking point-to-point ----------------------------------------------
    def isend(self, data: Any, dest: int, tag: int = 0) -> Request:
        """Start a nonblocking send of ``data`` (a numpy array resident
        on this rank's GPU) to local rank ``dest``."""
        return self._start_send(data, dest, tag, relay=False)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Start a nonblocking receive.  The request's value is the
        received array."""
        return self._start_recv(source, tag, relay=False)

    def _start_send(self, data: Any, dest: int, tag: int,
                    relay: bool) -> Request:
        self._check_peer(dest, "destination")
        rt = self._rt
        rt.note_send(self._grank)  # may trip an after_sends kill (in-frame)
        gdest = self._to_global(dest)
        kind, name = ("isend_wire", "isendw") if relay else ("isend", "isend")
        req = Request(self.sim, kind=f"{kind}->{gdest}")
        proc = self.sim.process(
            self._send_proc(data, gdest, self._shift_tag(tag), req, relay),
            name=f"{name}{self._grank}->{gdest}")
        rt.adopt(self._grank, proc)
        return req

    def _start_recv(self, source: int, tag: int, relay: bool) -> Request:
        gsource = source
        if source != ANY_SOURCE:
            self._check_peer(source, "source")
            gsource = self._to_global(source)
        kind, name = ("irecv_wire", "irecvw") if relay else ("irecv", "irecv")
        req = Request(self.sim, kind=f"{kind}<-{gsource}")
        proc = self.sim.process(
            self._recv_proc(gsource, self._shift_tag(tag), req, relay),
            name=f"{name}{self._grank}<-{gsource}")
        self._rt.adopt(self._grank, proc)
        return req

    # -- blocking wrappers ------------------------------------------------------
    def send(self, data: Any, dest: int, tag: int = 0):
        """Blocking send (generator subroutine)."""
        req = self.isend(data, dest, tag)
        yield from req.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator subroutine); returns the data."""
        req = self.irecv(source, tag)
        data = yield from req.wait()
        return data

    def sendrecv(self, senddata: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        """Concurrent send+receive; returns the received data."""
        sreq = self.isend(senddata, dest, sendtag)
        rreq = self.irecv(source, recvtag)
        data = yield from rreq.wait()
        yield from sreq.wait()
        return data

    # -- protocol processes ------------------------------------------------------
    def _payload_nbytes(self, data: Any) -> int:
        if isinstance(data, np.ndarray):
            return int(data.nbytes)
        return len(data)

    def _count_send(self, protocol: str) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.metrics.inc("mpi.sends", protocol=protocol)

    def _send_proc(self, data: Any, dest: int, tag: int, req: Request,
                   relay: bool):
        """Ship one message: self, eager or rendezvous.  With ``relay``
        set, ``data`` is an already-packed :class:`WireImage` pushed
        as-is — no sender_prepare/sender_release."""
        rt = self._rt
        try:
            yield self.sim.timeout(SETUP_TIME)
            seq = rt.next_seq()
            nbytes = data.wire_nbytes if relay else self._payload_nbytes(data)
            if dest == self._grank:
                # Self-send: no wire, deliver the envelope directly.
                pkt = Packet(PacketKind.EAGER, self._grank, dest, tag, seq,
                             payload=data, wire_nbytes=nbytes)
                rt.matching_of(dest).deliver_envelope(pkt)
                self._count_send("self")
                req.complete()
                return

            if nbytes < EAGER_THRESHOLD:
                pkt = Packet(PacketKind.EAGER, self._grank, dest, tag, seq,
                             payload=data, wire_nbytes=nbytes)
                yield from rt.transfer(self._grank, dest, nbytes + pkt.control_bytes(),
                                       label="eager")
                rt.matching_of(dest).deliver_envelope(pkt)
                self._count_send("wire_eager" if relay else "eager")
                req.complete()
                return

            if relay:
                # The RTS re-piggybacks the image's *original* header.
                yield from self._rndv_push(rt, dest, tag, seq, data, data.crc,
                                           data.wire_crc, data.origin_seq)
                self._count_send("rndv_wire")
                req.complete()
                return

            # Rendezvous with on-the-fly compression.
            engine = rt.engine_of(self._grank)
            resil = rt.resilience
            breaker = None
            force_uncompressed = False
            if engine.config.enabled:
                breaker = rt.breaker_of(self._grank, dest)
                if not breaker.allow(self.now):
                    force_uncompressed = True
                    rt.resilience_event("breaker_veto", rank=self._grank,
                                        dst=dest, seq=seq)
            if engine.config.enabled and engine.config.pipeline \
                    and not force_uncompressed:
                pplan = None
                with trace_scope(self.sim, "pipeline", "sender_prepare",
                                 rank=self._grank, nbytes=nbytes, seq=seq,
                                 dst=dest):
                    try:
                        pplan = yield from engine.sender_prepare_pipelined(
                            data, path_bandwidth=rt.path_bandwidth(self._grank, dest)
                        )
                    except _TRANSIENT as exc:
                        self._compression_failed(rt, breaker, dest, seq, exc)
                        force_uncompressed = True
                if pplan is not None:
                    yield from self._send_pipelined(rt, dest, tag, seq, pplan)
                    self._count_send("rndv_pipelined")
                    req.complete()
                    return
            with trace_scope(self.sim, "pipeline", "sender_prepare",
                             rank=self._grank, nbytes=nbytes, seq=seq,
                             dst=dest):
                try:
                    plan = yield from engine.sender_prepare(
                        data, path_bandwidth=rt.path_bandwidth(self._grank, dest),
                        force_uncompressed=force_uncompressed,
                    )
                except _TRANSIENT as exc:
                    self._compression_failed(rt, breaker, dest, seq, exc)
                    plan = yield from engine.sender_prepare(
                        data, force_uncompressed=True
                    )
            crc = plan.crc if resil.integrity else None
            yield from self._rndv_push(rt, dest, tag, seq, plan, crc)
            with trace_scope(self.sim, "pipeline", "sender_release",
                             rank=self._grank, seq=seq, dst=dest):
                yield from engine.sender_release(plan)
            self._count_send("rndv")
            req.complete()
        except BaseException as exc:  # surfaced via the request
            req.fail(exc)

    def _rts_handshake(self, rt, dest: int, tag: int, seq: int, header,
                       wire_nbytes: int, crc, wire_crc=None, origin_seq=None):
        """Send the RTS piggybacking ``header``, then wait for the CTS
        under the handshake timeout and the receiver's death watch."""
        rts = Packet(PacketKind.RTS, self._grank, dest, tag, seq,
                     header=header, wire_nbytes=wire_nbytes, crc=crc,
                     wire_crc=wire_crc, origin_seq=origin_seq)
        relayed = {} if origin_seq is None else {"origin_seq": origin_seq}
        with trace_scope(self.sim, "pipeline", "rts", rank=self._grank,
                         seq=seq, dst=dest, tag=tag, **relayed):
            yield from rt.control_delay(self._grank, dest, rts.control_bytes())
            cts_ev = rt.matching_of(self._grank).expect_cts(seq)
            rt.matching_of(dest).deliver_envelope(rts)
        t = rt.resilience.handshake_timeout
        _, timed_out = yield from self._guarded_wait(
            rt, cts_ev, dest, "cts", seq=seq, timeout=t)
        if timed_out:
            rt.resilience_event("timeout", rank=self._grank, seq=seq,
                                dst=dest, phase="cts")
            raise RendezvousTimeoutError(
                f"rank {self._grank}: no CTS from rank {dest} for seq {seq} "
                f"within {t}s",
                diagnostic=rt.matching_report(),
            )

    def _rndv_push(self, rt, dest: int, tag: int, seq: int, image, crc,
                   wire_crc=None, origin_seq=None):
        """Rendezvous for one prepared ``image`` (a ``SendPlan`` or a
        :class:`WireImage`): RTS/CTS, retain the wire bytes for
        retransmission, then push them as one DATA packet."""
        yield from self._rts_handshake(rt, dest, tag, seq, image.header,
                                       image.wire_nbytes, crc, wire_crc,
                                       origin_seq)
        rt.register_retransmit(seq, self._grank, dest, tag, image.header,
                               image.payload, image.wire_nbytes, crc,
                               image.compressed, wire_crc=wire_crc,
                               origin_seq=origin_seq)
        relayed = {} if origin_seq is None else {"origin_seq": origin_seq}
        with trace_scope(self.sim, "pipeline", "wire_transfer",
                         rank=self._grank, seq=seq,
                         nbytes=image.wire_nbytes, dst=dest, **relayed):
            delivered = yield from rt.transfer(
                self._grank, dest, image.wire_nbytes,
                label="rndv_data", payload=image.payload,
            )
        if delivered is not DROPPED:
            data_pkt = Packet(PacketKind.DATA, self._grank, dest, tag, seq,
                              payload=delivered,
                              wire_nbytes=image.wire_nbytes, crc=crc,
                              wire_crc=wire_crc, origin_seq=origin_seq)
            rt.matching_of(dest).deliver_data(data_pkt)

    def _compression_failed(self, rt, breaker, dest: int, seq: int, exc) -> None:
        """Host-side bookkeeping for a transient sender-side compression
        failure: feed the breaker, record the uncompressed fallback."""
        if breaker is not None:
            breaker.record_failure(self.now)
        rt.resilience_event("fallback", rank=self._grank, dst=dest, seq=seq,
                            error=type(exc).__name__)

    # -- failure detection -------------------------------------------------------
    def _guarded_wait(self, rt, ev, peer, phase: str, seq=None, timeout=None):
        """Wait on ``ev``, racing an optional ``timeout`` and — when the
        failure detector is armed — the death event of (global) ``peer``.

        Returns ``(value, timed_out)``.  A peer death grants a
        ``detect_timeout`` grace window for in-flight data, then raises
        :class:`RankFailedError`.  With no detector and no timeout this
        is a bare ``yield ev``: zero extra events on the fault-free
        path, preserving trace identity.
        """
        fs = rt.failstop
        detect = rt.resilience.detect_timeout
        watch = (fs is not None and detect is not None
                 and peer is not None and peer != ANY)
        if not watch:
            if timeout is None:
                val = yield ev
                return val, False
            timer = self.sim.timeout(timeout)
            yield self.sim.any_of([ev, timer])
            if not ev.triggered:
                return None, True
            timer.cancel()
            return ev.value, False
        death = fs.death_event(peer)
        races = [ev, death]
        timer = None
        if timeout is not None:
            timer = self.sim.timeout(timeout)
            races.append(timer)
        yield self.sim.any_of(races)
        if ev.triggered:
            if timer is not None and not timer.triggered:
                timer.cancel()
            return ev.value, False
        if death.triggered:
            # Grace window: a message already on the wire outlives its
            # sender — prefer delivered data over declaring failure.
            grace = self.sim.timeout(detect)
            yield self.sim.any_of([ev, grace])
            if timer is not None and not timer.triggered:
                timer.cancel()
            if ev.triggered:
                if not grace.triggered:
                    grace.cancel()
                return ev.value, False
            self._raise_rank_failed(rt, peer, phase, seq)
        return None, True

    def _raise_rank_failed(self, rt, peer: int, phase: str, seq=None):
        """Translate a detected peer death into :class:`RankFailedError`
        with the detector's full context (incarnation, kill time,
        last-heard, matching state)."""
        fs = rt.failstop
        inc, killed_at = fs.dead[peer]
        heard = rt.last_heard_of(self._grank, peer)
        heard_s = "never" if heard is None else f"t={heard:.9f}"
        rt.resilience_event("rank_failed", rank=self._grank, peer=peer,
                            phase=phase)
        detail = f" for seq {seq}" if seq is not None else ""
        raise RankFailedError(
            f"rank {self._grank}: peer rank {peer} (incarnation {inc}) "
            f"failed at t={killed_at:.9f} while awaiting {phase}{detail}; "
            f"last heard {heard_s}",
            failed_rank=peer, incarnation=inc, last_heard=heard,
            diagnostic=rt.matching_report(),
        )

    def _send_pipelined(self, rt, dest: int, tag: int, seq: int, pplan):
        """Stream each partition as its compression kernel completes."""
        engine = rt.engine_of(self._grank)
        crc = pplan.crc if rt.resilience.integrity else None
        total = pplan.header.wire_bytes
        yield from self._rts_handshake(rt, dest, tag, seq, pplan.header,
                                       total, crc)
        if rt.faults is not None:
            # Retain the full concatenated wire image: a NACKed
            # pipelined message is retransmitted as one un-pipelined
            # DATA packet (the header's partition table still applies).
            rt.register_retransmit(
                seq, self._grank, dest, tag, pplan.header,
                np.concatenate([c.payload for c in pplan.comps]),
                total, crc, True,
            )

        def part_sender(i):
            yield from pplan.kernel_run(i)
            comp = pplan.comps[i]
            with trace_scope(self.sim, "pipeline", "wire_transfer",
                             rank=self._grank, seq=seq, part=i,
                             nbytes=comp.nbytes, dst=dest):
                delivered = yield from rt.transfer(
                    self._grank, dest, comp.nbytes,
                    label="pipe_data", payload=comp.payload,
                )
            if delivered is DROPPED:
                return
            rt.matching_of(dest).deliver_data(
                Packet(PacketKind.DATA, self._grank, dest, tag, seq,
                       payload=delivered, wire_nbytes=comp.nbytes, part=i)
            )

        procs = [
            self.sim.process(part_sender(i), name=f"pipe-send{i}")
            for i in range(pplan.n_parts)
        ]
        for p in procs:
            rt.adopt(self._grank, p)
        yield self.sim.all_of(procs)
        with trace_scope(self.sim, "pipeline", "sender_release",
                         rank=self._grank, seq=seq, dst=dest):
            yield from engine.pipelined_release(pplan)

    def _recv_pipelined(self, rt, pkt, req: Request):
        """Decompress each partition as it lands.

        A failed partition (timeout, decode error) or a whole-message
        CRC mismatch falls back to the un-pipelined recovery loop: one
        NACK, one full retransmission of the concatenated wire image.
        """
        engine = rt.engine_of(self._grank)
        resil = rt.resilience
        header = pkt.header
        resources = yield from self._receiver_prepare_resilient(
            rt, engine, header, pkt.seq, pkt.src
        )
        data_evs = [
            rt.matching_of(self._grank).expect_data(pkt.seq, part=i)
            for i in range(header.n_partitions)
        ]
        yield from self._reply_cts(rt, pkt)

        failures: list = []

        def part_receiver(i):
            data_pkt = yield from self._await_data(rt, data_evs[i],
                                                   src=pkt.src, seq=pkt.seq)
            if data_pkt is None:
                failures.append(("data_timeout", None))
                return None
            with trace_scope(self.sim, "pipeline", "receiver_complete",
                             rank=self._grank, seq=pkt.seq, src=pkt.src,
                             part=i):
                try:
                    out = yield from engine.pipelined_receive_part(
                        header, i, data_pkt.payload
                    )
                except _DECODE_ERRORS as exc:
                    if rt.retransmit_entry(pkt.seq) is None:
                        raise
                    failures.append(("decode_error", exc))
                    return None
            return out

        procs = [
            self.sim.process(part_receiver(i), name=f"pipe-recv{i}")
            for i in range(header.n_partitions)
        ]
        for p in procs:
            rt.adopt(self._grank, p)
        results = yield self.sim.all_of(procs)
        if not failures:
            parts = [results[i] for i in range(header.n_partitions)]
            data = np.concatenate(parts)
            crc = pkt.crc if resil.integrity else None
            if crc is None or payload_crc32(data) == crc:
                yield from engine._release(resources)
                rt.retire(pkt.seq, True)
                req.complete(data)
                return
            failures.append(("crc_mismatch", None))
        kind, exc = failures[0]
        data = yield from self._complete_with_retries(
            rt, engine, pkt, None, resources,
            initial_failure=kind, initial_exc=exc,
        )
        req.complete(data)

    def _recv_proc(self, source: int, tag: int, req: Request,
                   relay: bool):
        """Receive one message.  With ``relay`` set, the request's value
        is the arrived :class:`WireImage`, checked but not decoded."""
        rt = self._rt
        try:
            yield self.sim.timeout(SETUP_TIME)
            match_ev = rt.matching_of(self._grank).post_recv(source, tag)
            pkt, _ = yield from self._guarded_wait(rt, match_ev, source,
                                                   "envelope")
            if pkt.kind == PacketKind.EAGER:
                req.complete(pkt.payload)
                return
            if pkt.kind != PacketKind.RTS:
                raise MpiError(f"unexpected envelope {pkt!r}")
            if pkt.header is not None and pkt.header.pipelined:
                yield from self._recv_pipelined(rt, pkt, req)
                return
            engine = rt.engine_of(self._grank)
            resources = yield from self._receiver_prepare_resilient(
                rt, engine, pkt.header, pkt.seq, pkt.src
            )
            data_ev = rt.matching_of(self._grank).expect_data(pkt.seq)
            yield from self._reply_cts(rt, pkt)
            data_pkt = yield from self._await_data(rt, data_ev,
                                                   src=pkt.src, seq=pkt.seq)
            data = yield from self._complete_with_retries(
                rt, engine, pkt, data_pkt, resources, relay=relay
            )
            req.complete(data)
        except BaseException as exc:
            req.fail(exc)

    def _reply_cts(self, rt, pkt):
        """Answer the RTS ``pkt`` with a clear-to-send."""
        cts = Packet(PacketKind.CTS, self._grank, pkt.src, pkt.tag, pkt.seq)
        with trace_scope(self.sim, "pipeline", "cts", rank=self._grank,
                         seq=pkt.seq, dst=pkt.src):
            yield from rt.control_delay(self._grank, pkt.src, cts.control_bytes())
            rt.matching_of(pkt.src).deliver_cts(cts)

    # -- resilient receiver machinery ------------------------------------------
    def _receiver_prepare_resilient(self, rt, engine, header, seq: int,
                                    src: int):
        """``receiver_prepare`` with bounded retry on transient
        allocation faults (injected OOM / pool exhaustion)."""
        resil = rt.resilience
        attempt = 0
        while True:
            extra = {"attempt": attempt} if attempt else {}
            err = None
            with trace_scope(self.sim, "pipeline", "receiver_prepare",
                             rank=self._grank, seq=seq, src=src, **extra):
                try:
                    resources = yield from engine.receiver_prepare(header)
                    return resources
                except _TRANSIENT as exc:
                    if rt.faults is None or attempt >= resil.max_retries:
                        raise
                    err = exc
            attempt += 1
            rt.resilience_event("retry", rank=self._grank, seq=seq,
                                stage="receiver_prepare",
                                error=type(err).__name__)
            yield from self._backoff(rt, attempt, seq, "receiver_prepare")

    def _backoff(self, rt, attempt: int, seq: int, reason: str):
        """Exponential backoff + jitter on the simulated clock."""
        delay = rt.resilience.backoff_delay(attempt, rt.resil_rng)
        with trace_scope(self.sim, "resilience", "backoff", rank=self._grank,
                         track="faults", seq=seq, attempt=attempt,
                         reason=reason):
            yield self.sim.timeout(delay)

    def _await_data(self, rt, data_ev, src=None, seq=None):
        """Wait for a DATA packet; ``None`` signals a delivery timeout
        (only possible when the resilience config arms one).  A dead
        sender raises :class:`RankFailedError` via the death watch."""
        pkt, timed_out = yield from self._guarded_wait(
            rt, data_ev, src, "data", seq=seq,
            timeout=rt.resilience.data_timeout)
        return None if timed_out else pkt

    def _complete_with_retries(self, rt, engine, pkt, data_pkt, resources,
                               relay: bool = False,
                               initial_failure: Optional[str] = None,
                               initial_exc: Optional[BaseException] = None):
        """Complete a rendezvous message, NACKing for retransmission on
        failure (CRC mismatch, decode error, or delivery timeout) until
        the message survives or the retry budget is spent.

        The completion step decodes and checks the post-decode CRC; a
        ``relay`` instead checks the wire CRC of the arrived image
        *without decompressing* and returns it as a :class:`WireImage`.
        """
        resil = rt.resilience
        header = pkt.header
        seq = pkt.seq
        attempt = 0
        last_exc = initial_exc
        failure = initial_failure
        while True:
            if failure is None:
                if data_pkt is None:
                    failure = "data_timeout"
                else:
                    extra = {"attempt": attempt} if attempt else {}
                    if pkt.origin_seq is not None:
                        extra["origin_seq"] = pkt.origin_seq
                    with trace_scope(self.sim, "pipeline", "receiver_complete",
                                     rank=self._grank, seq=seq, src=pkt.src,
                                     wire_nbytes=data_pkt.wire_nbytes,
                                     **extra):
                        if relay:
                            wcrc = data_pkt.wire_crc if resil.integrity else None
                            if wcrc is not None \
                                    and payload_crc32(data_pkt.payload) != wcrc:
                                failure = "wire_crc_mismatch"
                            else:
                                data = WireImage(
                                    header=header, payload=data_pkt.payload,
                                    wire_nbytes=data_pkt.wire_nbytes,
                                    crc=data_pkt.crc, wire_crc=data_pkt.wire_crc,
                                    origin_seq=pkt.origin_seq or 0,
                                )
                        else:
                            try:
                                data = yield from engine.receiver_complete(
                                    header, data_pkt.payload, resources
                                )
                            except _DECODE_ERRORS as exc:
                                failure = "decode_error"
                                last_exc = exc
                            else:
                                resources = []  # released by receiver_complete
                                crc = data_pkt.crc if resil.integrity else None
                                if crc is not None and payload_crc32(data) != crc:
                                    failure = "crc_mismatch"
                    if failure is None:
                        if resources:
                            yield from engine._release(resources)
                        rt.retire(seq, True)
                        if attempt:
                            rt.resilience_event("recovered", rank=self._grank,
                                                seq=seq, attempts=attempt)
                        return data
            attempt += 1
            if rt.is_dead(pkt.src):
                # No point NACKing a dead sender; surface the failure
                # instead of burning the retry budget.
                rt.retire(seq, False)
                if resources:
                    yield from engine._release(resources)
                self._raise_rank_failed(rt, pkt.src, failure, seq)
            entry = rt.retransmit_entry(seq)
            rt.resilience_event(failure, rank=self._grank, seq=seq,
                                src=pkt.src, attempt=attempt)
            if entry is None or attempt > resil.max_retries:
                rt.retire(seq, False)
                if resources:
                    yield from engine._release(resources)
                retries = attempt - 1
                what = "wire image" if relay else "message"
                msg = (f"rank {self._grank}: {what} seq {seq} from rank "
                       f"{pkt.src} failed ({failure}) after {retries} "
                       f"retransmission(s)")
                if failure == "data_timeout":
                    raise RendezvousTimeoutError(
                        msg, diagnostic=rt.matching_report())
                if entry is None and last_exc is not None:
                    raise last_exc  # no resilience active: original error
                if failure in ("crc_mismatch", "wire_crc_mismatch"):
                    raise IntegrityError(msg)
                raise RetryExhaustedError(msg) from last_exc
            yield from self._backoff(rt, attempt, seq, failure)
            if not resources and header.compressed:
                resources = yield from self._receiver_prepare_resilient(
                    rt, engine, header, seq, pkt.src
                )
            nack = Packet(PacketKind.CTS, self._grank, pkt.src, pkt.tag, seq)
            with trace_scope(self.sim, "resilience", "nack", rank=self._grank,
                             track="faults", seq=seq, dst=pkt.src,
                             attempt=attempt):
                yield from rt.control_delay(self._grank, pkt.src,
                                            nack.control_bytes())
            rt.notify_nack(seq)
            data_ev = rt.matching_of(self._grank).expect_data(seq, 0, attempt)
            rt.spawn_retransmit(seq, attempt)
            data_pkt = yield from self._await_data(rt, data_ev,
                                                   src=pkt.src, seq=pkt.seq)
            failure = None

    # -- keep-compressed wire images ----------------------------------------------
    #
    # Collectives that forward data across intermediate ranks use these
    # primitives to compress *once* at the originating rank, relay the
    # resulting WireImage hop by hop (each hop verifying only the cheap
    # wire CRC), and decompress *once* at each consumer — instead of a
    # full decode/re-encode at every hop.  The spans these emit carry
    # ``origin_seq`` (never ``seq``) so message stitching and critical-
    # path tiling see only the per-hop protocol groups, while the trace
    # sanitizer can still tie every relayed hop back to its pack site.

    def pack_wire(self, data):
        """Compress ``data`` into a relayable :class:`WireImage`
        (generator subroutine).  Device staging buffers are returned
        immediately — the image itself lives in the collective's
        host-visible staging area and survives any number of sends."""
        rt = self._rt
        engine = rt.engine_of(self._grank)
        origin_seq = rt.next_seq()
        nbytes = self._payload_nbytes(data)
        with trace_scope(self.sim, "pipeline", "pack_wire", rank=self._grank,
                         nbytes=nbytes, origin_seq=origin_seq):
            try:
                plan = yield from engine.sender_prepare(data)
            except _TRANSIENT as exc:
                rt.resilience_event("fallback", rank=self._grank,
                                    seq=origin_seq, error=type(exc).__name__)
                plan = yield from engine.sender_prepare(
                    data, force_uncompressed=True
                )
            yield from engine.sender_release(plan)
        integrity = rt.resilience.integrity
        return WireImage(
            header=plan.header, payload=plan.payload,
            wire_nbytes=plan.wire_nbytes,
            crc=plan.crc if integrity else None,
            wire_crc=payload_crc32(plan.payload) if integrity else None,
            origin_seq=origin_seq,
        )

    def unpack_wire(self, wire: WireImage):
        """Decode a received :class:`WireImage` into user data
        (generator subroutine) — the single decompression of the
        keep-compressed path, checked against the image's
        post-decode CRC when integrity is on."""
        rt = self._rt
        engine = rt.engine_of(self._grank)
        with trace_scope(self.sim, "pipeline", "unpack_wire", rank=self._grank,
                         nbytes=wire.wire_nbytes, origin_seq=wire.origin_seq):
            resources = yield from engine.receiver_prepare(wire.header)
            try:
                data = yield from engine.receiver_complete(
                    wire.header, wire.payload, resources
                )
            except BaseException:
                if resources:
                    yield from engine._release(resources)
                raise
        if wire.crc is not None and payload_crc32(data) != wire.crc:
            raise IntegrityError(
                f"rank {self._grank}: wire image origin_seq={wire.origin_seq} "
                f"failed its post-decode CRC"
            )
        return data

    def reduce_wires(self, acc: WireImage, other: WireImage, op=None):
        """Combine two wire images into a new one (generator
        subroutine): the hZCCL-style fused partial-decode + op +
        re-encode when both operands are compressed, a decode-and-raw-
        accumulate fallback otherwise.  The result is a fresh image
        with its own ``origin_seq``."""
        rt = self._rt
        engine = rt.engine_of(self._grank)
        op = np.add if op is None else op
        integrity = rt.resilience.integrity
        origin_seq = rt.next_seq()
        if acc.compressed and other.compressed \
                and acc.header.algorithm == other.header.algorithm \
                and acc.header.partition_sizes is not None \
                and acc.header.n_partitions == other.header.n_partitions \
                and op is np.add:
            with trace_scope(self.sim, "pipeline", "reduce_wire",
                             rank=self._grank, nbytes=acc.wire_nbytes,
                             origin_seq=origin_seq, fused=True):
                header, payload, crc = yield from engine.reduce_wire_payload(
                    acc.header, acc.payload, other.header, other.payload,
                    want_crc=integrity,
                )
            return WireImage(
                header=header, payload=payload,
                wire_nbytes=int(header.wire_bytes), crc=crc,
                wire_crc=payload_crc32(payload) if integrity else None,
                origin_seq=origin_seq,
            )
        # Mixed / uncompressed / non-sum: decode what needs decoding and
        # keep this accumulator raw from here on.
        with trace_scope(self.sim, "pipeline", "reduce_wire",
                         rank=self._grank, nbytes=acc.wire_nbytes,
                         origin_seq=origin_seq, fused=False):
            a = acc.payload if not acc.compressed else (yield from self.unpack_wire(acc))
            b = other.payload if not other.compressed else (yield from self.unpack_wire(other))
            out = op(a, b)
            nbytes = self._payload_nbytes(out)
        # a raw image's wire bytes are its data: one CRC serves both
        crc = payload_crc32(out) if integrity else None
        return WireImage(
            header=CompressionHeader.uncompressed(nbytes), payload=out,
            wire_nbytes=nbytes, crc=crc, wire_crc=crc, origin_seq=origin_seq,
        )

    def isend_wire(self, wire: WireImage, dest: int, tag: int = 0) -> Request:
        """Nonblocking relay of an already-packed wire image."""
        return self._start_send(wire, dest, tag, relay=True)

    def irecv_wire(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive of a wire image; the request's value is
        the :class:`WireImage` (not decoded — pass it on or unpack)."""
        return self._start_recv(source, tag, relay=True)

    def send_wire(self, wire: WireImage, dest: int, tag: int = 0):
        req = self.isend_wire(wire, dest, tag)
        yield from req.wait()

    def recv_wire(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        req = self.irecv_wire(source, tag)
        wire = yield from req.wait()
        return wire

    def sendrecv_wire(self, wire: WireImage, dest: int,
                      source: int = ANY_SOURCE, sendtag: int = 0,
                      recvtag: int = ANY_TAG):
        sreq = self.isend_wire(wire, dest, sendtag)
        rreq = self.irecv_wire(source, recvtag)
        received = yield from rreq.wait()
        yield from sreq.wait()
        return received

    def keep_compressed_active(self, data=None) -> bool:
        """True when collectives should route ``data`` through the
        keep-compressed wire-image path for this rank's config."""
        cfg = self._rt.engine_of(self._grank).config
        if not (cfg.enabled and cfg.keep_compressed):
            return False
        if data is None:
            return True
        return (isinstance(data, np.ndarray)
                and data.dtype.type in (np.float32, np.float64))

    def wire_reduce_capable(self, op) -> bool:
        """True when this rank's engine can combine compressed wire
        images directly (hZCCL-style) for reduction ``op``."""
        return self._rt.engine_of(self._grank).reduce_capable(op)

    # -- ULFM-style failure recovery ----------------------------------------------
    @property
    def failstop(self):
        """The cluster's fail-stop manager (None without a fail-stop
        plan — the entire recovery surface is inert then)."""
        return self._rt.failstop

    def revoke(self, failed_ranks: tuple = ()) -> None:
        """ULFM ``MPI_Comm_revoke``: mark this communicator revoked and
        interrupt every member still blocked inside a collective on it,
        so all survivors abort the collective deterministically."""
        fs = self._rt.failstop
        if fs is not None:
            fs.revoke(self._comm_id, tuple(failed_ranks))

    def check_revoked(self) -> None:
        """Raise :class:`~repro.errors.CollectiveAbortedError` if this
        communicator has been revoked — new operations must move to a
        shrunk communicator."""
        fs = self._rt.failstop
        if fs is not None and fs.is_revoked(self._comm_id):
            failed = fs.revoked_failures(self._comm_id)
            raise CollectiveAbortedError(
                f"rank {self._grank}: communicator {self._comm_id} is "
                f"revoked (failed ranks {sorted(failed)})",
                failed_ranks=failed)

    def agree_failures(self):
        """ULFM ``MPI_Comm_agree`` on the failed set (generator
        subroutine): every survivor of this communicator returns the
        *same* tuple of dead global ranks.

        Protocol: leader (lowest surviving rank) gathers each
        survivor's failure snapshot, unions them, records the decision,
        and replies with the decided set.  Round ``k`` is keyed (via
        tags) by the snapshot size, which only grows — so rounds cannot
        cross-match, and any wait that observes a *new* death restarts
        at the bigger snapshot, re-aligning all participants.  A reply
        from an older round is still a valid agreement (a death it
        misses is found by the next recovery cycle, as in ULFM); the
        decision board covers the window where a deciding leader dies
        mid-reply-distribution.
        """
        rt = self._rt
        fs = rt.failstop
        if fs is None:
            return ()
        board = rt.agreed_failures(self._comm_id)
        if board is not None:
            return board
        pending: dict = {}  # round key -> pending reply Request
        while True:
            snapshot = tuple(sorted(g for g in self._group
                                    if fs.is_dead(g)))
            key = len(snapshot)
            survivors = [r for r in range(self.size)
                         if self._group[r] not in snapshot]
            watch = [g for g in self._group if g not in snapshot]
            leader = survivors[0]
            try:
                if self.rank == leader:
                    views = set(snapshot)
                    for peer in survivors[1:]:
                        req = self.irecv(peer, _AGREE_TAG + key)
                        view = yield from self._agree_wait(
                            rt, fs, req.completion_event(), watch, pending)
                        views.update(view)
                    decided = tuple(sorted(views))
                    # Board first: the decision survives even if this
                    # leader dies while distributing the replies.
                    rt.record_agreement(self._comm_id, decided)
                    for peer in survivors[1:]:
                        self.isend(decided, peer, _AGREE_REPLY_TAG + key)
                    return decided
                yield from self.send(snapshot, leader, _AGREE_TAG + key)
                if key not in pending:
                    pending[key] = self.irecv(
                        leader, _AGREE_REPLY_TAG + key)
                yield from self._agree_wait(rt, fs, None, watch, pending)
                raise _AgreementRestart()  # no reply, no death: re-poll
            except _AgreementRestart:
                continue
            except _AgreementDecided as done:
                return done.decided

    def _agree_wait(self, rt, fs, ev, watch, pending):
        """One guarded agreement wait.  Returns ``ev``'s value; raises
        :class:`_AgreementDecided` when a decision arrives by any other
        path, :class:`_AgreementRestart` when a watched member dies
        first."""
        # Purge reply requests whose round collapsed (leader died).
        for k in [k for k, r in pending.items()
                  if r.done and r._failed is not None]:
            del pending[k]
        reply_evs = {k: r.completion_event() for k, r in pending.items()}
        deaths = [fs.death_event(g) for g in watch]
        race = ([ev] if ev is not None else []) \
            + list(reply_evs.values()) + deaths
        try:
            yield self.sim.any_of(race)
        except RankFailedError:
            raise _AgreementRestart()
        for k in sorted(reply_evs, reverse=True):
            e = reply_evs[k]
            if e.triggered and e.ok:
                raise _AgreementDecided(tuple(e.value))
        if any(d.triggered for d in deaths):
            board = rt.agreed_failures(self._comm_id)
            if board is not None:
                raise _AgreementDecided(board)
            raise _AgreementRestart()
        if ev is not None and ev.triggered and ev.ok:
            return ev.value
        raise _AgreementRestart()

    def shrink(self):
        """ULFM ``MPI_Comm_shrink`` (generator subroutine): agree on
        the failed set and derive a fresh, re-ranked communicator over
        the survivors.  Every survivor must call it; all get the same
        group and a new ``comm_id`` (so the revoked communicator's
        traffic can never leak into the new one)."""
        failed = yield from self.agree_failures()
        new_group = tuple(g for g in self._group if g not in failed)
        return self._rt.derive_comm(self._grank, new_group)

    def subset(self, granks) -> "Communicator":
        """Derive (non-collectively, host-side) a communicator over
        global ranks ``granks`` — the deterministic constructor used by
        failure-free reference runs to mirror a shrunk communicator."""
        group = tuple(granks)
        if self._grank not in group:
            raise MpiError(
                f"rank {self._grank} is not in subset group {group}")
        return self._rt.derive_comm(self._grank, group)

    # -- application checkpoint/restart --------------------------------------------
    def checkpoint(self, step: int, state) -> None:
        """Store this rank's application state for ``step`` (host-side
        bookkeeping: zero simulated time, zero spans).  Callers own the
        copy-on-write discipline — pass a snapshot, not a live buffer."""
        self._rt.store_checkpoint(self._grank, step, state)

    def restore(self, step=None):
        """``(step, state)`` checkpoint of this rank — the latest one,
        or a specific ``step`` (so survivors can roll back to an agreed
        common step after a failure).  None when absent."""
        return self._rt.load_checkpoint(self._grank, step)

    def should_checkpoint(self, step: int) -> bool:
        """True when the cluster's ``checkpoint_every`` cadence says
        step ``step`` (0-based) should end with a checkpoint."""
        n = self._rt.checkpoint_every
        return bool(n) and (step + 1) % n == 0

    # -- collectives --------------------------------------------------------------
    def bcast(self, data, root: int = 0):
        """Binomial-tree broadcast (generator subroutine).  Returns the
        broadcast data on every rank."""
        result = yield from _coll.bcast(self, data, root)
        return result

    def allgather(self, data):
        """Ring allgather; returns a list of every rank's contribution."""
        result = yield from _coll.allgather(self, data)
        return result

    def gather(self, data, root: int = 0):
        result = yield from _coll.gather(self, data, root)
        return result

    def scatter(self, chunks, root: int = 0):
        result = yield from _coll.scatter(self, chunks, root)
        return result

    def reduce(self, data, root: int = 0, op=None):
        result = yield from _coll.reduce(self, data, root, op)
        return result

    def allreduce(self, data, op=None, algorithm=None):
        """Allreduce via ``algorithm``: ``"ring"`` (reduce-scatter +
        allgather, any size), ``"recursive_doubling"`` (power-of-two
        sizes) or ``"reduce_bcast"``; ``None`` picks recursive doubling
        for power-of-two sizes and the ring otherwise."""
        result = yield from _coll.allreduce(self, data, op, algorithm)
        return result

    def alltoall(self, chunks):
        result = yield from _coll.alltoall(self, chunks)
        return result

    def barrier(self):
        yield from _coll.barrier(self)
