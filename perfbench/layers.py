"""Traced pass: split a workload's host time across the repo's modules.

While a traced pass runs, the public entry points of every layer are
replaced, from this file, by wrappers that record a span (key, start,
end, parent) around each call.  A call that returns a generator gets a
proxy generator that records one span per resume, and every generator
handed to ``Simulator.process`` is proxied the same way and charged to
the module that defines it, so protocol processes such as
``Communicator._send_proc`` count as ``mpi``.  A span's self time is its
duration minus the time its child spans cover; a layer's self time is
the sum over its spans.  ``Simulator.run`` time that no other span
covers is the engine's own (``sim``).

The wrappers change no argument, return value or exception, so the
simulated outputs of a traced pass must equal those of an untraced
one; ``run.py`` checks that.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter
from types import GeneratorType

import numpy as np

_clock = time.perf_counter

#: module-name prefix -> layer; the first match wins
MODULE_LAYERS = (
    ("repro.sim.trace", "trace"),
    ("repro.analysis.metrics", "trace"),
    ("repro.sim.", "sim"),
    ("repro.mpi.", "mpi"),
    ("repro.network.", "network"),
    ("repro.gpu.", "gpu"),
    ("repro.core.", "core"),
    ("repro.compression.cache", "cache"),
    ("repro.compression.", "compression"),
    ("repro.faults.", "faults"),
    ("perfbench.", "bench"),
)

LAYERS = ("sim", "mpi", "network", "gpu", "core", "compression", "cache",
          "trace", "faults", "bench")

#: (module, class, methods) wrapped during a traced pass
ENTRY_POINTS = (
    ("repro.sim.engine", "Simulator", ("process", "timeout", "run")),
    ("repro.sim.resources", "Resource", ("request", "release")),
    ("repro.sim.resources", "TokenPool", ("acquire", "release")),
    ("repro.sim.resources", "Store", ("put", "get")),
    ("repro.mpi.cluster", "Cluster", ("run",)),
    ("repro.mpi.cluster", "Runtime", ("transfer", "control_delay",
                                      "spawn_retransmit", "resilience_event")),
    ("repro.mpi.comm", "Communicator", (
        "isend", "irecv", "send", "recv", "sendrecv",
        "pack_wire", "unpack_wire", "reduce_wires",
        "isend_wire", "irecv_wire", "send_wire", "recv_wire", "sendrecv_wire",
        "bcast", "allgather", "gather", "scatter", "reduce", "allreduce",
        "alltoall", "barrier")),
    ("repro.mpi.matching", "MatchingEngine", (
        "post_recv", "deliver_envelope", "deliver_cts", "deliver_data",
        "expect_cts", "expect_data")),
    ("repro.mpi.request", "Request", ("wait",)),
    ("repro.network.topology", "Topology", (
        "__init__", "route", "transfer", "path_bandwidth", "path_latency")),
    ("repro.gpu.device", "Device", ("__init__", "run_kernel", "malloc", "free")),
    ("repro.gpu.stream", "Stream", ("run_kernel", "memcpy_d2d")),
    ("repro.gpu.pool", "BufferPool", ("acquire", "release")),
    ("repro.gpu.pool", "SizeClassBufferPool", ("acquire", "release")),
    ("repro.core.engine", "CompressionEngine", (
        "__init__", "sender_prepare", "sender_prepare_pipelined",
        "sender_release", "pipelined_release", "pipelined_receive_part",
        "receiver_prepare", "receiver_complete", "reduce_wire_payload")),
    ("repro.compression.cache", "CodecCache", ("compress", "decompress")),
    ("repro.sim.trace", "Tracer", ("span", "open_span", "begin", "end")),
    ("repro.analysis.metrics", "MetricsRegistry", ("inc", "observe")),
    ("repro.faults.injector", "FaultInjector", (
        "transfer_outcome", "corrupt_payload", "extra_wire_delay",
        "should_fail_malloc", "should_fail_pool", "should_fail_compress",
        "maybe_corrupt_decompressed", "emit")),
)

#: codec methods wrapped on every Compressor subclass that defines them
CODEC_METHODS = ("compress", "decompress", "reduce_compressed")

#: modules whose Compressor subclasses must be loaded before wrapping
_CODEC_MODULES = ("repro.compression.registry", "repro.faults.codec")

MiB = float(1 << 20)


def layer_of(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix):
            return layer
    return "other"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class Recorder:
    """In-memory span store plus per-key self time and named counters."""

    def __init__(self):
        self.keys: list[tuple[str, str]] = []
        self._kid: dict[tuple[str, str], int] = {}
        self._stack: list[list] = []
        self.reset()

    def key(self, layer: str, name: str) -> int:
        k = (layer, name)
        kid = self._kid.get(k)
        if kid is None:
            kid = self._kid[k] = len(self.keys)
            self.keys.append(k)
            self.self_s.append(0.0)
        return kid

    def reset(self) -> None:
        self.self_s = [0.0] * len(self.keys)
        self.counts: Counter = Counter()
        self.s_key = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack.clear()

    def open(self, kid: int) -> None:
        stack = self._stack
        idx = len(self.s_key)
        self.s_key.append(kid)
        self.s_parent.append(stack[-1][3] if stack else -1)
        t = _clock()
        self.s_start.append(t)
        self.s_end.append(t)
        stack.append([kid, t, 0.0, idx])

    def close(self) -> None:
        t = _clock()
        stack = self._stack
        kid, t0, child, idx = stack.pop()
        d = t - t0
        self.self_s[kid] += d - child
        self.s_end[idx] = t
        if stack:
            stack[-1][2] += d

    # -- results -------------------------------------------------------------
    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS + ("other",)}
        for (layer, _), s in zip(self.keys, self.self_s):
            out[layer] += s
        return out

    def self_where(self, layer: str, pred) -> float:
        return sum(s for (lay, name), s in zip(self.keys, self.self_s)
                   if lay == layer and pred(name))

    def write(self, path: str) -> None:
        """Write the spans out (``.npz``: key/parent/start/end arrays and
        the key names as JSON)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, key=np.frombuffer(self.s_key, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
            keys=np.array(json.dumps(self.keys)))


def _proxy(rec: Recorder, gen, kid: int, done=None, args=(), kwargs=None):
    """A generator that behaves as ``gen`` and records one span per
    resume; it carries ``gen``'s name, which ``Simulator.process`` uses
    as the default process name."""
    proxy = _timed_gen(rec, gen, kid, done, args, kwargs)
    proxy.__name__ = gen.__name__
    proxy.__qualname__ = gen.__qualname__
    return proxy


def _timed_gen(rec: Recorder, gen, kid: int, done, args, kwargs):
    """Drive ``gen`` exactly as ``yield from gen`` would, recording one
    span per resume."""
    send = gen.send
    value = None
    exc = None
    while True:
        rec.open(kid)
        try:
            out = send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            rec.close()
            if done is not None:
                done(rec, args, kwargs, stop.value)
            return stop.value
        except BaseException:
            rec.close()
            raise
        rec.close()
        try:
            value = yield out
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # forwarded into gen, like yield from
            exc = e
            value = None


# -- counters fed from the wrapped calls ---------------------------------------

def _count(name):
    def on_call(rec, args, kwargs):
        rec.counts[name] += 1
    return on_call


def _on_isend(rec, args, kwargs):
    nbytes = int(getattr(_arg(args, kwargs, 1, "data"), "nbytes", 0))
    _note_message(rec, nbytes)


def _on_isend_wire(rec, args, kwargs):
    wire = _arg(args, kwargs, 1, "wire")
    h = wire.header
    nbytes = (h.n_elements * np.dtype(h.dtype_name).itemsize
              if h.compressed else wire.wire_nbytes)
    _note_message(rec, nbytes)


def _note_message(rec, nbytes: int) -> None:
    c = rec.counts
    c["mpi.msgs"] += 1
    c["census.msg_bytes"] += nbytes
    if nbytes >= rec.threshold:
        c["census.large_bytes"] += nbytes


def _on_envelope(rec, args, kwargs):
    pkt = _arg(args, kwargs, 1, "pkt")
    c = rec.counts
    if pkt.kind.name == "RTS":
        c["mpi.rndv_msgs"] += 1
        if pkt.header is not None and pkt.header.compressed:
            c["census.compressed_msgs"] += 1
    else:
        c["mpi.eager_msgs"] += 1


def _on_transfer(rec, args, kwargs):
    rec.counts["network.transfers"] += 1
    rec.counts["network.wire_bytes"] += int(_arg(args, kwargs, 3, "nbytes"))


def _on_plan(rec, args, kwargs, plan):
    rec.counts["core.sends_prepared"] += 1
    if plan is not None and plan.header.compressed:
        rec.counts["core.compressed_plans"] += 1


def _on_encode(rec, args, kwargs, comp):
    rec.counts["compression.encode_in"] += int(_arg(args, kwargs, 1, "data").nbytes)
    rec.counts["compression.encode_out"] += int(comp.nbytes)


def _on_decode(rec, args, kwargs, out):
    rec.counts["compression.decode_out"] += int(out.nbytes)


def _on_retransmit(rec, args, kwargs, spawned):
    if spawned:
        rec.counts["faults.retransmits"] += 1


def _on_resilience(rec, args, kwargs):
    if _arg(args, kwargs, 1, "kind") == "fallback":
        rec.counts["faults.fallbacks"] += 1


#: "Class.method" -> called before the wrapped call
ON_CALL = {
    "Simulator.timeout": _count("sim.timeouts"),
    "Communicator.isend": _on_isend,
    "Communicator.isend_wire": _on_isend_wire,
    "MatchingEngine.deliver_envelope": _on_envelope,
    "Topology.route": _count("network.routes"),
    "Topology.transfer": _on_transfer,
    "Device.run_kernel": _count("gpu.kernels"),
    "BufferPool.acquire": _count("gpu.pool_acquires"),
    "MetricsRegistry.inc": _count("trace.metric_updates"),
    "MetricsRegistry.observe": _count("trace.metric_updates"),
    "FaultInjector.emit": _count("faults.injected"),
    "Runtime.resilience_event": _on_resilience,
}

#: "Class.method" -> called with the result (a generator's return value)
ON_RESULT = {
    "CompressionEngine.sender_prepare": _on_plan,
    "CompressionEngine.sender_prepare_pipelined": _on_plan,
    "Runtime.spawn_retransmit": _on_retransmit,
}

#: codec method -> called with its result (real codecs, not fault proxies)
CODEC_RESULT = {"compress": _on_encode, "decompress": _on_decode}


def _spin(seconds: float) -> None:
    end = _clock() + seconds
    while _clock() < end:
        pass


class Instrumentation:
    """Installs the wrappers for the duration of a ``with`` block.

    ``delays`` maps ``"Class.method"`` to host seconds spent inside
    that entry point's span on every call; the benchmark's self-check
    uses it to prove attribution lands in the right layer.
    """

    def __init__(self, rec: Recorder, threshold: int, delays=None):
        self.rec = rec
        rec.threshold = threshold
        self.delays = dict(delays or {})
        self._saved: list[tuple[type, str, object]] = []
        self._code_kid: dict = {}
        self._file_module: dict[str, str] = {}

    # -- wrapper factories ---------------------------------------------------
    def _wrap(self, cls, name: str, layer: str, on_call=None, done=None):
        fn = cls.__dict__[name]
        qual = f"{cls.__name__}.{name}"
        rec = self.rec
        kid = rec.key(layer, qual)
        delay = self.delays.get(qual, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(rec, args, kwargs)
            rec.open(kid)
            try:
                result = fn(*args, **kwargs)
                if delay:
                    _spin(delay)
            finally:
                rec.close()
            if type(result) is GeneratorType:
                return _proxy(rec, result, kid, done, args, kwargs)
            if done is not None:
                done(rec, args, kwargs, result)
            return result

        self._saved.append((cls, name, fn))
        setattr(cls, name, wrapper)

    def _module_of(self, filename: str) -> str:
        path = os.path.abspath(filename)
        if path not in self._file_module:
            for modname, mod in list(sys.modules.items()):
                f = getattr(mod, "__file__", None)
                if f:
                    self._file_module[os.path.abspath(f)] = modname
        return self._file_module.get(path, "")

    def _process_kid(self, gen) -> int:
        code = gen.gi_code
        kid = self._code_kid.get(code)
        if kid is None:
            layer = layer_of(self._module_of(code.co_filename))
            kid = self._code_kid[code] = self.rec.key(
                layer, f"resume {getattr(code, 'co_qualname', code.co_name)}")
        return kid

    def _wrap_process(self, sim_cls):
        fn = sim_cls.__dict__["process"]
        rec = self.rec
        kid = rec.key("sim", "Simulator.process")
        proxy_code = _timed_gen.__code__
        process_kid = self._process_kid

        @functools.wraps(fn)
        def process(sim, gen, name=""):
            rec.counts["sim.processes"] += 1
            rec.open(kid)
            try:
                if type(gen) is GeneratorType and gen.gi_code is not proxy_code:
                    gen = _proxy(rec, gen, process_kid(gen))
                return fn(sim, gen, name)
            finally:
                rec.close()

        self._saved.append((sim_cls, "process", fn))
        setattr(sim_cls, "process", process)

    # -- install / uninstall ---------------------------------------------------
    def __enter__(self):
        for modname in _CODEC_MODULES:
            importlib.import_module(modname)
        for modname, clsname, methods in ENTRY_POINTS:
            cls = getattr(importlib.import_module(modname), clsname)
            layer = layer_of(modname)
            for m in methods:
                qual = f"{clsname}.{m}"
                if qual == "Simulator.process":
                    self._wrap_process(cls)
                    continue
                self._wrap(cls, m, layer, ON_CALL.get(qual), ON_RESULT.get(qual))
        from repro.compression.base import Compressor

        todo = [Compressor]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            layer = layer_of(cls.__module__)
            real = layer == "compression"  # not a fault-injecting proxy
            for m in CODEC_METHODS:
                if m not in cls.__dict__:
                    continue
                done = CODEC_RESULT.get(m) if real else None
                self._wrap(cls, m, layer, done=done)
        return self

    def __exit__(self, *exc):
        while self._saved:
            cls, name, fn = self._saved.pop()
            setattr(cls, name, fn)
        return False


# -- per-layer metrics -----------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, traced, untraced_wall: float,
                  fault_jobs: int, fault_jobs_ok: int) -> dict[str, float]:
    """Every per-layer metric of one traced pass (``traced`` is its
    :class:`~perfbench.workloads.PassResult`)."""
    c = rec.counts
    lay = rec.layer_self()
    msgs = c["mpi.msgs"]
    wall = traced.wall
    attributed = sum(lay[layer] for layer in LAYERS)
    encode_s = rec.self_where("compression", lambda n: n.endswith(".compress"))
    decode_s = rec.self_where("compression", lambda n: n.endswith(".decompress"))
    reduce_s = rec.self_where("compression",
                              lambda n: n.endswith(".reduce_compressed"))
    cache = traced.cache
    lookups = cache["hits"] + cache["misses"]
    return {
        "sim.self_s": lay["sim"],
        "sim.processes": c["sim.processes"],
        "sim.timeouts": c["sim.timeouts"],
        "sim.procs_per_msg": _ratio(c["sim.processes"], msgs),
        "mpi.self_s": lay["mpi"],
        "mpi.matching_s": rec.self_where(
            "mpi", lambda n: n.startswith("MatchingEngine.")),
        "mpi.msgs": msgs,
        "mpi.eager_msgs": c["mpi.eager_msgs"],
        "mpi.rndv_msgs": c["mpi.rndv_msgs"],
        "mpi.host_us_per_msg": _ratio(lay["mpi"] * 1e6, msgs),
        "network.self_s": lay["network"],
        "network.transfers": c["network.transfers"],
        "network.routes": c["network.routes"],
        "network.wire_mb": c["network.wire_bytes"] / MiB,
        "gpu.self_s": lay["gpu"],
        "gpu.kernels": c["gpu.kernels"],
        "gpu.pool_acquires": c["gpu.pool_acquires"],
        "core.self_s": lay["core"],
        "core.sends_prepared": c["core.sends_prepared"],
        "core.compressed_share": _ratio(c["core.compressed_plans"],
                                        c["core.sends_prepared"]),
        "compression.self_s": lay["compression"],
        "compression.encode_s": encode_s,
        "compression.decode_s": decode_s,
        "compression.reduce_s": reduce_s,
        "compression.encode_mb_per_s": _ratio(
            c["compression.encode_in"] / MiB, encode_s),
        "compression.decode_mb_per_s": _ratio(
            c["compression.decode_out"] / MiB, decode_s),
        "compression.ratio": _ratio(c["compression.encode_in"],
                                    c["compression.encode_out"]),
        "cache.self_s": lay["cache"],
        "cache.hit_ratio": _ratio(cache["hits"], lookups),
        "cache.bytes_saved_mb": cache["bytes_saved"] / MiB,
        "cache.resident_mb": cache["bytes"] / MiB,
        "trace.self_s": lay["trace"],
        "trace.spans": sum(o.spans for o in traced.outcomes),
        "trace.metric_updates": c["trace.metric_updates"],
        "faults.injected": c["faults.injected"],
        "faults.retransmits": c["faults.retransmits"],
        "faults.fallbacks": c["faults.fallbacks"],
        "faults.recovered_ratio": _ratio(fault_jobs_ok, fault_jobs),
        "bench.self_s": lay["bench"],
        "bench.wall_s": untraced_wall,
        "bench.trace_overhead_ratio": _ratio(wall, untraced_wall),
        "bench.unattributed_share": _ratio(wall - attributed, wall),
        "census.eager_share": _ratio(c["mpi.eager_msgs"],
                                     c["mpi.eager_msgs"] + c["mpi.rndv_msgs"]),
        "census.large_bytes_share": _ratio(c["census.large_bytes"],
                                           c["census.msg_bytes"]),
        "census.compressed_send_share": _ratio(
            c["census.compressed_msgs"],
            c["mpi.eager_msgs"] + c["mpi.rndv_msgs"]),
    }
