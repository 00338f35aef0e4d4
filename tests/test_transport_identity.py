"""Pinned fingerprints of the rendezvous transport.

Every scenario below runs a point-to-point exchange or a keep-compressed
collective (WireImage relays) under one of four fault plans and reduces
the whole observable outcome — the Chrome-trace JSON, the metrics, the
simulated elapsed time and the bytes every rank returned — to one
sha256 digest.  The digests in ``data/transport_fingerprints.json``
must not move under a refactor of the protocol code: together they
cover the eager, rendezvous, pipelined and relay paths and the NACK /
retransmit / timeout / fallback recovery of both.

Regenerate after an *intentional* protocol or instrumentation change::

    PYTHONPATH=src python tests/make_transport_fingerprints.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import to_chrome_trace
from repro.analysis.bench import named_config
from repro.core import CompressionConfig
from repro.faults import FaultPlan
from repro.mpi.cluster import Cluster
from repro.network.presets import machine_preset
from repro.omb.payload import make_payload
from repro.utils.units import KiB, MiB

FINGERPRINTS = Path(__file__).parent / "data" / "transport_fingerprints.json"

FAULT_PLANS = {
    "clean": None,
    "corrupt-drop": FaultPlan(seed=3, corrupt_rate=0.25, drop_rate=0.1),
    "drop": FaultPlan(seed=5, drop_rate=0.1),
    "corrupt-compfail": FaultPlan(seed=11, corrupt_rate=0.1,
                                  compress_fail_rate=0.2),
}

PT2PT_CONFIGS = ("baseline", "mpc-opt", "zfp8", "zfp8-pipe")
PT2PT_SIZES = {"4K": 4 * KiB, "1M": 1 * MiB}

#: every transport codec and sender variant of the compression engine,
#: as (config, payload dtype), pinned above the compression threshold on
#: the clean and compress-fail plans.  The SZ bound is a power of two so
#: the float32 copy carried in the header is exact.
CODEC_CONFIGS = {
    "naive-mpc": (named_config("naive-mpc"), np.float32),
    "naive-zfp": (named_config("naive-zfp"), np.float32),
    "adaptive": (named_config("adaptive"), np.float32),
    "mpc-pipe": (CompressionConfig.mpc_opt().with_(pipeline=True,
                                                   partitions=8), np.float32),
    "fpc": (CompressionConfig(enabled=True, algorithm="fpc"), np.float32),
    "null": (CompressionConfig(enabled=True, algorithm="null"), np.float32),
    "gfc-f64": (CompressionConfig(enabled=True, algorithm="gfc"), np.float64),
    "sz-f64": (CompressionConfig(enabled=True, algorithm="sz",
                                 sz_error_bound=2.0 ** -10), np.float64),
}
CODEC_SIZES = {"1M": 1 * MiB, "4M": 4 * MiB}
CODEC_PLANS = ("clean", "corrupt-compfail")

#: keep-compressed collectives on Longhorn 2x2 under MPC-OPT; each
#: per-rank chunk is above the 128 KiB compression threshold so every
#: multi-hop exchange relays WireImages by rendezvous.
COLLECTIVES = ("bcast", "allgather", "allreduce-ring", "allreduce-rdouble",
               "alltoall", "scatter")


def _payload(nbytes, dtype=np.float32):
    """``nbytes`` of the wave payload, widened to ``dtype``."""
    words = nbytes // np.dtype(dtype).itemsize
    return make_payload("wave", 4 * words, seed=1).astype(dtype)


def _pt2pt(data):
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=1)

    def rank_fn(comm):
        if comm.rank == 0:
            yield from comm.send(data, 1, tag=9)
            got = yield from comm.recv(1, tag=10)
            return got
        got = yield from comm.recv(0, tag=9)
        yield from comm.send(got, 0, tag=10)
        return got

    return cluster, rank_fn


def _collective(op):
    cluster = Cluster(machine_preset("longhorn"), nodes=2, gpus_per_node=2)

    def rank_fn(comm):
        n = comm.size
        mine = make_payload("wave", 512 * KiB, seed=comm.rank)
        if op == "bcast":
            out = yield from comm.bcast(mine, root=0)
        elif op == "allgather":
            out = yield from comm.allgather(mine)
        elif op == "allreduce-ring":
            out = yield from comm.allreduce(
                make_payload("wave", 2 * MiB, seed=comm.rank),
                algorithm="ring")
        elif op == "allreduce-rdouble":
            out = yield from comm.allreduce(mine,
                                            algorithm="recursive_doubling")
        elif op == "alltoall":
            out = yield from comm.alltoall(
                [make_payload("wave", 256 * KiB, seed=comm.rank * n + p)
                 for p in range(n)])
        else:  # scatter
            chunks = [make_payload("wave", 256 * KiB, seed=p)
                      for p in range(n)] if comm.rank == 0 else None
            out = yield from comm.scatter(chunks, root=0)
        return out

    return cluster, rank_fn, named_config("mpc-opt")


def scenarios() -> list[str]:
    names = [f"pt2pt/{cfg}/{size}/{plan}"
             for cfg in PT2PT_CONFIGS for size in PT2PT_SIZES
             for plan in FAULT_PLANS]
    names += [f"pt2pt/{cfg}/{size}/{plan}"
              for cfg in CODEC_CONFIGS for size in CODEC_SIZES
              for plan in CODEC_PLANS]
    names += [f"coll/{op}/{plan}" for op in COLLECTIVES
              for plan in FAULT_PLANS]
    return names


def _hash_values(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"array:{value.dtype}:{value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (list, tuple)):
        h.update(f"seq:{len(value)}:".encode())
        for v in value:
            _hash_values(h, v)
    else:
        h.update(f"value:{value!r}:".encode())


def fingerprint(name: str) -> str:
    """sha256 over the outcome of scenario ``name``."""
    kind, *rest = name.split("/")
    if kind == "pt2pt":
        cfg, size, plan = rest
        if cfg in CODEC_CONFIGS:
            config, dtype = CODEC_CONFIGS[cfg]
            data = _payload(CODEC_SIZES[size], dtype)
        else:
            config, data = named_config(cfg), _payload(PT2PT_SIZES[size])
        cluster, rank_fn = _pt2pt(data)
    else:
        op, plan = rest
        cluster, rank_fn, config = _collective(op)
    res = cluster.run(rank_fn, config=config, faults=FAULT_PLANS[plan])
    h = hashlib.sha256()
    doc = to_chrome_trace(res.tracer, elapsed=res.elapsed)
    h.update(json.dumps(doc, sort_keys=True).encode())
    h.update(json.dumps(res.tracer.metrics.as_dict(), sort_keys=True).encode())
    h.update(repr(res.elapsed).encode())
    _hash_values(h, res.values)
    return h.hexdigest()


def compute_fingerprints() -> dict[str, str]:
    return {name: fingerprint(name) for name in scenarios()}


def _pinned() -> dict:
    return json.loads(FINGERPRINTS.read_text())


def test_pinned_set_matches_scenarios():
    assert sorted(_pinned()) == sorted(scenarios())


@pytest.mark.parametrize("name", scenarios())
def test_transport_fingerprint(name):
    assert fingerprint(name) == _pinned()[name]
