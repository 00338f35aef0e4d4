"""The four benchmark workloads: fixed job lists driven through the
public ``repro`` API, plus the pass runner that times and verifies them.

A *job* is one ``Cluster.run``: one ping-pong point or one collective
invocation.  A *pass* runs a workload's whole job list once, cold: the
process-wide codec cache is cleared first, because users run each sweep
once.  Only the ``Cluster.run`` calls are timed; output verification
happens after each job, outside the timed region.
"""

from __future__ import annotations

import gc
import math
import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.analysis.bench import named_config
from repro.compression.cache import GLOBAL_CODEC_CACHE
from repro.core.config import CompressionConfig
from repro.datasets.catalog import dataset_names
from repro.faults import FaultPlan
from repro.mpi.cluster import Cluster
from repro.mpi.resilience import ResilienceConfig
from repro.omb.payload import make_payload

KiB = 1024
MiB = 1024 * KiB

#: largest |error| one ZFP rate-8 hop may leave, as a share of the
#: payload's largest magnitude.  Fixed-rate ZFP has no absolute bound;
#: on the pt2pt sweep's Table III payloads (seeds 0-39) the worst share
#: measured 0.96 after one hop and 2.41 after the echo's two hops.  The
#: echoed copy gets twice the bound.
ZFP8_ERROR_SHARE = 2.0


@dataclass
class Job:
    """One ``Cluster.run`` with the inputs it needs and how to check it."""

    name: str
    cluster: Cluster
    config: CompressionConfig
    rank_fn: Callable
    args: tuple
    #: simulated latency of the job, from its ClusterResult
    latency: Callable
    #: ``check(values) -> None`` raises JobError on a wrong output
    check: Callable
    #: the simulator's own span recorder (a property of the workload)
    trace: bool = True
    faults: Optional[FaultPlan] = None
    resilience: Optional[ResilienceConfig] = None
    max_time: Optional[float] = None

    def run(self):
        return self.cluster.run(self.rank_fn, config=self.config,
                                args=self.args, faults=self.faults,
                                resilience=self.resilience,
                                max_time=self.max_time, trace=self.trace)


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list


class JobError(Exception):
    """A job delivered a payload that fails verification."""


@dataclass
class JobOutcome:
    name: str
    ok: bool
    error: str = ""
    #: simulated latency in seconds (None when the job raised)
    latency: Optional[float] = None
    #: CRC-32 over every delivered buffer and the latency
    digest: Optional[int] = None
    #: spans the simulator's own recorder kept (0 when it was off)
    spans: int = 0


@dataclass
class PassResult:
    #: host seconds spent inside the jobs' ``Cluster.run`` calls
    wall: float
    outcomes: list
    cache: dict

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    def signature(self) -> tuple:
        """Simulated outputs of the pass: per-job latency and digest."""
        return tuple((o.name, o.latency, o.digest) for o in self.outcomes)


# -- verification ------------------------------------------------------------

def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).reshape(-1).view(np.uint8)


def _same_bits(got, want) -> bool:
    got = np.asarray(got)
    return (got is want) or (got.dtype == want.dtype and got.shape == want.shape
                             and np.array_equal(_bits(got), _bits(want)))


def _expect_exact(got, want, what: str) -> None:
    if not _same_bits(got, want):
        raise JobError(f"{what}: delivered bytes differ from what was sent")


def _expect_close(got, want, bound: float, what: str) -> None:
    got = np.asarray(got)
    if got.shape != want.shape:
        raise JobError(f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want)))  # inf/NaN fail the check
    if not err <= bound:
        raise JobError(f"{what}: max abs error {err:.6g} > bound {bound:.6g}")


def _digest(values, latency: float) -> int:
    """CRC-32 over every array the ranks returned, in rank order."""
    crc = zlib.crc32(repr(latency).encode())
    seen: dict[int, int] = {}

    def walk(v):
        nonlocal crc
        if isinstance(v, np.ndarray):
            key = id(v)
            if key not in seen:
                seen[key] = zlib.crc32(_bits(v))
            crc = zlib.crc32(seen[key].to_bytes(4, "little"), crc)
        elif isinstance(v, (list, tuple)):
            for item in v:
                walk(item)
        else:
            crc = zlib.crc32(repr(v).encode(), crc)

    walk(values)
    return crc


# -- rank functions (OMB-style, public Communicator API only) ----------------

def _pingpong(comm, data, iterations: int):
    """Rank 0 sends, rank 1 echoes what it received; both keep every
    buffer delivered to them."""
    peer = 1 - comm.rank
    got = []
    for _ in range(iterations):
        if comm.rank == 0:
            yield from comm.send(data, peer, tag=1)
            back = yield from comm.recv(peer, tag=2)
            got.append(back)
        else:
            msg = yield from comm.recv(peer, tag=1)
            yield from comm.send(msg, peer, tag=2)
            got.append(msg)
    return got


def _collective(comm, op: str, inputs, algorithm: Optional[str], repeat: int,
                root: int):
    """``repeat`` invocations of one collective; returns every output."""
    mine = inputs[comm.rank]
    outs = []
    for _ in range(repeat):
        if op == "bcast":
            out = yield from comm.bcast(mine if comm.rank == root else None,
                                        root=root)
        elif op == "allgather":
            out = yield from comm.allgather(mine)
        elif op == "alltoall":
            out = yield from comm.alltoall(mine)
        elif op == "allreduce":
            out = yield from comm.allreduce(mine, algorithm=algorithm)
        else:
            raise ValueError(op)
        outs.append(out)
    return outs


# -- job builders ------------------------------------------------------------

def _pingpong_job(name, cluster, config_name, data, iterations, error_share,
                  **run_kw) -> Job:
    bound = error_share * float(np.max(np.abs(data))) if error_share else 0.0

    def check(values):
        echoed, received = values
        for k in range(iterations):
            for got, hops, who in ((received[k], 1, "rank 1"),
                                   (echoed[k], 2, "rank 0 echo")):
                what = f"{name} iteration {k} {who}"
                if bound:
                    _expect_close(got, data, hops * bound, what)
                else:
                    _expect_exact(got, data, what)

    return Job(name, cluster, named_config(config_name), _pingpong,
               (data, iterations),
               latency=lambda res: res.elapsed / (2 * iterations),
               check=check, **run_kw)


def _contributions(base: np.ndarray, size: int) -> list:
    """Distinct per-rank inputs: the seeded payload shifted by the rank."""
    return [base + np.float32(r) for r in range(size)]


def _collective_job(name, cluster, config_name, op, base, algorithm=None,
                    repeat=1, root=0, **run_kw) -> Job:
    size = cluster.n_gpus
    if op == "bcast":
        inputs = [base] * size
    elif op == "alltoall":
        inputs = [np.array_split(c, size) for c in _contributions(base, size)]
    else:
        inputs = _contributions(base, size)
    if op == "allreduce":
        ref = np.zeros(base.shape, dtype=np.float64)
        tol = np.zeros(base.shape, dtype=np.float64)
        for c in inputs:
            ref += c
            tol += np.abs(c)
        # Any summation order of ``size`` float32 terms stays within
        # (size - 1) unit roundoffs of the sum of magnitudes.
        tol *= (size - 1) * 2.0 ** -24

    def check(values):
        for k in range(repeat):
            check_invocation([outs[k] for outs in values], f"{name} #{k}")

    def check_invocation(values, label):
        for r, out in enumerate(values):
            what = f"{label} rank {r}"
            if op == "bcast":
                _expect_exact(out, base, what)
            elif op == "allgather":
                for j, part in enumerate(out):
                    _expect_exact(part, inputs[j], f"{what} part {j}")
            elif op == "alltoall":
                for j, part in enumerate(out):
                    _expect_exact(part, inputs[j][r], f"{what} part {j}")
            else:
                _expect_exact(out, np.asarray(values[0]), f"{what} vs rank 0")
        if op == "allreduce":
            err = np.abs(np.asarray(values[0], dtype=np.float64) - ref)
            if not np.all(err <= tol):
                raise JobError(f"{label}: allreduce differs from the host "
                               f"reference sum by up to {float(err.max()):.6g}")

    return Job(name, cluster, named_config(config_name), _collective,
               (op, inputs, algorithm, repeat, root),
               latency=lambda res: res.elapsed / repeat, check=check, **run_kw)


def _dataset(i: int) -> str:
    names = dataset_names()
    return f"dataset:{names[i % len(names)]}"


def _pt2pt_sweep(seed: int) -> list:
    """2-rank Longhorn inter-node ping-pong (Figs 5/9/10)."""
    cluster = Cluster("longhorn", nodes=2, gpus_per_node=1)
    sizes = (256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB)
    payloads = [make_payload(_dataset(i), n, seed) for i, n in enumerate(sizes)]
    jobs = []
    for cfg in ("baseline", "mpc-opt", "zfp8", "zfp8-pipe"):
        share = ZFP8_ERROR_SHARE if cfg.startswith("zfp8") else 0.0
        for n, data in zip(sizes, payloads):
            jobs.append(_pingpong_job(f"pingpong/{cfg}/{n // KiB}K", cluster,
                                      cfg, data, 4, share))
    return jobs


def _scale_collectives(seed: int) -> list:
    """64- and 128-rank fat-tree, uncompressed, recorder off."""
    jobs = []
    for nodes, ops in (
        (16, (("allgather", 4 * KiB, None), ("allgather", 64 * KiB, None),
              ("alltoall", 16 * KiB * 64, None),
              ("allreduce", 256 * KiB, "recursive_doubling"),
              ("bcast", 1 * MiB, None))),
        (32, (("allgather", 4 * KiB, None), ("bcast", 1 * MiB, None))),
    ):
        cluster = Cluster("fat-tree", nodes=nodes, gpus_per_node=4)
        for i, (op, n, algo) in enumerate(ops):
            base = make_payload(_dataset(i), n, seed)
            # Uncompressed timing ignores payload contents, so the seed
            # also picks the bcast root, which changes the tree's routes.
            jobs.append(_collective_job(
                f"{op}/{cluster.n_gpus}r/{n // KiB}K", cluster, "baseline",
                op, base, algorithm=algo, root=seed % cluster.n_gpus,
                trace=False))
    return jobs


def _compressed_collectives(seed: int) -> list:
    """16 ranks on Frontera-Liquid (8x2) under MPC-OPT with dataset
    payloads: compressed-domain reductions and relayed wire images."""
    cluster = Cluster("frontera-liquid", nodes=8, gpus_per_node=2)
    jobs = []
    for i, (op, n, algo) in enumerate((
        # 2 MiB: the ring's 128 KiB chunks just reach the threshold
        ("allreduce", 2 * MiB, "ring"),
        ("allreduce", 1 * MiB, "recursive_doubling"),
        ("allgather", 1 * MiB, None),
        ("bcast", 1 * MiB, None),
    )):
        base = make_payload(_dataset(i + 2), n, seed)
        label = f"{op}-{algo}" if algo else op
        jobs.append(_collective_job(f"{label}/16r/{n // KiB}K", cluster,
                                    "mpc-opt", op, base, algorithm=algo))
    return jobs


def _faulty_transfers(seed: int) -> list:
    """pt2pt, keep-compressed bcast and ring allreduce under MPC-OPT
    with seeded fault plans; every payload is checked bit-exact.

    Wire corruption and compressor failures hit every job.  Drops hit
    the ping-pongs only, whose data timeout is sized to a few transfer
    times of their message: a drop then costs a few message times
    instead of the default 0.25 s timeout, so the simulated latency
    does not swing with how many drops a seed happens to draw.
    """
    cap = 60.0  # simulated seconds; a hang fails the job instead
    pair = Cluster("longhorn", nodes=2, gpus_per_node=1)
    group = Cluster("frontera-liquid", nodes=4, gpus_per_node=2)
    lossy = FaultPlan(seed=seed, corrupt_rate=0.03, drop_rate=0.02,
                      compress_fail_rate=0.03)
    jobs = []
    for i, (n, iterations, timeout) in enumerate((
        (256 * KiB, 32, 100e-6), (1 * MiB, 16, 300e-6), (4 * MiB, 8, 1e-3),
    )):
        data = make_payload(_dataset(i + 4), n, seed)
        resilience = replace(ResilienceConfig.for_plan(lossy), data_timeout=timeout)
        jobs.append(_pingpong_job(f"pingpong/mpc-opt/{n // KiB}K", pair,
                                  "mpc-opt", data, iterations, 0.0,
                                  faults=lossy, resilience=resilience,
                                  max_time=cap))
    corrupting = replace(lossy, drop_rate=0.0)
    for i, (op, n, algo, repeat) in enumerate((("bcast", 1 * MiB, None, 8),
                                               ("allreduce", 2 * MiB, "ring", 1))):
        base = make_payload(_dataset(i), n, seed)
        label = f"{op}-{algo}" if algo else op
        jobs.append(_collective_job(f"{label}/8r/{n // KiB}K", group,
                                    "mpc-opt", op, base, algorithm=algo,
                                    repeat=repeat, faults=corrupting,
                                    max_time=cap))
    return jobs


_BUILDERS = {
    "pt2pt-sweep": _pt2pt_sweep,
    "scale-collectives": _scale_collectives,
    "compressed-collectives": _compressed_collectives,
    "faulty-transfers": _faulty_transfers,
}

WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """Generate a workload's inputs from ``seed`` and build its jobs."""
    return Workload(name, seed, _BUILDERS[name](seed))


# -- pass runner ---------------------------------------------------------------

def run_job(job: Job):
    """Run one job; returns ``(host seconds, ClusterResult or exception)``.
    An exception (including a DeadlockError) fails the job, not the run."""
    t0 = time.perf_counter()
    try:
        res = job.run()
    except Exception as exc:  # counted in jobs_failed, run continues
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, res


def verify(job: Job, res) -> JobOutcome:
    if isinstance(res, Exception):
        return JobOutcome(job.name, False, f"{type(res).__name__}: {res}")
    latency = job.latency(res)
    try:
        job.check(res.values)
    except JobError as exc:
        return JobOutcome(job.name, False, str(exc), latency)
    except Exception as exc:  # outputs of the wrong shape or type
        return JobOutcome(job.name, False,
                          f"malformed output: {type(exc).__name__}: {exc}", latency)
    return JobOutcome(job.name, True, "", latency, _digest(res.values, latency),
                      len(res.tracer.records))


def run_pass(workload: Workload, observer=None) -> PassResult:
    """One cold pass over the job list; ``observer(job, outcome)`` is
    called after each job is verified.

    The pass starts from an empty codec cache, and every job from a
    collected heap: simulator objects form reference cycles, so without
    the collection one job's garbage would survive into the next ones
    and the high-water RSS would depend on when the collector ran."""
    GLOBAL_CODEC_CACHE.clear()
    wall = 0.0
    outcomes = []
    for job in workload.jobs:
        gc.collect()
        seconds, res = run_job(job)
        wall += seconds
        outcomes.append(verify(job, res))
        if observer is not None:
            observer(job, outcomes[-1])
    return PassResult(wall, outcomes, GLOBAL_CODEC_CACHE.stats())


def geomean(values) -> float:
    values = [v for v in values if v is not None and v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
