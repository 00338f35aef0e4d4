"""Self-checks of the benchmark: attribution lands in the right layer,
tracing is observation-only, and bad outputs are counted, not fatal.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from dataclasses import replace

import numpy as np
import pytest

from perfbench import layers, run, workloads
from repro.core.config import CompressionConfig

THRESHOLD = CompressionConfig().threshold


def _subset(name, jobs, seed=0):
    wl = workloads.build(name, seed)
    return workloads.Workload(name, seed, wl.jobs[jobs])


def _traced(wl, delays=None):
    rec = layers.Recorder()
    with layers.Instrumentation(rec, THRESHOLD, delays):
        res = workloads.run_pass(wl)
    return rec, res


def _self_times(rec):
    return {k: v for k, v in rec.layer_self().items() if k != "other"}


def test_injected_codec_delay_moves_only_the_compression_layer():
    wl = _subset("compressed-collectives", slice(2, None))
    workloads.run_pass(wl)  # warm-up
    base = [_traced(wl) for _ in range(2)]
    delay = 0.02
    slow, slow_res = _traced(wl, {"MpcCompressor.compress": delay})
    calls = sum(1 for k in slow.s_key
                if slow.keys[k] == ("compression", "MpcCompressor.compress"))
    assert calls > 0
    injected = calls * delay
    before = [_self_times(rec) for rec, _ in base]
    after = _self_times(slow)
    gain = after["compression"] - max(b["compression"] for b in before)
    assert gain >= 0.9 * injected
    for layer, value in after.items():
        if layer == "compression":
            continue
        lo = min(b[layer] for b in before)
        hi = max(b[layer] for b in before)
        spread = hi - lo
        assert value <= hi + 3 * spread + 0.25 * hi + 0.05, (layer, value, before)
    assert slow_res.signature() == base[0][1].signature()


def test_traced_pass_is_observation_only():
    for name, jobs in (("pt2pt-sweep", slice(5, 8)),
                       ("faulty-transfers", slice(0, 1)),
                       ("scale-collectives", slice(0, 1))):
        wl = _subset(name, jobs)
        plain = workloads.run_pass(wl)
        _, traced = _traced(wl)
        assert plain.failed == 0
        assert traced.signature() == plain.signature()


def test_bypass_workload_leaves_codec_cache_and_tracer_idle():
    wl = _subset("scale-collectives", slice(0, 2))
    rec, res = _traced(wl)
    m = layers.layer_metrics(rec, res, res.wall, 0, 0)
    for name in ("compression.self_s", "compression.encode_s", "cache.self_s",
                 "cache.hit_ratio", "trace.self_s", "trace.spans",
                 "trace.metric_updates", "faults.injected"):
        assert m[name] == 0, name
    assert m["mpi.msgs"] > 0 and m["network.transfers"] > 0
    assert m["census.eager_share"] > 0 and m["mpi.rndv_msgs"] > 0


def test_wall_norm_shows_a_slower_program():
    """The host-speed probe runs outside the timed region, so a delay
    inside a job raises ``wall_norm`` instead of being divided out."""
    wl = _subset("compressed-collectives", slice(3, None))
    run.probed_pass(wl)  # warm-up
    with layers.Instrumentation(layers.Recorder(), THRESHOLD):
        base_res, base = run.probed_pass(wl)
    rec = layers.Recorder()
    delay = 0.2
    with layers.Instrumentation(rec, THRESHOLD, {"MpcCompressor.compress": delay}):
        slow_res, slow = run.probed_pass(wl)
    calls = sum(1 for k in rec.s_key
                if rec.keys[k] == ("compression", "MpcCompressor.compress"))
    injected = calls * delay
    assert injected > 2 * base_res.wall
    assert slow_res.wall >= base_res.wall + 0.9 * injected
    assert slow > 1.5 * base
    assert slow_res.signature() == base_res.signature()


def _corrupt_first_delivery(rank_fn):
    def rank(comm, *args):
        got = yield from rank_fn(comm, *args)
        if comm.rank == 1:
            bad = np.array(got[0], copy=True)
            bad.view(np.uint8)[0] ^= 1
            got[0] = bad
        return got
    return rank


def _raise(comm, *args):
    yield comm.sim.timeout(1e-6)
    raise RuntimeError("rank function bug")


def _unmatched(comm, *args):
    if comm.rank == 0:
        yield from comm.recv(1, tag=99)
    return []


@pytest.mark.parametrize("bad_fn, error", [
    (_corrupt_first_delivery, "differ"),
    (lambda fn: _raise, "RuntimeError"),
    (lambda fn: _unmatched, "DeadlockError"),
])
def test_bad_job_is_counted_and_the_run_continues(bad_fn, error):
    wl = _subset("pt2pt-sweep", slice(0, 2))
    first = wl.jobs[0]
    wl.jobs[0] = replace(first, rank_fn=bad_fn(first.rank_fn))
    res = workloads.run_pass(wl)
    assert res.failed == 1
    assert not res.outcomes[0].ok and error in res.outcomes[0].error
    assert res.outcomes[1].ok
