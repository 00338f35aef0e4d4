"""Host-speed probe for ``wall_norm``.

The benchmark's host is a few cores of a shared machine whose speed
drifts by tens of percent over seconds to minutes, so raw pass walls of
the same code spread more across runs than any bound could tolerate.
The probe is a fixed piece of work that uses no ``repro`` code, shaped
like the simulator's: an interpreter part (a heap-scheduled generator
loop with dicts and attribute access) and a buffer part (numpy
arithmetic, a float32 cast and CRC-32 over 1 MiB).  The pass runner
calls it after every job with a share of the work, so the probe samples
the host at the same moments as the jobs; dividing the pass wall by the
probe time of the pass cancels the host's speed, while anything the
program does still shows in full.

The probe runs with the cyclic collector off and allocates little, so
its time does not depend on how large the program's heap is.
"""

from __future__ import annotations

import gc
import heapq
import time
import zlib

import numpy as np

#: events of the interpreter part in a whole probe (about 0.12 s on a
#: 2-vCPU VM)
PY_EVENTS = 120_000
#: rounds of the buffer part in a whole probe (about 0.1 s on the same VM)
BUF_ROUNDS = 144
#: elements of the buffer part's float64 array (1 MiB)
BUF_LEN = 1 << 17

_BUF = np.linspace(-1.0, 1.0, BUF_LEN)


class _Task:
    __slots__ = ("tid", "count", "state")

    def __init__(self, tid: int):
        self.tid = tid
        self.count = 0
        self.state = {}


def _ticker(task: _Task):
    while True:
        task.count += 1
        task.state[task.count & 63] = task.count
        yield (task.count * 7 + task.tid) & 255


def _interpreter_part(events: int) -> int:
    tasks = [_Task(i) for i in range(64)]
    gens = [_ticker(t) for t in tasks]
    queue = [(0, i) for i in range(len(gens))]
    acc = 0
    for _ in range(events):
        when, i = heapq.heappop(queue)
        delay = next(gens[i])
        acc ^= delay
        heapq.heappush(queue, (when + delay + 1, i))
    return acc


def _buffer_part(rounds: int) -> int:
    crc = 0
    for _ in range(rounds):
        scaled = _BUF * 1.5 + 0.25
        crc = zlib.crc32(scaled.astype(np.float32).tobytes(), crc)
    return crc


def probe(share: float = 1.0) -> float:
    """Host seconds that ``share`` of the fixed probe work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _interpreter_part(max(1, round(PY_EVENTS * share)))
        _buffer_part(max(1, round(BUF_ROUNDS * share)))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
