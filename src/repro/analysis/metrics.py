"""Counter / gauge / histogram registry populated by the instrumentation.

The same structured spans that feed the tracer also update a
:class:`MetricsRegistry` — the quantities an OSU-INAM-style monitor
would expose in real time (paper Section IX's future work): bytes on
the wire per link, compression ratio per codec, buffer-pool hit rate,
link utilization and matching-queue depths.

Every metric is identified by a name plus a frozen set of labels, e.g.
``("wire.bytes", (("link", "node0-up"),))``.  All state is plain
floats/ints, so two same-seed runs produce bit-identical registries —
the determinism tests rely on this.

Catalog of metrics emitted by the stack (see ``docs/observability.md``):

==============================  =======  ====================================
name                            kind     emitted by
==============================  =======  ====================================
``wire.bytes{link}``            counter  :class:`repro.network.links.Link`
``wire.transfers{link}``        counter  (and multi-link topology routes)
``wire.busy_seconds{link}``     counter
``pool.hit{device}``            counter  :class:`repro.gpu.pool.BufferPool`
``pool.miss{device}``           counter  (miss = on-demand cudaMalloc grow)
``compress.bytes_in{codec}``    counter  :class:`repro.core.engine.CompressionEngine`
``compress.bytes_out{codec}``   counter  (ratio = bytes_in / bytes_out)
``compress.fallback{codec}``    counter  incompressible raw fallbacks
``compress.kernel_us{codec}``   hist     per-launch compression kernel
                                         duration in microseconds
``decompress.kernel_us{codec}`` hist     per-launch decompression kernel
                                         duration in microseconds
``mpi.sends{protocol}``         counter  :class:`repro.mpi.comm.Communicator` —
                                         one per send (``self``, ``eager``,
                                         ``rndv``, ``rndv_pipelined``,
                                         ``wire_eager``, ``rndv_wire``)
``matching.unexpected{rank}``   counter  :class:`repro.mpi.matching.MatchingEngine`
``matching.posted_depth{rank}``     hist observed posted-queue depth
``matching.unexpected_depth{rank}`` hist observed unexpected-queue depth
``faults.injected{kind}``       counter  :class:`repro.faults.FaultInjector` —
                                         one per fired fault (``corrupt``,
                                         ``drop``, ``degrade``, ``flap_wait``,
                                         ``oom``, ``pool_exhausted``,
                                         ``compress_fail``,
                                         ``decompress_corrupt``)
``resilience.<event>``          counter  :class:`repro.mpi.cluster.Runtime` —
                                         recovery actions (``crc_mismatch``,
                                         ``wire_crc_mismatch``,
                                         ``decode_error``, ``data_timeout``,
                                         ``retransmit``, ``retry``,
                                         ``recovered``, ``fallback``,
                                         ``breaker_veto``, ``timeout``)
``resilience.breaker_transitions{state}`` counter circuit-breaker state changes
``telemetry.rprt_bytes_written``  counter :func:`repro.analysis.rprt.write_trace_rprt`
                                         — stored bytes of every RPRT
                                         container written this run
``telemetry.rprt_compress_ratio`` gauge  raw/stored block-byte ratio of
                                         the most recent RPRT export
==============================  =======  ====================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["MetricsRegistry", "HistogramStat"]


def _key(name: str, labels: dict) -> tuple:
    return (name, tuple(sorted(labels.items())))


@dataclass
class HistogramStat:
    """Streaming summary of observed values (count/sum/min/max plus
    power-of-two bucket counts)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    buckets: dict = field(default_factory=dict)  # log2 bucket -> count

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        bucket = max(0, (int(max(value, 1)) - 1).bit_length())
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from the bucket
        counts.  Resolution is the power-of-two bucket width: the
        estimate is the bucket's upper bound, clamped to the observed
        ``[min, max]`` so exact-count edge cases stay sharp.  Purely a
        function of the (deterministic) bucket counts, so two same-seed
        runs report identical percentiles."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = max(1, -(-int(q * self.count * 1000) // 1000))  # ceil, fp-safe
        seen = 0
        for bucket, n in sorted(self.buckets.items()):
            seen += n
            if seen >= rank:
                upper = float(1 << bucket) if bucket else 1.0
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Labelled counters, gauges and histograms."""

    def __init__(self):
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hists: dict[tuple, HistogramStat] = {}

    # -- write side ------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to a counter (created at zero)."""
        if value < 0:
            raise ValueError(f"counter {name!r} increment must be >= 0, got {value}")
        k = _key(name, labels)
        self._counters[k] = self._counters.get(k, 0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Set a gauge to ``value``."""
        self._gauges[_key(name, labels)] = value

    def set_max(self, name: str, value: float, **labels) -> None:
        """Raise a gauge to ``value`` if larger (high-water marks)."""
        k = _key(name, labels)
        self._gauges[k] = max(self._gauges.get(k, value), value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one observation into a histogram."""
        k = _key(name, labels)
        if k not in self._hists:
            self._hists[k] = HistogramStat()
        self._hists[k].observe(value)

    # -- read side -------------------------------------------------------
    def counter(self, name: str, **labels) -> float:
        return self._counters.get(_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def gauge(self, name: str, **labels) -> float:
        return self._gauges.get(_key(name, labels), 0.0)

    def histogram(self, name: str, **labels) -> HistogramStat:
        return self._hists.get(_key(name, labels), HistogramStat())

    def labels_of(self, name: str) -> list[dict]:
        """Every label set a metric has been emitted with."""
        out = []
        for store in (self._counters, self._gauges, self._hists):
            for n, labels in store:
                if n == name:
                    out.append(dict(labels))
        return sorted(out, key=lambda d: sorted(d.items()))

    def as_dict(self) -> dict:
        """Deterministically-ordered plain-dict dump (for export/tests)."""

        def fmt(k: tuple) -> str:
            name, labels = k
            if not labels:
                return name
            inner = ",".join(f"{lk}={lv}" for lk, lv in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {fmt(k): v for k, v in sorted(self._counters.items())},
            "gauges": {fmt(k): v for k, v in sorted(self._gauges.items())},
            "histograms": {
                fmt(k): h.as_dict() for k, h in sorted(self._hists.items())
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()
