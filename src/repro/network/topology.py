"""Cluster topology: GPUs, nodes, groups and the links between them.

A :class:`Topology` instantiates live :class:`~repro.network.links.Link`
objects from a :class:`~repro.network.presets.MachinePreset`:

* intra-node — either dedicated per-direction GPU pair links (NVLink)
  or a shared per-node, per-direction bus (PCIe host bridge);
* inter-node — one uplink and one downlink per node to its switch, so
  the node's HCA is the contention point, matching the single-HCA
  testbeds of the paper;
* inter-group (hierarchical presets only) — a 2-level **fat-tree**
  routes cross-group traffic through per-group trunk links to a spine
  switch, while a **dragonfly** connects every ordered group pair with
  a dedicated global link.  Flat presets keep the single ideal
  (full-bisection) switch.

``transfer(src, dst, nbytes)`` resolves the route and moves the bytes,
charging end-to-end latency plus serialization at the bottleneck while
holding every traversed link.

Route resolution is cached: ``node_of`` is a precomputed array lookup
and ``route()``/``path_*()`` memoize per ``(src, dst)`` pair, so the
per-message cost at 1k+ ranks is two dict probes instead of repeated
division and list building.  Caches are bounded and cleared wholesale
on overflow, which keeps behaviour deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NetworkError
from repro.faults.injector import DROPPED
from repro.network.links import Link
from repro.network.presets import MachinePreset
from repro.sim import Simulator

__all__ = ["Topology"]

# Bound on the memoization caches; on overflow the cache is cleared
# wholesale (deterministic, O(1) amortized) rather than LRU-evicted.
_CACHE_MAX = 1 << 17


class Topology:
    """Physical layout of a simulated GPU cluster."""

    def __init__(self, sim: Simulator, preset: MachinePreset, nodes: int, gpus_per_node: int):
        if nodes < 1:
            raise NetworkError(f"need >= 1 node, got {nodes}")
        if not (1 <= gpus_per_node <= preset.max_gpus_per_node):
            raise NetworkError(
                f"{preset.name} supports 1..{preset.max_gpus_per_node} GPUs/node, "
                f"got {gpus_per_node}"
            )
        self.sim = sim
        self.preset = preset
        self.nodes = nodes
        self.gpus_per_node = gpus_per_node

        # Precomputed GPU -> node map: a vectorized numpy array for
        # bulk consumers plus its plain-list view, which is faster for
        # the scalar lookups the hot path makes.
        self.node_of_array = np.arange(nodes * gpus_per_node) // gpus_per_node
        self._node_of = self.node_of_array.tolist()

        # Hierarchy (empty for flat presets).
        self.kind = preset.topology_kind
        if self.kind not in ("flat", "fat-tree", "dragonfly"):
            raise NetworkError(f"unknown topology kind {self.kind!r}")
        if self.kind != "flat":
            if preset.nodes_per_group < 1 or preset.group_link is None:
                raise NetworkError(
                    f"{preset.name}: hierarchical preset needs nodes_per_group >= 1 "
                    "and a group_link"
                )
            self.nodes_per_group = preset.nodes_per_group
            self.n_groups = -(-nodes // preset.nodes_per_group)
        else:
            self.nodes_per_group = nodes
            self.n_groups = 1

        # Inter-node: per-node uplink/downlink to its (leaf) switch.
        self._uplink = [Link(sim, preset.inter_link, f"node{n}-up") for n in range(nodes)]
        self._downlink = [Link(sim, preset.inter_link, f"node{n}-down") for n in range(nodes)]

        # Inter-group fabric.
        if self.kind == "fat-tree":
            # Per-group trunk to the spine, one link per direction.
            self._group_up = [Link(sim, preset.group_link, f"group{g}-up")
                              for g in range(self.n_groups)]
            self._group_down = [Link(sim, preset.group_link, f"group{g}-down")
                                for g in range(self.n_groups)]
        self._global: dict = {}  # dragonfly ordered group pair -> Link, lazy

        # Intra-node fabric.
        self._intra: dict = {}
        if preset.intra_shared:
            # One shared bus per node per direction.
            for n in range(nodes):
                self._intra[n] = Link(sim, preset.intra_link, f"node{n}-{preset.intra_link.name}")
        else:
            # Dedicated ordered-pair links, created lazily.
            pass

        self._route_cache: dict = {}
        self._path_cache: dict = {}

    # -- structure ---------------------------------------------------------
    @property
    def n_gpus(self) -> int:
        return self.nodes * self.gpus_per_node

    def node_of(self, gpu: int) -> int:
        if not (0 <= gpu < self.n_gpus):
            raise NetworkError(f"gpu {gpu} out of range (have {self.n_gpus})")
        return self._node_of[gpu]

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def group_of(self, node: int) -> int:
        """The group a node belongs to (always 0 on flat presets)."""
        return node // self.nodes_per_group

    def _intra_link(self, src: int, dst: int) -> Link:
        preset = self.preset
        if preset.intra_shared:
            return self._intra[self.node_of(src)]
        key = (src, dst)
        if key not in self._intra:
            self._intra[key] = Link(
                self.sim, preset.intra_link, f"{preset.intra_link.name}:{src}->{dst}"
            )
        return self._intra[key]

    def _global_link(self, src_group: int, dst_group: int) -> Link:
        """Dragonfly per-ordered-group-pair global link, created lazily
        (a 128-group machine has 16k ordered pairs; a run touches few)."""
        key = (src_group, dst_group)
        link = self._global.get(key)
        if link is None:
            link = self._global[key] = Link(
                self.sim, self.preset.group_link, f"g{src_group}->g{dst_group}"
            )
        return link

    def _compute_route(self, src: int, dst: int) -> list[Link]:
        """Uncached route resolution; ``route()`` memoizes this."""
        if src == dst:
            return []
        if self.same_node(src, dst):
            return [self._intra_link(src, dst)]
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)
        if self.kind != "flat":
            src_group = src_node // self.nodes_per_group
            dst_group = dst_node // self.nodes_per_group
            if src_group != dst_group:
                if self.kind == "fat-tree":
                    return [self._uplink[src_node],
                            self._group_up[src_group], self._group_down[dst_group],
                            self._downlink[dst_node]]
                return [self._uplink[src_node],
                        self._global_link(src_group, dst_group),
                        self._downlink[dst_node]]
        return [self._uplink[src_node], self._downlink[dst_node]]

    def route(self, src: int, dst: int) -> list[Link]:
        """The ordered links a message from ``src`` to ``dst`` crosses.

        Memoized per (src, dst); callers must treat the list as
        read-only."""
        key = (src, dst)
        links = self._route_cache.get(key)
        if links is None:
            if len(self._route_cache) >= _CACHE_MAX:
                self._route_cache.clear()
            links = self._route_cache[key] = self._compute_route(src, dst)
        return links

    def _path(self, src: int, dst: int) -> tuple[float, float]:
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is None:
            links = self.route(src, dst)
            if links:
                bw = min(l.spec.bandwidth for l in links)
                lat = sum(l.spec.latency for l in links)
            else:
                bw, lat = float("inf"), 0.0
            if len(self._path_cache) >= _CACHE_MAX:
                self._path_cache.clear()
            cached = self._path_cache[key] = (bw, lat)
        return cached

    def path_bandwidth(self, src: int, dst: int) -> float:
        return self._path(src, dst)[0]

    def path_latency(self, src: int, dst: int) -> float:
        return self._path(src, dst)[1]

    # -- data movement ------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: int, label: str = "",
                 payload=None):
        """Move ``nbytes`` from GPU ``src`` to GPU ``dst`` (generator
        subroutine).

        Same-GPU transfers are free; same-node transfers cross the
        intra link; inter-node transfers hold every link on the route
        for the bottleneck serialization time (cut-through, not
        store-and-forward) — two HCA links within a group, plus the
        trunk/global hops across groups on hierarchical presets.

        When ``payload`` is given, the wire may fault it: the return
        value is the delivered payload — the original object, a
        bit-corrupted copy, or the :data:`~repro.faults.injector.DROPPED`
        sentinel when the packet was lost (wire time is still charged:
        the bytes were sent, they just did not survive).  Without a
        payload the return value is ``None``.
        """
        links = self.route(src, dst)
        if links:
            if len(links) == 1:
                yield from links[0].transfer(nbytes, label=label)
            else:
                yield from self._cut_through(links, src, dst, nbytes, label)
        return self._deliver(src, dst, nbytes, payload)

    def _cut_through(self, links, src: int, dst: int, nbytes: int, label: str):
        # Cut-through across the whole route: hold every link together
        # for total-latency + bottleneck-serialization.
        bw, lat = self._path(src, dst)
        reqs = [l._res.request() for l in links]
        t0 = self.sim.now
        try:
            for r in reqs:
                yield r
            t0 = self.sim.now
            duration = lat + nbytes / bw
            faults = self.sim.faults
            if faults is not None:
                duration += faults.extra_wire_delay(
                    tuple(l.label for l in links), duration)
            yield self.sim.timeout(duration)
        finally:
            # cancel() == release() for granted slots and withdraws
            # still-queued requests, so an interrupted (killed) sender
            # cannot strand the HCA links survivors share.
            for l, r in zip(links, reqs):
                l._res.cancel(r)
        tracer = self.sim.tracer
        if tracer is not None:
            route = "+".join(l.label for l in links)
            tracer.span(
                t0, self.sim.now, "network", label or f"{src}->{dst}",
                track=f"link:{route}",
                nbytes=nbytes, src=src, dst=dst,
                link=route, links=tuple(l.label for l in links),
            )
            m = tracer.metrics
            for l in links:
                m.inc("wire.bytes", nbytes, link=l.label)
                m.inc("wire.transfers", 1, link=l.label)
                m.inc("wire.busy_seconds", self.sim.now - t0, link=l.label)

    def _deliver(self, src: int, dst: int, nbytes: int, payload):
        """Apply wire faults to a payload at its delivery point."""
        if payload is None:
            return None
        faults = self.sim.faults
        if faults is None or src == dst:
            return payload
        outcome = faults.transfer_outcome(src, dst, nbytes)
        if outcome == "drop":
            return DROPPED
        if outcome == "corrupt":
            return faults.corrupt_payload(payload)
        return payload

    def __repr__(self) -> str:
        return (
            f"<Topology {self.preset.name} {self.nodes}x{self.gpus_per_node} "
            f"({self.n_gpus} GPUs)>"
        )
