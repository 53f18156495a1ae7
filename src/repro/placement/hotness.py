"""Per-segment access-heat tracking for the rebalancer.

The accelerator's memory-access pipeline samples every iteration's load
(:meth:`HotnessTracker.sample`, or its countdown inline and
:meth:`HotnessTracker.take` when a sample is due); the tracker keeps an
EWMA-decayed access count per fixed-size virtual segment.  Sampling is
probabilistic 1-in-``sample_period``: each access is taken with probability
``1/sample_period`` via a seeded geometric skip (each taken sample is
weighted by the period, so the estimate stays unbiased) -- hardware
would do exactly this with a count-min sketch or sampled mirroring
rather than touch SRAM on every access.  A *deterministic* countdown
would systematically mis-sample any access pattern whose period divides
``sample_period`` (e.g. a strided scan interleaved across segments),
skewing rebalancer decisions; the geometric skip has no phase to lock
onto while staying deterministic per run seed.

Decay is applied lazily: a segment's count is scaled by
``0.5 ** (elapsed / halflife)`` whenever it is read or written, so idle
segments cool without a background sweep.  ``placement.hot.*`` gauges
export the rack-wide view.

Besides per-segment heat, the tracker samples **successor edges**: when
a taken sample's load follows a load in a *different* segment within the
same traversal, the (undirected) segment pair gains weight.  The edge
map is the *segment-affinity graph* -- edge weight estimates how often a
traversal steps from one segment to the other, and an edge whose two
endpoints live on different memory nodes is a **cut edge**, i.e. one
switch hop plus a transport checkpoint per traversal that crosses it.
Edges ride the same geometric skip, the same ``weight=sample_period``
unbiasing, the same lazy decay, and the same epsilon prune as segments.

Sampling state is **per memory node**: each accelerator samples into its
own :meth:`HotnessTracker.node_view` -- a child tracker with a private
RNG stream seeded from ``(run seed, node id)`` and private segment/edge
maps.  The parent tracker aggregates across its views for every read
(gauges, rebalancer queries), so consumers see one rack-wide heat map.
Per-node streams are what make sharded execution byte-identical to the
in-process run: a worker process advances exactly the views of the
nodes it owns, drawing the identical skips the in-process run draws for
those nodes, and the merged ``placement.hot.*`` gauges sum per-worker
contributions in the same node order the in-process aggregate uses.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple


class HotnessTracker:
    """EWMA-decayed per-segment access counts over virtual addresses."""

    #: a decayed count below this is dead -- the segment is forgotten.
    #: Recorded weights are >= 1.0, so anything this cold has decayed
    #: through ~10 halflives; dropping it keeps the map bounded by the
    #: *warm* footprint instead of growing with every segment ever
    #: touched (hot_segments() sorts the whole map on each gauge read
    #: and rebalance round).
    PRUNE_EPSILON = 1e-3
    #: amortized sweep period: one full prune per this many record()s
    PRUNE_PERIOD = 4096

    def __init__(self, segment_bytes: int, halflife_ns: float,
                 clock: Callable[[], float], sample_period: int = 8,
                 seed: int = 0, stream: str = "hotness"):
        if segment_bytes < 1 or (segment_bytes & (segment_bytes - 1)):
            raise ValueError("segment_bytes must be a power of two")
        if halflife_ns <= 0:
            raise ValueError("halflife must be positive")
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self.segment_bytes = segment_bytes
        self.halflife_ns = halflife_ns
        self.sample_period = sample_period
        self.clock = clock
        self._seed = seed
        #: skip-length source, deterministic per (run seed, stream label)
        self._rng = random.Random(f"{seed}:{stream}")
        #: accesses left until the next taken sample.  :meth:`sample`
        #: counts it down; a caller that sees every access (the
        #: accelerator's translation stage) may decrement it itself and
        #: call :meth:`take` only once it reaches zero -- the same skips,
        #: samples and order, without a call per access.
        self.countdown = self._draw_skip()
        #: segment start -> (decayed count, last decay timestamp)
        self._segments: Dict[int, Tuple[float, float]] = {}
        #: (seg_lo, seg_hi) -> (decayed weight, last decay timestamp);
        #: the sampled segment-affinity graph, undirected
        self._edges: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._own_samples = 0
        self._own_edge_samples = 0
        #: node id -> child tracker with a private RNG stream; samples
        #: recorded through a view show up in every aggregate read here
        self._views: Dict[int, "HotnessTracker"] = {}
        self._until_prune = self.PRUNE_PERIOD

    def node_view(self, node_id: int) -> "HotnessTracker":
        """The per-node child tracker accelerator ``node_id`` samples into.

        Created on first request with an RNG stream seeded from
        ``(run seed, node id)`` -- a worker process that only ever
        advances its own nodes' views draws exactly the skips the
        in-process run draws for those nodes.
        """
        view = self._views.get(node_id)
        if view is None:
            view = HotnessTracker(self.segment_bytes, self.halflife_ns,
                                  self.clock,
                                  sample_period=self.sample_period,
                                  seed=self._seed,
                                  stream=f"hotness:{node_id}")
            self._views[node_id] = view
        return view

    def _sources(self):
        """This tracker's own maps, then every view in node order."""
        yield self
        for node_id in sorted(self._views):
            yield self._views[node_id]

    @property
    def samples(self) -> int:
        return sum(src._own_samples for src in self._sources())

    @property
    def edge_samples(self) -> int:
        return sum(src._own_edge_samples for src in self._sources())

    def _draw_skip(self) -> int:
        """Accesses until the next taken sample, Geometric(1/period).

        Inverse-CDF draw: equivalent to flipping an i.i.d.
        Bernoulli(1/period) coin per access, so E[taken fraction] =
        1/period for *every* access pattern -- no phase for a strided
        workload to lock onto.  ``sample_period=1`` degenerates to
        sampling every access (skip is always 1).
        """
        if self.sample_period == 1:
            return 1
        p = 1.0 / self.sample_period
        u = 1.0 - self._rng.random()  # u in (0, 1]
        return 1 + int(math.log(u) / math.log(1.0 - p))

    def __len__(self) -> int:
        return sum(len(src._segments) for src in self._sources())

    def _segment_of(self, vaddr: int) -> int:
        return vaddr & ~(self.segment_bytes - 1)

    def _decayed(self, count: float, since: float, now: float) -> float:
        if now <= since:
            return count
        return count * 0.5 ** ((now - since) / self.halflife_ns)

    def sample(self, vaddr: int, prev: int = 0) -> None:
        """Maybe-record one access (1-in-``sample_period`` sampling).

        ``prev`` is the traversal's previous load address (0 = none,
        i.e. this is the traversal's first load).  When the sample is
        taken and ``prev`` falls in a different segment, the successor
        edge (prev's segment, vaddr's segment) gains the same unbiased
        ``sample_period`` weight.
        """
        self.countdown -= 1
        if self.countdown <= 0:
            self.take(vaddr, prev)

    def take(self, vaddr: int, prev: int = 0) -> None:
        """Record the access a :attr:`countdown` at zero selects (and
        ``prev``'s successor edge, as :meth:`sample` describes), then
        draw the next skip."""
        self.countdown = self._draw_skip()
        self.record(vaddr, weight=float(self.sample_period))
        if prev:
            self.record_edge(prev, vaddr, weight=float(self.sample_period))

    def record(self, vaddr: int, weight: float = 1.0) -> None:
        """Unconditionally add ``weight`` accesses to vaddr's segment."""
        now = self.clock()
        segment = self._segment_of(vaddr)
        count, since = self._segments.get(segment, (0.0, now))
        self._segments[segment] = (
            self._decayed(count, since, now) + weight, now)
        self._own_samples += 1
        self._until_prune -= 1
        if self._until_prune <= 0:
            self._until_prune = self.PRUNE_PERIOD
            self._prune(now)

    def record_edge(self, prev_vaddr: int, vaddr: int,
                    weight: float = 1.0) -> None:
        """Unconditionally weight the successor edge between the two
        addresses' segments (no-op for a same-segment step: an internal
        step can never be a cut edge, so it carries no placement signal).
        """
        a = self._segment_of(prev_vaddr)
        b = self._segment_of(vaddr)
        if a == b:
            return
        key = (a, b) if a < b else (b, a)
        now = self.clock()
        count, since = self._edges.get(key, (0.0, now))
        self._edges[key] = (self._decayed(count, since, now) + weight, now)
        self._own_edge_samples += 1

    def edge_weight(self, vaddr_a: int, vaddr_b: int) -> float:
        """Current decayed weight of the edge between two segments."""
        return sum(src._own_edge_weight(vaddr_a, vaddr_b)
                   for src in self._sources())

    def _own_edge_weight(self, vaddr_a: int, vaddr_b: int) -> float:
        a = self._segment_of(vaddr_a)
        b = self._segment_of(vaddr_b)
        key = (a, b) if a < b else (b, a)
        if key not in self._edges:
            return 0.0
        count, since = self._edges[key]
        return self._decayed(count, since, self.clock())

    def _own_hot_edges(self) -> List[Tuple[int, int, float]]:
        """This instance's edges only; prunes cold ones as a side effect."""
        now = self.clock()
        ranked: List[Tuple[int, int, float]] = []
        dead: List[Tuple[int, int]] = []
        for (a, b), (count, since) in self._edges.items():
            current = self._decayed(count, since, now)
            if current < self.PRUNE_EPSILON:
                dead.append((a, b))
            else:
                ranked.append((a, b, current))
        for key in dead:
            del self._edges[key]
        ranked.sort(key=lambda item: (-item[2], item[0], item[1]))
        return ranked

    def hot_edges(self, top_n: int = 0) -> List[Tuple[int, int, float]]:
        """(seg_a, seg_b, decayed weight) triples, heaviest first.

        Aggregated across the per-node views (weights for the same
        segment pair sum); cold edges (below :data:`PRUNE_EPSILON`) are
        dropped as a side effect, mirroring :meth:`hot_segments`.
        """
        if not self._views:
            ranked = self._own_hot_edges()
            return ranked[:top_n] if top_n else ranked
        merged: Dict[Tuple[int, int], float] = {}
        for src in self._sources():
            for a, b, weight in src._own_hot_edges():
                merged[(a, b)] = merged.get((a, b), 0.0) + weight
        ranked = [(a, b, weight) for (a, b), weight in merged.items()]
        ranked.sort(key=lambda item: (-item[2], item[0], item[1]))
        return ranked[:top_n] if top_n else ranked

    def adjacency(self) -> Dict[int, Dict[int, float]]:
        """Segment -> {neighbor segment -> decayed edge weight}.

        The rebalancer's working view of the affinity graph; built from
        :meth:`hot_edges` so it also prunes cold edges.
        """
        graph: Dict[int, Dict[int, float]] = {}
        for a, b, weight in self.hot_edges():
            graph.setdefault(a, {})[b] = weight
            graph.setdefault(b, {})[a] = weight
        return graph

    def external_weight(self, vaddr: int, rangemap) -> float:
        """Summed weight of this segment's cut edges (neighbors owned by
        a different node under ``rangemap``)."""
        segment = self._segment_of(vaddr)
        owner = rangemap.node_of(segment)
        total = 0.0
        for a, b, weight in self.hot_edges():
            if a == segment or b == segment:
                other = b if a == segment else a
                if rangemap.node_of(other) != owner:
                    total += weight
        return total

    def heat_of(self, vaddr: int) -> float:
        """Current decayed count of the segment containing ``vaddr``."""
        return sum(src._own_heat_of(vaddr) for src in self._sources())

    def _own_heat_of(self, vaddr: int) -> float:
        segment = self._segment_of(vaddr)
        if segment not in self._segments:
            return 0.0
        count, since = self._segments[segment]
        return self._decayed(count, since, self.clock())

    def _own_hot_segments(self) -> List[Tuple[int, float]]:
        """This instance's segments only; prunes cold ones on the way."""
        now = self.clock()
        ranked: List[Tuple[int, float]] = []
        dead: List[int] = []
        for segment, (count, since) in self._segments.items():
            current = self._decayed(count, since, now)
            if current < self.PRUNE_EPSILON:
                dead.append(segment)
            else:
                ranked.append((segment, current))
        for segment in dead:
            del self._segments[segment]
        ranked.sort(key=lambda item: -item[1])
        return ranked

    def hot_segments(self, top_n: int = 0) -> List[Tuple[int, float]]:
        """(segment_start, decayed_count) pairs, hottest first.

        Aggregated across the per-node views (counts for the same
        segment sum); segments that have decayed below
        :data:`PRUNE_EPSILON` are dropped from their map as a side
        effect, so repeated calls stay proportional to the warm
        footprint.
        """
        if not self._views:
            ranked = self._own_hot_segments()
            return ranked[:top_n] if top_n else ranked
        merged: Dict[int, float] = {}
        for src in self._sources():
            for segment, heat in src._own_hot_segments():
                merged[segment] = merged.get(segment, 0.0) + heat
        ranked = sorted(merged.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:top_n] if top_n else ranked

    def _prune(self, now: float) -> None:
        """Forget segments and edges whose decayed count has gone cold."""
        dead = [segment
                for segment, (count, since) in self._segments.items()
                if self._decayed(count, since, now) < self.PRUNE_EPSILON]
        for segment in dead:
            del self._segments[segment]
        dead_edges = [key
                      for key, (count, since) in self._edges.items()
                      if self._decayed(count, since, now)
                      < self.PRUNE_EPSILON]
        for key in dead_edges:
            del self._edges[key]

    def node_heat(self, rangemap) -> Dict[int, float]:
        """Decayed counts summed per owning node (via the placement map).

        Accumulated source by source in node-view order, so the
        floating-point addition order matches the sharded merge (which
        sums per-worker gauge values in the same sorted node order).
        """
        totals: Dict[int, float] = {}
        for src in self._sources():
            for segment, heat in src._own_hot_segments():
                owner = rangemap.node_of(segment)
                if owner is not None:
                    totals[owner] = totals.get(owner, 0.0) + heat
        return totals

    def _own_peak(self) -> float:
        ranked = self._own_hot_segments()
        return ranked[0][1] if ranked else 0.0

    def attach_metrics(self, registry) -> None:
        registry.gauge("placement.hot.segments", fn=lambda: len(self))
        registry.gauge("placement.hot.samples", fn=lambda: self.samples)
        registry.gauge("placement.hot.edges",
                       fn=lambda: sum(len(src._edges)
                                      for src in self._sources()))
        registry.gauge("placement.hot.edge_samples",
                       fn=lambda: self.edge_samples)

        def peak() -> float:
            # max over per-view peaks (not the peak of the summed map):
            # the sharded merge takes the max of per-worker gauge
            # values, which is exactly this quantity.
            return max(src._own_peak() for src in self._sources())

        registry.gauge("placement.hot.peak", fn=peak)
