"""Per-segment access heat: one sampler per memory node, one rack-wide map.

Each memory node's accelerator samples every iteration's load into its
own :class:`HotnessTracker` (:meth:`HotnessTracker.sample`, or its
countdown inline and :meth:`HotnessTracker.take` when a sample is due);
the tracker keeps an EWMA-decayed access count per fixed-size virtual
segment.  Sampling is probabilistic 1-in-``sample_period``: each access
is taken with probability ``1/sample_period`` via a seeded geometric
skip (each taken sample is weighted by the period, so the estimate stays
unbiased) -- hardware would do exactly this with a count-min sketch or
sampled mirroring rather than touch SRAM on every access.  A
*deterministic* countdown would systematically mis-sample any access
pattern whose period divides ``sample_period`` (e.g. a strided scan
interleaved across segments), skewing rebalancer decisions; the
geometric skip has no phase to lock onto while staying deterministic
per run seed.

Decay is applied lazily: a segment's count is scaled by
``0.5 ** (elapsed / halflife)`` whenever it is read or written, so idle
segments cool without a background sweep.

Besides per-segment heat, a tracker samples **successor edges**: when
a taken sample's load follows a load in a *different* segment within the
same traversal, the (undirected) segment pair gains weight.  The edge
map is the *segment-affinity graph* -- edge weight estimates how often a
traversal steps from one segment to the other, and an edge whose two
endpoints live on different memory nodes is a **cut edge**, i.e. one
switch hop plus a transport checkpoint per traversal that crosses it.
Edges ride the same geometric skip, the same ``weight=sample_period``
unbiasing, the same lazy decay, and the same epsilon prune as segments.

:class:`HeatMap` is the rack-wide view the rebalancer and the
``placement.hot.*`` gauges read: it holds one tracker per memory node,
in node-id order, each with a private RNG stream
``f"{seed}:hotness:{node}"``, and every read sums the trackers in that
order.  Per-node streams are what make sharded execution byte-identical
to the in-process run: a worker process advances exactly the trackers
of the nodes it owns, drawing the identical skips the in-process run
draws for those nodes, and the merged ``placement.hot.*`` gauges sum
per-worker contributions in the same node order.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple


def _hottest_first(item: Tuple[int, float]) -> Tuple[float, int]:
    """Sort key of a ``(segment, heat)`` pair: hottest first, equal
    heats by ascending segment address."""
    return -item[1], item[0]


def _heaviest_first(item: Tuple[int, int, float]) -> Tuple[float, int, int]:
    """Sort key of a ``(seg_a, seg_b, weight)`` edge: heaviest first,
    equal weights by the canonical ``(low, high)`` segment pair."""
    return -item[2], item[0], item[1]


class HotnessTracker:
    """One memory node's heat sampler: EWMA-decayed per-segment access
    counts and successor-edge weights over virtual addresses."""

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
                 stream: str = "0:hotness"):
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
        #: skip-length source, deterministic per stream label
        self._rng = random.Random(stream)
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
        #: records and edge records so far (cumulative, never reset)
        self.samples = 0
        self.edge_samples = 0
        self._until_prune = self.PRUNE_PERIOD

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
        return len(self._segments)

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
        self.samples += 1
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
        self.edge_samples += 1

    def heat_of(self, vaddr: int) -> float:
        """Current decayed count of the segment containing ``vaddr``."""
        segment = self._segment_of(vaddr)
        if segment not in self._segments:
            return 0.0
        count, since = self._segments[segment]
        return self._decayed(count, since, self.clock())

    def hot_segments(self) -> List[Tuple[int, float]]:
        """(segment_start, decayed_count) pairs, hottest first, equal
        counts by ascending address.

        Segments that have decayed below :data:`PRUNE_EPSILON` are
        dropped from the map as a side effect, so repeated calls stay
        proportional to the warm footprint.
        """
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
        ranked.sort(key=_hottest_first)
        return ranked

    def hot_edges(self) -> List[Tuple[int, int, float]]:
        """(seg_a, seg_b, decayed weight) triples, heaviest first; cold
        edges are dropped as a side effect, as in :meth:`hot_segments`."""
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
        ranked.sort(key=_heaviest_first)
        return ranked

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


class HeatMap:
    """The rack-wide heat map: a read over every memory node's tracker.

    ``params`` is the rack's :class:`~repro.params.PlacementParams`;
    every tracker reads the time from ``env.now``; ``placement_map`` is
    the live ownership map :meth:`node_heat` groups by.  Every merge
    sums the trackers in node-id order, the order the sharded snapshot
    merge sums per-worker gauge values in.
    """

    def __init__(self, params, env, placement_map, registry=None,
                 seed: int = 0):
        self.params = params
        self.clock = lambda: env.now
        self.placement_map = placement_map
        self.registry = registry
        self.seed = seed
        #: node id -> that node's sampler (the list index is the id)
        self.trackers: List[HotnessTracker] = []
        if registry is not None:
            self._register_gauges(registry)

    def add_node(self, node_id: int) -> HotnessTracker:
        """Build memory node ``node_id``'s sampler (ids come in order)."""
        if node_id != len(self.trackers):
            raise ValueError(f"node {node_id} joins a heat map of "
                             f"{len(self.trackers)} nodes")
        tracker = HotnessTracker(
            self.params.segment_bytes, self.params.hot_halflife_ns,
            self.clock, sample_period=self.params.sample_period,
            stream=f"{self.seed}:hotness:{node_id}")
        self.trackers.append(tracker)
        if self.registry is not None:
            self.registry.gauge(
                f"placement.hot.mem{node_id}",
                fn=lambda: self.node_heat().get(node_id, 0.0))
        return tracker

    @property
    def samples(self) -> int:
        return sum(tracker.samples for tracker in self.trackers)

    @property
    def edge_samples(self) -> int:
        return sum(tracker.edge_samples for tracker in self.trackers)

    def segment_of(self, vaddr: int) -> int:
        """Start of the segment containing ``vaddr``."""
        return vaddr & ~(self.params.segment_bytes - 1)

    def heat_of(self, vaddr: int) -> float:
        """Rack-wide decayed count of the segment containing ``vaddr``."""
        return sum(tracker.heat_of(vaddr) for tracker in self.trackers)

    def hot_segments(self) -> List[Tuple[int, float]]:
        """(segment_start, decayed_count) pairs summed over the nodes,
        hottest first, equal counts by ascending address."""
        merged: Dict[int, float] = {}
        for tracker in self.trackers:
            for segment, heat in tracker.hot_segments():
                merged[segment] = merged.get(segment, 0.0) + heat
        return sorted(merged.items(), key=_hottest_first)

    def hot_edges(self) -> List[Tuple[int, int, float]]:
        """(seg_a, seg_b, decayed weight) triples summed over the nodes,
        heaviest first."""
        merged: Dict[Tuple[int, int], float] = {}
        for tracker in self.trackers:
            for a, b, weight in tracker.hot_edges():
                merged[(a, b)] = merged.get((a, b), 0.0) + weight
        return sorted(((a, b, weight) for (a, b), weight in merged.items()),
                      key=_heaviest_first)

    def adjacency(self) -> Dict[int, Dict[int, float]]:
        """Segment -> {neighbor segment -> decayed edge weight}.

        The rebalancer's working view of the affinity graph, built from
        :meth:`hot_edges` (heaviest first, so each neighbor dict sums in
        a fixed order).
        """
        graph: Dict[int, Dict[int, float]] = {}
        for a, b, weight in self.hot_edges():
            graph.setdefault(a, {})[b] = weight
            graph.setdefault(b, {})[a] = weight
        return graph

    def node_heat(self) -> Dict[int, float]:
        """Decayed counts summed per owning node under the live
        placement map, tracker by tracker in node order."""
        totals: Dict[int, float] = {}
        for tracker in self.trackers:
            for segment, heat in tracker.hot_segments():
                owner = self.placement_map.node_of(segment)
                if owner is not None:
                    totals[owner] = totals.get(owner, 0.0) + heat
        return totals

    def _register_gauges(self, registry) -> None:
        """The ``placement.hot.*`` gauges (``mem<i>`` comes with each
        node).

        They read the trackers' own state, cumulative since the rack was
        built: the registry's measurement window does not reset them
        (perfbench divides ``placement.hot.samples`` by the requests
        since the build).
        """
        trackers = self.trackers
        registry.gauge("placement.hot.segments",
                       fn=lambda: sum(len(t) for t in trackers))
        registry.gauge("placement.hot.samples", fn=lambda: self.samples)
        registry.gauge("placement.hot.edges",
                       fn=lambda: sum(len(t._edges) for t in trackers))
        registry.gauge("placement.hot.edge_samples",
                       fn=lambda: self.edge_samples)

        def peak() -> float:
            # max over per-node peaks (not the peak of the summed map):
            # the sharded merge takes the max of per-worker gauge
            # values, which is exactly this quantity.
            ranked = [t.hot_segments() for t in trackers]
            return max((r[0][1] for r in ranked if r), default=0.0)

        registry.gauge("placement.hot.peak", fn=peak)
