"""Network fabric model: endpoints, links, and message delivery.

The rack in the paper is a star: every CPU node and memory node hangs off
one programmable switch over 100 Gbps links.  The fabric models, per
message: (i) serialization at the sender's NIC (size / link bandwidth,
egress is a shared resource so concurrent sends queue), (ii) one-way wire
propagation, and (iii) optional per-link drop/jitter injection
(:class:`LinkProfile`, the only loss injector).  Software stack costs
(DPDK, kernel paging, TCP) are charged by the *endpoints*, not the fabric,
because they differ per system -- that difference is exactly what Figs 4-6
measure.

Per-endpoint rx/tx byte counters feed Fig 6's network-bandwidth
utilization numbers.  They live in the fabric's
:class:`~repro.obs.metrics.MetricsRegistry` (``net.<name>.tx_bytes``
etc., plus bandwidth gauges).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.params import NetworkParams
from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.resources import Resource, Store


@dataclass
class Message:
    """A packet on the fabric.

    ``size_bytes`` covers headers and payload; ``kind`` is a free-form tag
    the receiving endpoint dispatches on; ``payload`` is an arbitrary
    Python object (the simulation keeps real state in it, and charges wire
    time for the declared size).
    """

    kind: str
    src: str
    dst: str
    size_bytes: int
    payload: Any = None
    hops: int = 0


@dataclass(frozen=True)
class LinkProfile:
    """Fault/jitter injection for one directed link (src -> dst).

    This is the channel interface the reliable-transport layer arms
    against: a link with a profile drops each message independently with
    ``drop_probability`` and delays it by a uniform draw from
    ``[0, jitter_ns]`` (jitter reorders messages relative to other
    links, and relative to this link's own later sends when large).
    With ``TransportParams(mode="never")`` nothing arms, so the same
    profile exercises the client's end-to-end fallback path instead.
    """

    drop_probability: float = 0.0
    jitter_ns: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if self.jitter_ns < 0.0:
            raise ValueError("jitter_ns must be >= 0")

    @property
    def lossy(self) -> bool:
        return self.drop_probability > 0.0 or self.jitter_ns > 0.0


class Endpoint:
    """A NIC attachment point: an inbox plus egress serialization."""

    def __init__(self, env: Environment, name: str,
                 link_bytes_per_ns: float,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.name = name
        self.inbox: Store = Store(env)
        self.egress = Resource(env, capacity=1)
        self.link_bytes_per_ns = link_bytes_per_ns
        if registry is None:
            registry = MetricsRegistry(clock=lambda: env.now)
        self.registry = registry
        prefix = f"net.{name}"
        self._tx_bytes = registry.counter(f"{prefix}.tx_bytes")
        self._rx_bytes = registry.counter(f"{prefix}.rx_bytes")
        self._tx_messages = registry.counter(f"{prefix}.tx_messages")
        self._rx_messages = registry.counter(f"{prefix}.rx_messages")
        #: distribution of transmitted message sizes; batching shifts
        #: this up while dropping tx_messages -- the amortization signal
        self._tx_message_bytes = registry.histogram(
            f"{prefix}.tx_message_bytes")
        registry.gauge(f"{prefix}.tx_bandwidth_bytes_per_ns",
                       fn=self._tx_bandwidth)
        registry.gauge(f"{prefix}.rx_bandwidth_bytes_per_ns",
                       fn=self._rx_bandwidth)
        # Measurement window (see begin_window / network_utilization).
        self._window_start = env.now
        self._window_tx_base = 0
        self._window_rx_base = 0

    def _tx_bandwidth(self) -> float:
        return self._window_rate(self._tx_bytes.value
                                 - self._window_tx_base)

    def _rx_bandwidth(self) -> float:
        return self._window_rate(self._rx_bytes.value
                                 - self._window_rx_base)

    def _window_rate(self, window_bytes: float) -> float:
        """Bytes/ns over the window since :meth:`begin_window`."""
        window = self.env.now - self._window_start
        return window_bytes / window if window > 0 else 0.0

    def begin_window(self) -> None:
        """Start a fresh byte-accounting window at the current time."""
        self._window_start = self.env.now
        self._window_tx_base = self._tx_bytes.value
        self._window_rx_base = self._rx_bytes.value

    def network_utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of link bandwidth used (max of rx/tx directions).

        The byte counts cover the window since construction or the last
        :meth:`begin_window` call.  ``elapsed``, when given, must cover
        that window: a shorter caller window would claim more bytes
        moved than the link can carry (utilization > 1), which raises
        :class:`SimulationError` instead of being reported.
        """
        window = (elapsed if elapsed is not None
                  else self.env.now - self._window_start)
        if window <= 0:
            return 0.0
        peak = max(self._tx_bytes.value - self._window_tx_base,
                   self._rx_bytes.value - self._window_rx_base)
        value = peak / (window * self.link_bytes_per_ns)
        if elapsed is not None and value > 1.0 + 1e-9:
            raise SimulationError(
                f"network utilization {value:.3f} > 1 on {self.name!r}: "
                f"the elapsed window ({elapsed} ns) is shorter than the "
                "byte-accounting window; call begin_window() at the "
                "start of the measurement window")
        return value


class Fabric:
    """The switch-centric star network connecting all endpoints."""

    def __init__(self, env: Environment, params: NetworkParams,
                 seed: int = 0,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.params = params
        self.seed = seed
        self._endpoints: Dict[str, Endpoint] = {}
        #: per-link fault injection: (src, dst) -> LinkProfile, with one
        #: deterministic RNG per link seeded from (link name, run seed)
        #: so lossy-fabric runs reproduce regardless of test ordering.
        #: Links without an entry fall back to ``_default_link``, so an
        #: endpoint registered later inherits the rack-wide profile.
        self._links: Dict[Tuple[str, str], LinkProfile] = {}
        self._default_link: Optional[LinkProfile] = None
        self._link_rngs: Dict[Tuple[str, str], random.Random] = {}
        if registry is None:
            registry = MetricsRegistry(clock=lambda: env.now)
        self.registry = registry
        self._dropped = registry.counter("net.dropped_messages")
        self._delivered = registry.counter("net.delivered_messages")
        #: delivered / offered across the whole fabric -- the goodput
        #: denominator the loss-sweep report reads
        registry.gauge("net.delivery_ratio", fn=self._delivery_ratio)
        #: sharded-execution seam (see ``repro.shard``): when set,
        #: messages to endpoints owned by another process are exported
        #: at tx-end -- with propagation, jitter, and the drop verdict
        #: computed eagerly, since the sender owns this link's RNG --
        #: and the owning process finishes delivery at arrival time
        self.shard_router = None

    def _delivery_ratio(self) -> float:
        offered = self._delivered.value + self._dropped.value
        return self._delivered.value / offered if offered else 1.0

    # -- per-link fault injection -------------------------------------------
    def configure_link(self, src: str, dst: str,
                       profile: Optional[LinkProfile]) -> None:
        """Set (or clear, with ``None``) one directed link's profile."""
        if profile is None:
            self._links.pop((src, dst), None)
        else:
            self._links[(src, dst)] = profile

    def configure_all_links(self, profile: Optional[LinkProfile]) -> None:
        """Make ``profile`` the default of every link without its own
        :meth:`configure_link` entry, present or future (``None`` clears
        it)."""
        self._default_link = profile

    def link_profile(self, src: str, dst: str) -> Optional[LinkProfile]:
        return self._links.get((src, dst), self._default_link)

    def _link_rng(self, src: str, dst: str) -> random.Random:
        key = (src, dst)
        rng = self._link_rngs.get(key)
        if rng is None:
            # Seeded from (link name, run seed): deterministic per link
            # and independent of creation/traffic order on other links.
            rng = random.Random(f"{self.seed}:{src}->{dst}")
            self._link_rngs[key] = rng
        return rng

    def begin_window(self) -> None:
        """Start a fresh byte-accounting window on every endpoint."""
        for endpoint in self._endpoints.values():
            endpoint.begin_window()

    def register(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(self.env, name,
                            self.params.link_bytes_per_ns,
                            registry=self.registry)
        self._endpoints[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        return self._endpoints[name]

    def endpoints(self) -> Dict[str, Endpoint]:
        return dict(self._endpoints)

    def send(self, message: Message, segments: int = 2,
             extra_latency_ns: float = 0.0) -> None:
        """Start delivery of ``message``; returns immediately.

        Delivery runs as its own process: serialize at the sender's
        egress, propagate over ``segments`` wire segments (2 = through the
        switch, host->switch->host; the switch itself uses 1 for each leg
        it handles explicitly), then (unless dropped) appear in the
        destination inbox.
        """
        if message.src not in self._endpoints:
            raise ValueError(f"unknown source endpoint {message.src!r}")
        if message.dst not in self._endpoints:
            raise ValueError(f"unknown destination endpoint {message.dst!r}")
        self.env.process(
            self._deliver(message, segments, extra_latency_ns))

    def _deliver(self, message: Message, segments: int,
                 extra_latency_ns: float):
        src = self._endpoints[message.src]
        dst = self._endpoints[message.dst]

        yield src.egress.hold(message.size_bytes / src.link_bytes_per_ns)
        src._tx_bytes.inc(message.size_bytes)
        src._tx_messages.inc()
        src._tx_message_bytes.record(message.size_bytes)

        propagation = (self.params.segment_ns * segments
                       + self.params.switch_process_ns
                       + extra_latency_ns)
        profile = self._links.get((message.src, message.dst),
                                  self._default_link)

        router = self.shard_router
        if router is not None and not router.owns(message.dst):
            # Shard boundary: resolve the whole arrival verdict now.
            # Jitter and drop come from the same per-link RNG as the
            # in-process path; only this process ever draws from it, so
            # sharded runs are reproducible (the draw *interleaving*
            # differs from in-process only on lossy links, where jitter
            # and drop were previously drawn at different sim times).
            if profile is not None and profile.jitter_ns > 0.0:
                rng = self._link_rng(message.src, message.dst)
                propagation += rng.uniform(0.0, profile.jitter_ns)
            if profile is not None and profile.drop_probability > 0.0:
                rng = self._link_rng(message.src, message.dst)
                if rng.random() < profile.drop_probability:
                    self._dropped.inc()
                    return
            router.export(message, self.env.now + propagation)
            return

        if profile is not None and profile.jitter_ns > 0.0:
            rng = self._link_rng(message.src, message.dst)
            propagation += rng.uniform(0.0, profile.jitter_ns)
        yield self.env.timeout(propagation)

        if profile is not None and profile.drop_probability > 0.0:
            rng = self._link_rng(message.src, message.dst)
            if rng.random() < profile.drop_probability:
                self._dropped.inc()
                return

        self._finish_delivery(message)

    def _finish_delivery(self, message: Message) -> None:
        """Receive-side accounting + inbox delivery (one code path for
        the in-process tail and sharded frame import)."""
        dst = self._endpoints[message.dst]
        message.hops += 1
        dst._rx_bytes.inc(message.size_bytes)
        dst._rx_messages.inc()
        self._delivered.inc()
        dst.inbox.put(message)

    def inject(self, message: Message, arrival_ns: float) -> None:
        """Deliver a frame exported by another shard at ``arrival_ns``.

        The exporting process already charged serialization and
        computed propagation/jitter/drop; this schedules only the
        receive side, at the absolute arrival time it computed.
        """
        event = Event(self.env)
        event._ok = True
        event.callbacks.append(
            lambda _e, m=message: self._finish_delivery(m))
        self.env.schedule_at(event, arrival_ns)
