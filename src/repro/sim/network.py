"""Network fabric model: endpoints, links, and message delivery.

The rack in the paper is a star: every CPU node and memory node hangs off
one programmable switch over 100 Gbps links.  The fabric models, per
message: (i) serialization at the sender's NIC (the ``egress`` stage:
size / link bandwidth, concurrent sends queue), (ii) one-way wire
propagation, and (iii) optional per-link drop/jitter injection
(:class:`LinkProfile`, the only loss injector).  Software stack costs
(DPDK, kernel paging, TCP) are charged by the *endpoints*, not the fabric,
because they differ per system -- that difference is exactly what Figs 4-6
measure.

Per-endpoint rx/tx byte counters feed Fig 6's network-bandwidth
utilization numbers.  They live in the fabric's
:class:`~repro.obs.metrics.MetricsRegistry` (``net.<name>.tx_bytes``
etc., plus bandwidth gauges: each counter over the registry's
measurement window).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.params import NetworkParams
from repro.sim.engine import Environment, Event
from repro.sim.resources import Store
from repro.sim.stages import Stage, egress


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


@dataclass(frozen=True)
class LinkProfile:
    """Fault/jitter injection for one directed link (src -> dst).

    This is what the transport session arms against: a link with a
    profile drops each message independently with
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
    """A NIC attachment point: an inbox plus egress serialization.

    ``receive`` is the receive filter the fabric hands every arriving
    message to.  A bare endpoint queues them all in ``inbox``; a
    :class:`~repro.transport.TransportSession` installs its own, which
    consumes ACKs and duplicates and hands the rest to its component's
    ``on_message`` handler (``inbox`` again, if nobody assigned one).
    """

    def __init__(self, env: Environment, name: str, egress_stage: Stage,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.name = name
        self.inbox: Store = Store(env)
        self.receive: Callable[[Message], None] = self.inbox.put
        self.egress = egress_stage
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
                       fn=lambda: registry.rate(self._tx_bytes))
        registry.gauge(f"{prefix}.rx_bandwidth_bytes_per_ns",
                       fn=lambda: registry.rate(self._rx_bytes))


class Fabric:
    """The switch-centric star network connecting all endpoints."""

    def __init__(self, env: Environment, params: NetworkParams,
                 seed: int = 0,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.params = params
        self.seed = seed
        self._egress_row = egress(params)
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
        #: arrivals at endpoints owned by another process are exported
        #: at tx-end instead of scheduled here; the owning process
        #: injects them.  Unset, this process owns every endpoint.
        self.shard_router = None

    def _delivery_ratio(self) -> float:
        offered = self._delivered.value + self._dropped.value
        return self._delivered.value / offered if offered else 1.0

    # -- per-link fault injection -------------------------------------------
    def configure_all_links(self, profile: Optional[LinkProfile]) -> None:
        """Make ``profile`` the default of every link without its own
        entry in ``_links``, present or future (``None`` clears it)."""
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

    def register(self, name: str) -> Endpoint:
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        endpoint = Endpoint(self.env, name, Stage(self.env, self._egress_row),
                            registry=self.registry)
        self._endpoints[name] = endpoint
        return endpoint

    def send(self, message: Message, segments: int = 2) -> None:
        """Start delivery of ``message``; returns immediately.

        Serialize at the sender's egress, propagate over ``segments``
        wire segments (2 = through the switch, host->switch->host; the
        switch itself uses 1 for each leg it handles explicitly), then
        (unless dropped) arrive at the destination endpoint.
        """
        src = self._endpoints.get(message.src)
        if src is None:
            raise ValueError(f"unknown source endpoint {message.src!r}")
        if message.dst not in self._endpoints:
            raise ValueError(f"unknown destination endpoint {message.dst!r}")
        propagation = (self.params.segment_ns * segments
                       + self.params.switch_process_ns)
        tx_end = src.egress.visit(message.size_bytes)
        tx_end.callbacks.append(
            lambda _hold: self._transmitted(src, message, propagation))

    def _transmitted(self, src: Endpoint, message: Message,
                     propagation: float) -> None:
        """Tx-end, the one tail: the sender settles the message's fate.

        Jitter and the drop verdict are drawn here, once, from the
        link's RNG (only the sender ever draws from it), and the
        arrival becomes one heap entry -- in this process, or, past a
        shard boundary, in the one that owns the destination.
        """
        src._tx_bytes.inc(message.size_bytes)
        src._tx_messages.inc()
        src._tx_message_bytes.record(message.size_bytes)

        profile = self.link_profile(message.src, message.dst)
        if profile is not None:
            rng = self._link_rng(message.src, message.dst)
            if profile.jitter_ns > 0.0:
                propagation += rng.uniform(0.0, profile.jitter_ns)
            if (profile.drop_probability > 0.0
                    and rng.random() < profile.drop_probability):
                self._dropped.inc()
                return

        arrival_ns = self.env.now + propagation
        router = self.shard_router
        if router is not None and not router.owns(message.dst):
            router.export(message, arrival_ns)
        else:
            self.inject(message, arrival_ns)

    def inject(self, message: Message, arrival_ns: float) -> None:
        """Schedule ``message``'s arrival at the absolute ``arrival_ns``.

        The sender -- this process's tx-end or another shard's -- already
        charged serialization and decided propagation, jitter and drop;
        what is left is the receive side.
        """
        event = Event(self.env)
        event._ok = True
        event._value = message
        event.callbacks.append(self._arrive)
        self.env.schedule_at(event, arrival_ns)

    def _arrive(self, event: Event) -> None:
        """Receive-side accounting, then the endpoint's receive filter."""
        message = event._value
        dst = self._endpoints[message.dst]
        dst._rx_bytes.inc(message.size_bytes)
        dst._rx_messages.inc()
        self._delivered.inc()
        dst.receive(message)
