"""The reliable-transport stack: seq/ack dedup, retransmission with
capped backoff, deterministic per-link fault injection, the switch's
drop of hop frames its traversal has advanced past, and checkpoint-resume equivalence."""

import random
from heapq import heappop

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.sim.engine
from repro.core import PulseCluster
from repro.core.messages import (TP_FLAG_ACK, RequestStatus,
                                 TransportHeader, TraversalBatch,
                                 TraversalRequest)
from repro.isa import assemble
from repro.params import US, SystemParams, TransportParams
from repro.sim.engine import Environment
from repro.sim.network import Fabric, LinkProfile, Message
from repro.structures import LinkedList
from repro.transport import Segment, TransportSession
from repro.transport.session import TP_ACK_KIND

from tests.helpers import ReferenceDedup, counter_value


def make_pair(mode="auto", tp_kwargs=None, net_seed=0):
    """Two sessions (a, b) on a fresh fabric."""
    env = Environment()
    params = SystemParams()
    fabric = Fabric(env, params.network, seed=net_seed)
    tp = TransportParams(mode=mode, **(tp_kwargs or {}))
    a = TransportSession(env, fabric, "a", params=tp)
    b = TransportSession(env, fabric, "b", params=tp)
    return env, fabric, a, b


def counter(session, name):
    return session.registry.counter(
        f"{session.name}.tp.{name}").value


class TestCutThrough:
    def test_unarmed_send_reaches_inbox_without_transport_traffic(self):
        env, fabric, a, b = make_pair(mode="auto")
        a.send("b", "test", {"x": 1}, 128)
        env.run()
        message = b.inbox._items[0]
        assert message.kind == "test"
        assert message.payload == {"x": 1}
        assert message.size_bytes == 128
        # Cut-through: no segments, no acks, no header bytes.
        assert counter(a, "tx_segments") == 0
        assert counter(b, "acks_tx") == 0
        assert counter_value(fabric, "net.b.rx_bytes") == 128

    def test_never_mode_is_unarmed_even_on_lossy_links(self):
        env, fabric, a, b = make_pair(mode="never")
        fabric._links[("a", "b")] = LinkProfile(drop_probability=0.5)
        assert not a.armed_to("b")


class TestReliableDelivery:
    def test_armed_send_delivers_once_and_acks(self):
        env, fabric, a, b = make_pair(mode="always")
        a.send("b", "test", "payload", 256)
        env.run()
        assert len(b.inbox._items) == 1
        message = b.inbox._items[0]
        assert message.payload == "payload"
        assert message.size_bytes == 256  # header stripped on delivery
        assert counter(a, "tx_segments") == 1
        assert counter(a, "acks_rx") == 1
        assert counter(b, "acks_tx") == 1
        assert counter(a, "retransmits") == 0
        # The armed frame carried the transport header on the wire.
        tp = TransportParams()
        assert counter_value(
            fabric, "net.b.rx_bytes") == 256 + tp.header_bytes
        assert counter_value(fabric, "net.a.rx_bytes") == tp.ack_bytes

    def test_duplicate_segments_are_suppressed_and_reacked(self):
        env, fabric, a, b = make_pair(mode="always")
        segment = Segment(header=TransportHeader(seq=1), kind="test",
                          payload="dup", size_bytes=64)
        message = Message(kind="test", src="a", dst="b",
                          size_bytes=64, payload=segment)
        b._handle_data(message, segment)
        b._handle_data(message, segment)
        assert len(b.inbox._items) == 1
        assert counter(b, "duplicates_dropped") == 1
        # Duplicates are re-ACKed: the first ACK may have been lost.
        assert counter(b, "acks_tx") == 2

    def test_out_of_order_segments_all_delivered(self):
        env, fabric, a, b = make_pair(mode="always")
        for seq in (3, 1, 2):
            segment = Segment(header=TransportHeader(seq=seq),
                              kind="test", payload=seq, size_bytes=64)
            message = Message(kind="test", src="a", dst="b",
                              size_bytes=64, payload=segment)
            b._handle_data(message, segment)
        assert [m.payload for m in b.inbox._items] == [3, 1, 2]
        assert counter(b, "duplicates_dropped") == 0

    def test_version_mismatch_dropped(self):
        env, fabric, a, b = make_pair(mode="always")
        segment = Segment(header=TransportHeader(seq=1, version=99),
                          kind="test", payload="future", size_bytes=64)
        message = Message(kind="test", src="a", dst="b",
                          size_bytes=64, payload=segment)
        b._handle_data(message, segment)
        assert not b.inbox._items
        assert counter(b, "version_drops") == 1

    def test_retransmits_recover_a_lossy_link(self):
        env, fabric, a, b = make_pair(mode="auto", net_seed=11)
        fabric._links[("a", "b")] = LinkProfile(drop_probability=0.4)
        for i in range(20):
            a.send("b", "test", i, 128)
        env.run()
        assert sorted(m.payload for m in b.inbox._items) == list(range(20))
        assert counter(a, "retransmits") > 0
        assert counter(a, "gave_up") == 0

    def test_gives_up_after_budget_with_capped_backoff(self):
        env, fabric, a, b = make_pair(
            mode="auto",
            tp_kwargs=dict(hop_timeout_ns=10.0 * US,
                           hop_backoff_cap_ns=15.0 * US,
                           max_hop_retries=3))
        fabric._links[("a", "b")] = LinkProfile(drop_probability=1.0)
        a.send("b", "test", "doomed", 128)
        env.run()
        assert not b.inbox._items
        assert counter(a, "retransmits") == 3
        assert counter(a, "gave_up") == 1
        # Timer waits: 10, then min(20, 15), then 15, then 15 us
        # (+/-20% jitter) before the budget check gives up.
        assert 0.8 * 55.0 * US <= env.now <= 1.2 * 55.0 * US

    def test_ack_loss_causes_duplicate_not_double_delivery(self):
        env, fabric, a, b = make_pair(mode="auto", net_seed=3)
        # Forward link is clean-ish, the reverse (ACK) path is awful.
        fabric._links[("a", "b")] = LinkProfile(drop_probability=0.1)
        fabric._links[("b", "a")] = LinkProfile(drop_probability=0.8)
        for i in range(10):
            a.send("b", "test", i, 128)
        env.run()
        assert sorted(m.payload for m in b.inbox._items) == list(range(10))
        assert counter(b, "duplicates_dropped") > 0


def _arrive(session, src, seq):
    """Hand ``session`` one data segment ``seq`` from ``src``; returns
    whether it was delivered upward."""
    segment = Segment(header=TransportHeader(seq=seq), kind="test",
                      payload=seq, size_bytes=64)
    before = len(session.inbox._items)
    session._handle_data(Message(kind="test", src=src, dst=session.name,
                                 size_bytes=64, payload=segment), segment)
    return len(session.inbox._items) > before


class TestDedupWindow:
    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(window=st.integers(1, 8),
           copies=st.lists(st.integers(0, 3), min_size=1, max_size=60),
           order=st.randoms(use_true_random=False))
    def test_decisions_equal_the_overflow_only_window(self, window, copies,
                                                      order):
        # Each seq arrives 0 (lost), 1 or more (duplicated) times, in a
        # shuffled order; every decision must match the old rule.
        arrivals = [seq for seq, n in enumerate(copies, 1)
                    for _ in range(n)]
        assume(arrivals)
        order.shuffle(arrivals)
        _, _, _, b = make_pair(mode="always",
                               tp_kwargs=dict(dedup_window=window))
        reference = ReferenceDedup(window)
        for seq in arrivals:
            assert _arrive(b, "a", seq) == reference.accept(seq), seq
        flow = b._rx["a"]
        assert flow.floor + 1 not in flow.seen
        assert len(flow.seen) <= window

    def test_in_order_delivery_keeps_the_window_empty(self):
        env, _, a, b = make_pair(mode="always")
        for i in range(5_000):
            a.send("b", "test", i, 64)
        env.run()
        assert [m.payload for m in b.inbox._items] == list(range(5_000))
        assert b._rx["a"].floor == 5_000
        assert not b._rx["a"].seen


class TestRetransmitTimer:
    def test_an_armed_segment_is_one_timer_and_its_ack_cancels_it(self):
        env, _, a, b = make_pair(mode="always")
        a.send("b", "test", "x", 128)
        entry = a._tx["b"].outstanding[1]
        timer = entry.timer
        assert timer.callbacks and not timer.processed
        env.run()
        assert b.inbox._items and not a._tx["b"].outstanding
        # The ACK disarmed the timer: it never fired, and the clock
        # stopped at the ACK, not at the timer's expiry.
        assert not timer.processed
        assert env.now < 0.8 * TransportParams().hop_timeout_ns

    def test_take_over_cancels_every_timer(self):
        env, fabric, a, _ = make_pair(mode="auto")
        fabric._links[("a", "b")] = LinkProfile(drop_probability=1.0)
        for i in range(3):
            a.send("b", "test", i, 128)
        timers = [e.timer for e in a._tx["b"].outstanding.values()]
        assert a.take_over("b") == [0, 1, 2]
        env.run()
        assert not any(t.processed for t in timers)
        assert counter(a, "retransmits") == 0


class TestMessageHandler:
    """``on_message`` is the session's upward seam: the component's
    handler runs inside the fabric's arrival callback; ``inbox`` is only
    the sink of a session nobody gave a handler."""

    def _lossy_stream(self, with_handler):
        """20 armed sends a -> b with both directions dropping; returns
        what b delivered upward and the first arrival time of each
        payload's data segment at b's NIC."""
        env, fabric, a, b = make_pair(mode="auto", net_seed=3)
        fabric._links[("a", "b")] = LinkProfile(drop_probability=0.3)
        fabric._links[("b", "a")] = LinkProfile(drop_probability=0.6)
        first_arrival = {}
        arrive = fabric._arrive

        def spy(event):
            message = event._value
            if message.dst == "b":
                first_arrival.setdefault(message.payload.payload, env.now)
            arrive(event)

        fabric._arrive = spy
        handled, stray = [], []
        if with_handler:
            b.on_message = lambda m: handled.append((m.payload, env.now))
            a.on_message = stray.append
        for i in range(20):
            a.send("b", "test", i, 128)
        env.run()
        # The stream exercised what the filter must hide.
        assert counter(b, "duplicates_dropped") > 0
        assert counter(a, "acks_rx") > 0
        assert not stray  # ACKs never reach a handler
        return b, handled, first_arrival

    def test_handler_sees_each_payload_once_at_its_arrival_instant(self):
        b, handled, first_arrival = self._lossy_stream(with_handler=True)
        assert sorted(payload for payload, _ in handled) == list(range(20))
        assert all(at == first_arrival[payload] for payload, at in handled)
        assert not b.inbox._items

    def test_without_a_handler_the_same_stream_lands_in_the_inbox(self):
        _, handled, _ = self._lossy_stream(with_handler=True)
        b, nothing, _ = self._lossy_stream(with_handler=False)
        assert not nothing
        assert ([m.payload for m in b.inbox._items]
                == [payload for payload, _ in handled])

    def test_cut_through_reaches_the_handler_in_two_heap_pops(
            self, monkeypatch):
        # Egress hold end, arrival -- no Store hop, no process start.
        pops = []

        def counting_pop(queue):
            pops.append(queue[0])
            return heappop(queue)

        monkeypatch.setattr(repro.sim.engine, "heappop", counting_pop)
        env, fabric, a, b = make_pair(mode="auto")
        at_entry = []
        b.on_message = lambda m: at_entry.append(len(pops))
        a.send("b", "test", "x", 128)
        env.run()
        assert at_entry == [2]


class TestDeterministicLinkRngs:
    def test_same_seed_same_stream(self):
        results = []
        for _ in range(2):
            env, fabric, a, b = make_pair(mode="auto", net_seed=42)
            fabric._links[("a", "b")] = LinkProfile(drop_probability=0.3)
            for i in range(30):
                a.send("b", "test", i, 128)
            env.run()
            results.append((counter(a, "retransmits"),
                            counter_value(fabric, "net.dropped_messages"),
                            env.now))
        assert results[0] == results[1]

    def test_link_stream_independent_of_other_links(self):
        # The per-link RNG is seeded from (link name, run seed) alone:
        # traffic or configuration on other links must not perturb it.
        env1 = Environment()
        f1 = Fabric(env1, SystemParams().network, seed=9)
        env2 = Environment()
        f2 = Fabric(env2, SystemParams().network, seed=9)
        f2._link_rng("x", "y").random()  # unrelated link drawn first
        draws1 = [f1._link_rng("a", "b").random() for _ in range(5)]
        draws2 = [f2._link_rng("a", "b").random() for _ in range(5)]
        assert draws1 == draws2
        assert f1._link_rng("a", "b") is f1._link_rng("a", "b")

    def test_seed_string_matches_spec(self):
        env = Environment()
        fabric = Fabric(env, SystemParams().network, seed=7)
        expected = random.Random("7:a->b").random()
        assert fabric._link_rng("a", "b").random() == expected


class TestJitterReordering:
    def test_jitter_delays_but_delivers(self):
        env, fabric, a, b = make_pair(mode="auto", net_seed=5)
        fabric._links[("a", "b")] = LinkProfile(jitter_ns=50.0 * US)
        for i in range(10):
            a.send("b", "test", i, 128)
        env.run()
        assert sorted(m.payload for m in b.inbox._items) == list(range(10))
        # Jitter large enough to reorder across back-to-back sends.
        order = [m.payload for m in b.inbox._items]
        assert order != sorted(order)


class TestSwitchHopEpoch:
    def _cluster(self):
        cluster = PulseCluster(node_count=2)
        lst = LinkedList(cluster.memory,
                         placement=lambda ordinal: ordinal % 2)
        lst.extend((k, k) for k in range(1, 6))
        return cluster, lst

    def _running(self, lst, request_id=(0, 1), node_hops=0):
        return TraversalRequest(
            request_id=request_id,
            program=lst.find_iterator().program,
            cur_ptr=lst.head,
            scratch=b"\x00" * 16,
            status=RequestStatus.RUNNING,
            node_hops=node_hops,
        )

    def _frame(self, lst, node_hops):
        return TraversalBatch([self._running(lst, node_hops=node_hops)])

    def test_lower_epoch_from_memory_is_dropped(self):
        cluster, lst = self._cluster()
        switch = cluster.switch
        switch._route(Message(kind="pulse", src="client0", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=0)))
        switch._route(Message(kind="pulse", src="mem0", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=2)))
        assert counter_value(switch, "switch.stale_epoch_drops") == 0
        before = counter_value(switch, "switch.rerouted_node_to_node")
        switch._route(Message(kind="pulse", src="mem1", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=1)))
        assert counter_value(switch, "switch.stale_epoch_drops") == 1
        assert counter_value(switch, "switch.rerouted_node_to_node") == before

    def test_equal_epoch_is_not_stale(self):
        cluster, lst = self._cluster()
        switch = cluster.switch
        switch._route(Message(kind="pulse", src="mem0", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=3)))
        switch._route(Message(kind="pulse", src="mem0", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=3)))
        assert counter_value(switch, "switch.stale_epoch_drops") == 0

    def test_client_resubmission_resets_epoch(self):
        cluster, lst = self._cluster()
        switch = cluster.switch
        switch._route(Message(kind="pulse", src="mem0", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=4)))
        # End-to-end retry restarts the chain at epoch 0 -- it must
        # route, not be treated as stale.
        before = counter_value(switch, "switch.routed_to_memory")
        switch._route(Message(kind="pulse", src="client0", dst="switch",
                              size_bytes=256,
                              payload=self._frame(lst, node_hops=0)))
        assert counter_value(switch, "switch.routed_to_memory") == before + 1
        assert counter_value(switch, "switch.stale_epoch_drops") == 0


class TestCheckpointResume:
    def _run(self, drop):
        params = SystemParams(transport=TransportParams(mode="auto"))
        cluster = PulseCluster(node_count=2, params=params, seed=0)
        lst = LinkedList(cluster.memory,
                         placement=lambda ordinal: ordinal % 2)
        lst.extend((k, k) for k in range(1, 18))
        if drop:
            cluster.fabric.configure_all_links(
                LinkProfile(drop_probability=drop))
        result = cluster.run_traversal(lst.find_iterator(), 17)
        return cluster, result

    def test_lossy_result_equals_lossless_result(self):
        _, lossless = self._run(0.0)
        cluster, lossy = self._run(0.12)
        assert lossy.ok
        assert lossy.value == lossless.value
        assert lossy.iterations == lossless.iterations
        assert lossy.hops == lossless.hops
        # Recovery happened per hop, not by end-to-end restart.
        snap = cluster.metrics_snapshot()["counters"]
        retransmits = sum(v for k, v in snap.items()
                          if k.endswith(".tp.retransmits"))
        assert retransmits > 0
        assert snap["client0.client.retransmissions"] == 0

    def test_checkpoint_frames_flagged_by_session(self):
        cluster, result = self._run(0.12)
        assert result.ok
        snap = cluster.metrics_snapshot()["counters"]
        frames = sum(v for k, v in snap.items()
                     if k.endswith(".tp.checkpoint_frames"))
        # 16 inter-node hops, each crossing two armed legs
        # (mem -> switch -> mem); every leg carries the checkpoint.
        assert frames >= 32


class TestCheckpointFlag:
    """A frame is a hop checkpoint exactly when it carries one
    in-progress RUNNING request."""

    PROGRAM = assemble("LOAD 0 8\nRETURN")

    def _flagged(self, payload):
        env, fabric, a, b = make_pair(mode="always")
        a.send("b", "pulse", payload, 128)
        entry, = a._tx["b"].outstanding.values()
        assert entry.segment.header.is_checkpoint == bool(
            counter(a, "checkpoint_frames"))
        return entry.segment.header.is_checkpoint

    def _request(self, status=RequestStatus.RUNNING, node_hops=0,
                 iterations_done=0, request_id=(0, 1)):
        return TraversalRequest(
            request_id=request_id, program=self.PROGRAM, cur_ptr=0x1000,
            scratch=b"", status=status, node_hops=node_hops,
            iterations_done=iterations_done)

    def test_a_continuation_in_a_frame_of_one_is_flagged(self):
        assert self._flagged(TraversalBatch([self._request(node_hops=1)]))
        assert self._flagged(TraversalBatch(
            [self._request(iterations_done=3)]))

    def test_a_fresh_or_finished_request_is_not(self):
        assert not self._flagged(TraversalBatch([self._request()]))
        assert not self._flagged(TraversalBatch(
            [self._request(RequestStatus.DONE, node_hops=2)]))

    def test_a_multi_request_frame_is_not(self):
        assert not self._flagged(TraversalBatch(
            [self._request(node_hops=1),
             self._request(node_hops=1, request_id=(0, 2))]))

    def test_a_frame_without_requests_is_not(self):
        assert not self._flagged({"x": 1})


class TestAckWireFormat:
    def test_acks_are_standalone_kind(self):
        env, fabric, a, b = make_pair(mode="always")
        seen = []
        original = a._handle_ack

        def spy(src, ack):
            seen.append((src, ack))
            original(src, ack)

        a._handle_ack = spy
        a.send("b", "test", "x", 128)
        env.run()
        assert len(seen) == 1
        src, ack = seen[0]
        assert src == "b"
        assert ack.header.flags & TP_FLAG_ACK
        assert ack.header.ack == 1
        assert TP_ACK_KIND == "tp.ack"


class TestScaleOutUnderLoss:
    def test_late_node_inherits_the_all_links_profile(self):
        # configure_all_links used to walk only the endpoints registered
        # so far, leaving a node added afterwards lossless and unarmed.
        cluster = PulseCluster(node_count=1)
        lossy = LinkProfile(drop_probability=0.1)
        cluster.fabric.configure_all_links(lossy)
        name = f"mem{cluster.add_node()}"
        new_session = cluster.accelerators[-1].session
        assert cluster.fabric.link_profile("switch", name) == lossy
        assert cluster.fabric.link_profile(name, "switch") == lossy
        assert cluster.switch.session.armed_to(name)
        assert new_session.armed_to("switch")
        # An explicit per-link entry still wins over the default ...
        quiet = LinkProfile(jitter_ns=5.0)
        cluster.fabric._links[("switch", name)] = quiet
        assert cluster.fabric.link_profile("switch", name) == quiet
        # ... and None clears the default for every link without one.
        cluster.fabric.configure_all_links(None)
        assert cluster.fabric.link_profile(name, "switch") is None
        assert not new_session.armed_to("switch")
