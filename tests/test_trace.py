"""Tests for the registry-owned per-request event log."""

from repro.core import PulseCluster
from repro.obs import EventLog, MetricsRegistry, metrics
from repro.sim import Environment
from repro.structures import LinkedList

from tests.helpers import lossy_cluster


def make_log():
    env = Environment()
    return env, EventLog(lambda: env.now)


class TestTracerUnit:
    def test_records_in_time_order(self):
        env, log = make_log()
        log.record("a", "first", (0, 1))
        env.run(until=100)
        log.record("b", "second", (0, 1))
        events = log.timeline((0, 1))
        assert [e.event for e in events] == ["first", "second"]
        assert events[0].time_ns < events[1].time_ns

    def test_capacity_drops_extras(self, monkeypatch):
        monkeypatch.setattr(metrics, "EVENT_LOG_CAPACITY", 2)
        _, log = make_log()
        for i in range(5):
            log.record("x", "e", (0, i))
        assert len(log.events) == 2

    def test_disabled_tracer_records_nothing(self):
        # Off is the absence of a log -- there is no null object.
        registry = MetricsRegistry()
        assert registry.events is None
        log = registry.enable_events()
        assert registry.events is log
        assert registry.enable_events() is log  # idempotent

    def test_render_mentions_components(self):
        _, log = make_log()
        log.record("client0", "issue", (0, 1), program="hash_find")
        text = log.render((0, 1))
        assert "client0" in text and "hash_find" in text


class TestClusterTracing:
    """The log is written where frames cross a component's transport
    session: one event per request of each frame sent or received."""

    def test_full_request_timeline(self):
        cluster = PulseCluster(node_count=2, trace=True)
        lst = LinkedList(cluster.memory, placement=lambda o: o % 2)
        lst.extend((k, k) for k in range(1, 6))
        result = cluster.run_traversal(lst.find_iterator(), 5)
        assert result.value == 5

        request_id = (0, 1)
        log = cluster.registry.events
        events = log.timeline(request_id)
        seam = [(e.component, e.event, e.detail["peer"]) for e in events]
        assert seam[0] == ("client0", "send", "switch")
        # The switch reroutes between the two nodes: a continuation
        # received from one memory node leaves for the other.
        assert ("switch", "receive", "mem0") in seam
        assert ("switch", "send", "mem1") in seam
        reroutes = [e for e in events if e.component == "switch"
                    and e.event == "send" and e.detail["peer"] != "client0"
                    and e.detail["node_hops"] > 0]
        assert len(reroutes) == 4          # crossed nodes 4 times
        replies = [e for e in events
                   if e.component.startswith("mem") and e.event == "send"]
        assert len(replies) == 5           # one per node visit
        assert [e.detail["status"] for e in replies] == \
            ["running"] * 4 + ["done"]
        assert seam[-1] == ("client0", "receive", "switch")
        assert events[-1].detail["status"] == "done"
        # The span matches the measured latency to within the client's
        # stack holds around the wire.
        span = events[-1].time_ns - events[0].time_ns
        assert span <= result.latency_ns
        assert span > 0.5 * result.latency_ns
        # The log rides beside the metrics, not inside the snapshot.
        assert set(cluster.metrics_snapshot()) == {
            "now_ns", "counters", "gauges", "histograms"}

    def test_an_end_to_end_retransmission_is_a_second_client_send(self):
        # Per-hop reliability never arms, so every loss is recovered by
        # the client resending the request after its end-to-end timeout.
        cluster = lossy_cluster(0.3, timeout_ns=2_500.0, trace=True,
                                node_count=1, seed=3)
        lst = LinkedList(cluster.memory)
        lst.extend((k, k) for k in range(1, 4))
        result = cluster.run_traversal(lst.find_iterator(), 3)
        assert result.value == 3

        retransmissions = cluster.metrics_snapshot()["counters"][
            "client0.client.retransmissions"]
        assert retransmissions > 0
        sends = [e for e in cluster.registry.events.timeline((0, 1))
                 if e.component == "client0" and e.event == "send"]
        assert len(sends) == 1 + retransmissions
        assert all(e.detail["iterations_done"] == 0 for e in sends)
        assert sends[0].time_ns < sends[1].time_ns

    def test_tracing_off_by_default(self):
        cluster = PulseCluster(node_count=1)
        lst = LinkedList(cluster.memory)
        lst.extend([(1, 1)])
        cluster.run_traversal(lst.find_iterator(), 1)
        assert cluster.registry.events is None

    def test_tracing_does_not_change_timing(self):
        def latency(trace):
            cluster = PulseCluster(node_count=1, trace=trace)
            lst = LinkedList(cluster.memory)
            lst.extend((k, k) for k in range(1, 21))
            return cluster.run_traversal(
                lst.find_iterator(), 20).latency_ns

        assert latency(True) == latency(False)
