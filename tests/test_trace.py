"""Tests for the registry-owned per-request event log."""

from repro.core import PulseCluster
from repro.obs import EventLog, MetricsRegistry
from repro.sim import Environment
from repro.structures import LinkedList


def make_log(**kwargs):
    env = Environment()
    return env, EventLog(lambda: env.now, **kwargs)


class TestTracerUnit:
    def test_records_in_time_order(self):
        env, log = make_log()
        log.record("a", "first", (0, 1))
        env.run(until=100)
        log.record("b", "second", (0, 1))
        events = log.timeline((0, 1))
        assert [e.event for e in events] == ["first", "second"]
        assert events[0].time_ns < events[1].time_ns

    def test_capacity_drops_extras(self):
        _, log = make_log(capacity=2)
        for i in range(5):
            log.record("x", "e", (0, i))
        assert len(log.events) == 2
        assert log.dropped == 3

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
    def test_full_request_timeline(self):
        cluster = PulseCluster(node_count=2, trace=True)
        lst = LinkedList(cluster.memory, placement=lambda o: o % 2)
        lst.extend((k, k) for k in range(1, 6))
        result = cluster.run_traversal(lst.find_iterator(), 5)
        assert result.value == 5

        request_id = (0, 1)
        log = cluster.registry.events
        events = [e.event for e in log.timeline(request_id)]
        assert events[0] == "issue"
        assert "route_to_memory" in events
        assert "reroute" in events          # crossed nodes 4 times
        assert events.count("execute") == 5  # one per node visit
        assert "return_to_client" in events
        assert events[-1] == "complete"
        # The span matches the measured latency to within the client's
        # final stack hold.
        span = log.span_ns(request_id)
        assert span <= result.latency_ns
        assert span > 0.5 * result.latency_ns
        # The log rides beside the metrics, not inside the snapshot.
        assert set(cluster.metrics_snapshot()) == {
            "now_ns", "counters", "gauges", "histograms"}

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
