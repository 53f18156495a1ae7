"""Unit tests for the observability subsystem (repro.obs)."""

import json
import math

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_float_increments(self):
        c = Counter("busy_ns")
        c.inc(1.5)
        c.inc(2.25)
        assert c.value == pytest.approx(3.75)

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_reset(self):
        c = Counter("x")
        c.inc(7)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_gauge(self):
        g = Gauge("occupancy")
        assert g.value == 0.0
        g.set(12.0)
        assert g.value == 12.0
        g.reset()
        assert g.value == 0.0

    def test_callback_gauge_reads_live(self):
        state = {"v": 1.0}
        g = Gauge("bw", fn=lambda: state["v"])
        assert g.value == 1.0
        state["v"] = 9.0
        assert g.value == 9.0

    def test_callback_gauge_rejects_set(self):
        g = Gauge("bw", fn=lambda: 0.0)
        with pytest.raises(MetricError):
            g.set(1.0)

    def test_reset_leaves_callback_gauges_alone(self):
        g = Gauge("bw", fn=lambda: 3.0)
        g.reset()
        assert g.value == 3.0


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("lat")
        for v in (10.0, 20.0, 30.0):
            h.record(v)
        assert h.count == 3
        assert h.sum == 60.0
        assert h.mean == 20.0
        assert h.min == 10.0
        assert h.max == 30.0

    def test_all_equal_distribution_is_exact(self):
        # Clamping quantiles into [min, max] makes degenerate
        # distributions exact -- the Fig 9 breakdown relies on this.
        h = Histogram("netstack")
        for _ in range(100):
            h.record(430.0)
        assert h.percentile(50.0) == 430.0
        assert h.percentile(99.0) == 430.0
        assert h.mean == 430.0

    def test_percentiles_within_bucket_error(self):
        h = Histogram("lat")
        for v in range(1, 1001):
            h.record(float(v))
        p50 = h.percentile(50.0)
        p99 = h.percentile(99.0)
        # Geometric buckets give ~4 % relative error.
        assert 500 * 0.95 <= p50 <= 500 * 1.05
        assert 990 * 0.95 <= p99 <= 1000.0
        assert h.percentile(100.0) == 1000.0
        assert h.percentile(0.0) >= 1.0

    def test_zero_and_negative_values_clamp(self):
        h = Histogram("d")
        h.record(0.0)
        h.record(-1e-9)  # float subtraction noise
        assert h.count == 2
        assert h.min == 0.0
        assert h.percentile(50.0) == 0.0

    def test_empty_histogram(self):
        h = Histogram("d")
        assert h.mean == 0.0
        assert h.percentile(99.0) == 0.0
        assert h.snapshot()["count"] == 0

    def test_percentile_range_checked(self):
        h = Histogram("d")
        with pytest.raises(MetricError):
            h.percentile(101.0)

    def test_snapshot_shape(self):
        h = Histogram("d")
        h.record(5.0)
        snap = h.snapshot()
        assert set(snap) == {"count", "sum", "mean", "min", "max",
                             "p50", "p90", "p99", "p999"}

    def test_does_not_store_samples(self):
        # Streaming: memory is bounded by bucket count, not sample count.
        h = Histogram("d")
        for v in range(1, 100_000):
            h.record(float(v % 97) + 1.0)
        assert len(h._buckets) < 150

    #: repeats, zeros, negatives, ints, exact bucket boundaries
    #: (``GROWTH ** k``) and their neighbours, and many distinct values
    BOUNDARIES = [Histogram.GROWTH ** k for k in range(-40, 400, 7)]
    VALUES = ([430.0, 123.96, 0.0, -1e-9, 7, 7.0] * 50 + BOUNDARIES
              + [b * (1 + 1e-12) for b in BOUNDARIES]
              + [float(v) * 0.37 for v in range(1, 600)]
              + BOUNDARIES + [430.0] * 20)

    def test_snapshots_match_the_bucket_rule(self):
        class Reference(Histogram):
            """The bucket rule spelled out, a logarithm per record."""
            __slots__ = ()

            def record(self, value):
                value = max(value, 0.0)
                self.count += 1
                self.sum += value
                self._min = min(self._min, value)
                self._max = max(self._max, value)
                if value == 0.0:
                    self._zero += 1
                    return
                index = math.floor(math.log(value) / math.log(self.GROWTH))
                self._buckets[index] = self._buckets.get(index, 0) + 1

        histogram, reference = Histogram("h"), Reference("r")
        for value in self.VALUES:
            histogram.record(value)
            reference.record(value)
            assert histogram._buckets == reference._buckets
        assert histogram.snapshot() == reference.snapshot()
        assert histogram._zero == reference._zero == 100


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("h") is r.histogram("h")

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(MetricError):
            r.gauge("a")

    def test_names_prefix_filter(self):
        r = MetricsRegistry()
        r.counter("mem0.acc.requests")
        r.counter("switch.dropped_stale")
        assert [n for n in r.names() if n.startswith("mem0.")] == [
            "mem0.acc.requests"]

    def test_reset_zeroes_everything_settable(self):
        r = MetricsRegistry()
        r.counter("c").inc(3)
        r.histogram("h").record(1.0)
        r.gauge("g").set(2.0)
        live = r.gauge("live", fn=lambda: 7.0)
        r.reset()
        assert r.counter("c").value == 0
        assert r.histogram("h").count == 0
        assert r.gauge("g").value == 0.0
        assert live.value == 7.0

    def test_reset_opens_a_new_window(self):
        clock = {"t": 5.0}
        r = MetricsRegistry(clock=lambda: clock["t"])
        moved = r.counter("bytes")
        moved.inc(40)
        clock["t"] = 25.0
        assert r.window_ns == 20.0
        assert r.rate(moved) == 2.0
        r.reset()
        assert (r.window_ns, r.rate(moved)) == (0.0, 0.0)
        moved.inc(30)
        clock["t"] = 35.0
        assert r.window_ns == 10.0
        assert r.rate(moved) == 3.0

    def test_snapshot_is_json_serializable(self):
        clock = {"t": 0.0}
        r = MetricsRegistry(clock=lambda: clock["t"])
        r.counter("c").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h").record(10.0)
        clock["t"] = 99.0
        snap = json.loads(json.dumps(r.snapshot()))
        assert snap["now_ns"] == 99.0
        assert snap["counters"]["c"] == 2
        assert snap["gauges"]["g"] == 1.5
        assert snap["histograms"]["h"]["count"] == 1

