"""Unit tests for the network fabric model."""

import pytest

from repro.params import NetworkParams
from repro.sim import Environment
from repro.sim.network import Fabric, LinkProfile, Message

from tests.helpers import counter_value


def make_fabric(env, **overrides):
    params = NetworkParams(**overrides)
    return Fabric(env, params), params


class TestFabricDelivery:
    def test_message_arrives_with_latency(self):
        env = Environment()
        fabric, params = make_fabric(env)
        a = fabric.register("a")
        b = fabric.register("b")
        fabric.send(Message("x", "a", "b", size_bytes=1000))
        env.run()
        assert len(b.inbox) == 1
        serialization = 1000 / params.link_bytes_per_ns
        expected = (serialization + 2 * params.segment_ns
                    + params.switch_process_ns)
        assert env.now == pytest.approx(expected)

    def test_single_segment_is_faster(self):
        times = []
        for segments in (1, 2):
            env = Environment()
            fabric, _ = make_fabric(env)
            fabric.register("a")
            fabric.register("b")
            fabric.send(Message("x", "a", "b", 100), segments=segments)
            env.run()
            times.append(env.now)
        assert times[0] < times[1]

    def test_egress_serializes_concurrent_sends(self):
        env = Environment()
        fabric, params = make_fabric(env)
        a = fabric.register("a")
        b = fabric.register("b")
        big = int(params.link_bytes_per_ns * 1000)  # 1000 ns on the wire
        fabric.send(Message("x", "a", "b", big))
        fabric.send(Message("x", "a", "b", big))
        env.run()
        # Second message waited for the first's serialization.
        assert env.now >= 2000

    def test_byte_counters(self):
        env = Environment()
        fabric, _ = make_fabric(env)
        a = fabric.register("a")
        b = fabric.register("b")
        fabric.send(Message("x", "a", "b", 500))
        fabric.send(Message("x", "b", "a", 300))
        env.run()
        counters = fabric.registry.snapshot()["counters"]
        assert counters["net.a.tx_bytes"] == 500
        assert counters["net.a.rx_bytes"] == 300
        assert counters["net.b.tx_bytes"] == 300
        assert counters["net.b.rx_bytes"] == 500
        assert counters["net.delivered_messages"] == 2

    def test_network_utilization(self):
        """An endpoint's bandwidth gauges are its byte counters over the
        registry's window: bytes moved before a reset do not count."""
        env = Environment()
        fabric, params = make_fabric(env)
        fabric.register("a")
        fabric.register("b")
        fabric.send(Message("x", "a", "b", 12_500))
        env.run()
        reset_at = env.now
        fabric.registry.reset()
        fabric.send(Message("x", "a", "b", 6_250))
        env.run()
        window = env.now - reset_at
        assert fabric.registry.window_ns == window
        gauges = fabric.registry.snapshot()["gauges"]
        util = (gauges["net.a.tx_bandwidth_bytes_per_ns"]
                / params.link_bytes_per_ns)
        assert util == pytest.approx(
            6_250 / (window * params.link_bytes_per_ns))
        assert gauges["net.b.rx_bandwidth_bytes_per_ns"] == 6_250 / window

    def test_drops_respect_probability(self):
        env = Environment()
        fabric, _ = make_fabric(env)
        fabric.configure_all_links(LinkProfile(drop_probability=1.0))
        fabric.register("a")
        b = fabric.register("b")
        for _ in range(5):
            fabric.send(Message("x", "a", "b", 64))
        env.run()
        assert len(b.inbox) == 0
        assert counter_value(fabric, "net.dropped_messages") == 5

    def test_unknown_endpoints_rejected(self):
        env = Environment()
        fabric, _ = make_fabric(env)
        fabric.register("a")
        with pytest.raises(ValueError, match="destination"):
            fabric.send(Message("x", "a", "nope", 64))
        with pytest.raises(ValueError, match="source"):
            fabric.send(Message("x", "nope", "a", 64))

    def test_duplicate_registration_rejected(self):
        env = Environment()
        fabric, _ = make_fabric(env)
        fabric.register("a")
        with pytest.raises(ValueError, match="already registered"):
            fabric.register("a")

    def test_hops_counter_increments_on_delivery(self):
        env = Environment()
        fabric, _ = make_fabric(env)
        fabric.register("a")
        b = fabric.register("b")
        message = Message("x", "a", "b", 64)
        fabric.send(message)
        env.run()
        assert message.hops == 1


class TestCli:
    def test_list_command(self, capsys):
        from repro.bench.__main__ import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pulse" in out and "UPC" in out

    def test_compare_command(self, capsys):
        from repro.bench.__main__ import main
        code = main(["compare", "--workload", "UPC", "--requests", "8",
                     "--systems", "pulse", "--concurrency", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pulse" in out and "uJ/req" in out

    def test_cell_command(self, capsys):
        from repro.bench.__main__ import main
        code = main(["cell", "--system", "pulse", "--workload", "UPC",
                     "--requests", "6", "--concurrency", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed requests   : 6" in out
