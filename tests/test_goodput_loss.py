"""Goodput under per-link loss: the acceptance scenario of the
transport stack.

A 32-hop traversal chain (33-element linked list alternating across two
memory nodes) must complete at 10% per-link drop with a *bounded* number
of retransmissions and zero end-to-end client retries -- recovery happens
per hop from the checkpointed frame, not by restarting from ``init()``.
With the transport disabled (``mode="never"``), the same fabric defeats
the client's end-to-end retry budget.
"""

import json

import pytest

from repro.bench.report import write_snapshot
from repro.core import PulseCluster
from repro.core.client import RequestLost
from repro.params import SystemParams, TransportParams
from repro.sim.network import LinkProfile
from repro.structures import LinkedList

from tests.helpers import counter_value


def make_chain_cluster(hops, mode="auto", seed=0):
    """A 2-node cluster with a list whose find key is ``hops`` hops deep."""
    params = SystemParams(transport=TransportParams(mode=mode))
    cluster = PulseCluster(node_count=2, params=params, seed=seed)
    lst = LinkedList(cluster.memory, placement=lambda ordinal: ordinal % 2)
    lst.extend((k, k) for k in range(1, hops + 2))
    return cluster, lst


def tp_sum(cluster, suffix):
    counters = cluster.metrics_snapshot()["counters"]
    return sum(v for k, v in counters.items()
               if k.endswith(f".tp.{suffix}"))


class TestThirtyTwoHopChainAtTenPercentLoss:
    HOPS = 32
    DROP = 0.1

    def _run(self):
        cluster, lst = make_chain_cluster(self.HOPS)
        cluster.fabric.configure_all_links(
            LinkProfile(drop_probability=self.DROP))
        result = cluster.run_traversal(lst.find_iterator(),
                                       self.HOPS + 1)
        return cluster, result

    def test_completes_with_bounded_retransmissions(self):
        cluster, result = self._run()
        assert result.ok
        assert result.value == self.HOPS + 1
        assert result.hops == self.HOPS
        retransmits = tp_sum(cluster, "retransmits")
        # Lossy enough that the transport had work to do, bounded enough
        # that per-hop recovery is doing it: far fewer retransmissions
        # than one per (hop x retry-budget) restart storm.
        assert 0 < retransmits < 100
        assert tp_sum(cluster, "gave_up") == 0

    def test_recovery_is_per_hop_not_end_to_end(self):
        cluster, result = self._run()
        assert result.ok
        # The client's last-resort timer never fired: every loss was
        # repaired by the hop that suffered it.
        assert counter_value(cluster, "client0.client.retransmissions") == 0
        assert tp_sum(cluster, "checkpoint_resumes") >= 1

    def test_counters_present_in_snapshot(self):
        cluster, result = self._run()
        counters = cluster.metrics_snapshot()["counters"]
        gauges = cluster.metrics_snapshot()["gauges"]
        for suffix in ("retransmits", "duplicates_dropped",
                       "checkpoint_resumes", "checkpoint_frames"):
            assert any(k.endswith(f".tp.{suffix}") for k in counters), suffix
        assert "net.delivery_ratio" in gauges
        assert 0.0 < gauges["net.delivery_ratio"] <= 1.0
        assert gauges["net.delivery_ratio"] < 1.0  # losses really occurred

    def test_without_transport_the_chain_is_fatal(self):
        cluster, lst = make_chain_cluster(self.HOPS, mode="never")
        cluster.fabric.configure_all_links(
            LinkProfile(drop_probability=self.DROP))
        # 32 hops x 10% per-link loss: each end-to-end attempt survives
        # ~66 armed-free link crossings, so the retry budget drains.
        with pytest.raises(RequestLost):
            cluster.run_traversal(lst.find_iterator(), self.HOPS + 1)


class TestLossSweep:
    """A 16-hop chain completes at every loss rate, lossless-equivalent."""

    HOPS = 16

    @pytest.fixture(scope="class")
    def lossless(self):
        cluster, lst = make_chain_cluster(self.HOPS)
        return cluster.run_traversal(lst.find_iterator(), self.HOPS + 1)

    @pytest.mark.parametrize("drop", [0.0, 0.02, 0.05, 0.1])
    def test_completes_and_matches_lossless(self, drop, lossless):
        cluster, lst = make_chain_cluster(self.HOPS)
        if drop:
            cluster.fabric.configure_all_links(
                LinkProfile(drop_probability=drop))
        result = cluster.run_traversal(lst.find_iterator(), self.HOPS + 1)
        assert result.ok
        assert result.value == lossless.value
        assert result.iterations == lossless.iterations
        assert result.hops == lossless.hops

    def test_goodput_snapshot_artifact(self, tmp_path):
        """The goodput-vs-loss rows round-trip through the snapshot schema
        (the committed artifact is written by the ext_goodput_loss bench)."""
        rows = []
        for drop in (0.0, 0.02, 0.05, 0.1):
            cluster, lst = make_chain_cluster(self.HOPS)
            if drop:
                cluster.fabric.configure_all_links(
                    LinkProfile(drop_probability=drop))
            result = cluster.run_traversal(lst.find_iterator(),
                                           self.HOPS + 1)
            snap = cluster.metrics_snapshot()
            rows.append({
                "drop_probability": drop,
                "ok": result.ok,
                "latency_ns": result.latency_ns,
                "delivery_ratio": snap["gauges"]["net.delivery_ratio"],
                "tp_retransmits": tp_sum(cluster, "retransmits"),
                "tp_duplicates_dropped": tp_sum(cluster,
                                                "duplicates_dropped"),
                "tp_checkpoint_resumes": tp_sum(cluster,
                                                "checkpoint_resumes"),
                "client_e2e_retries": snap["counters"][
                    "client0.client.retransmissions"],
            })
        assert all(r["ok"] for r in rows)
        # Latency should not explode across the sweep: bounded recovery.
        assert rows[-1]["latency_ns"] < 50 * rows[0]["latency_ns"]
        out = write_snapshot("goodput_loss",
                             params={"hops": self.HOPS},
                             metrics={"rows": rows},
                             results_dir=tmp_path)
        assert out == tmp_path / "BENCH_goodput_loss.json"
        assert json.loads(out.read_text())["metrics"]["rows"]
