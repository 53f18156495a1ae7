"""Durability subsystem: redo logging, replication, crash recovery.

Three layers of coverage: pure-unit tests over the log and replica
placement, white-box tests over one node's
group-commit flusher, and whole-rack kill/recover scenarios asserting
the headline guarantee -- an acknowledged write survives the crash of
the node that acknowledged it, and clients observe elevated latency,
never faults.
"""

import pytest

from repro.core import PulseCluster
from repro.core.messages import TraversalBatch
from repro.durability import (CrashInjector, DurabilityError, RecoveryError,
                              RedoLog, replica_targets)
from repro.params import DurabilityParams, SystemParams, TransportParams
from repro.sim.engine import AllOf
from repro.structures import HashTable

from tests import scenario
from tests.helpers import count_process_starts

KEYS = 48


def durable_params(**overrides):
    defaults = dict(enabled=True,
                    group_commit_ns=4_000.0,
                    failure_detect_ns=20_000.0)
    defaults.update(overrides)
    return SystemParams().with_overrides(
        durability=DurabilityParams(**defaults))


def build_rack(params=None, node_count=4, seed=11):
    cluster = PulseCluster(node_count=node_count,
                           params=params or durable_params(), seed=seed)
    table = HashTable(cluster.memory, buckets=64,
                      partition_nodes=node_count)
    for k in range(KEYS):
        table.insert(k, (1_000 + k).to_bytes(8, "little"))
    return cluster, table


def drain(cluster, pending):
    cluster.env.run(until=AllOf(cluster.env,
                                [p._process for p in pending]))
    return [p.result for p in pending]


# -- unit: the log ----------------------------------------------------------
def test_redo_log_assigns_monotone_lsns_and_charges_headers():
    log = RedoLog(record_header_bytes=32)
    first = log.append(0x1000, b"\x01" * 8)
    second = log.append(0x2000, b"\x02" * 24)
    assert (first.lsn, second.lsn) == (1, 2)
    assert first.wire_bytes == 32 + 8
    assert log.buffer_bytes == (32 + 8) + (32 + 24)
    taken = log.take_buffer()
    assert [r.lsn for r in taken] == [1, 2]
    assert log.buffer == [] and log.buffer_bytes == 0
    assert log.append(0x3000, b"x").lsn == 3


# -- unit: replica placement ----------------------------------------------
def test_replica_targets_skip_writer_and_dead_nodes():
    live = {0, 1, 2, 3}
    # A writer's replicas go to the next peers, wrapping around the rack
    # and never to the writer itself.
    assert replica_targets(1, 4, live, 2) == (2,)
    assert replica_targets(1, 4, live, 3) == (2, 3)
    assert replica_targets(3, 4, live, 3) == (0, 1)
    assert replica_targets(1, 4, live, 9) == (2, 3, 0)
    # Dead nodes are not eligible targets.
    assert replica_targets(1, 4, {0, 1, 3}, 2) == (3,)
    # k=1 means no replication traffic at all.
    assert replica_targets(1, 4, live, 1) == ()


def test_the_heir_is_the_dead_nodes_first_replica_target():
    # Node 1 died: its rules go to its first live successor -- the first
    # replica target of everything it wrote, whatever k is -- so the
    # heir already holds the replicated bytes.
    assert replica_targets(1, 4, {0, 1, 2, 3}, 3)[0] == 2
    cluster, _table = build_rack(
        params=durable_params(replication_factor=3))
    cluster._kill_node_local(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    owners = {owner for _start, _end, owner in
              cluster.memory.placement.rules()}
    assert owners == {0, 2, 3}
    assert cluster.memory.placement.rules_of(1) == []
    assert cluster.durability.recovery._heir(1) == 2
    # Nobody left to elect.
    cluster.durability.live.clear()
    with pytest.raises(RecoveryError):
        cluster.durability.recovery._heir(1)


# -- white-box: one node's flusher -----------------------------------------
def test_group_commit_batches_records_into_one_flush():
    cluster, _table = build_rack()
    state = cluster.durability.nodes[0]
    vaddr = cluster.memory.addrspace.range_of(0)[0]
    lsns = [state.journal(vaddr + 64 * i, bytes(8)) for i in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    assert state.durable_lsn == 0
    # One group-commit window later the whole batch is durable at once.
    cluster.env.run(until=cluster.env.timeout(200_000.0))
    assert state.durable_lsn == 5
    snap = cluster.registry.snapshot()["counters"]
    assert snap["mem0.dur.flushes"] == 1
    assert snap["mem0.dur.records"] == 5


def test_wait_durable_blocks_until_commit_then_passes_through():
    cluster, _table = build_rack()
    state = cluster.durability.nodes[0]
    vaddr = cluster.memory.addrspace.range_of(0)[0]
    lsn = state.journal(vaddr, bytes(8))
    event = state.wait_durable(lsn)
    assert event is not None and not event.triggered
    cluster.env.run(until=cluster.env.timeout(200_000.0))
    assert event.triggered
    # Already-durable LSNs do not wait at all.
    assert state.wait_durable(lsn) is None


def test_peer_death_degrades_commit_instead_of_hanging_it():
    cluster, _table = build_rack()
    state = cluster.durability.nodes[0]
    vaddr = cluster.memory.addrspace.range_of(0)[0]
    lsn = state.journal(vaddr, bytes(8))
    event = state.wait_durable(lsn)

    def schedule():
        # Node 0's replica target (its successor, node 1) dies while the
        # flush is in flight: the commit must degrade, not deadlock.
        yield cluster.env.timeout(state.params.group_commit_ns + 100.0)
        cluster._kill_node_local(1)

    cluster.env.process(schedule())
    cluster.env.run(until=cluster.env.timeout(500_000.0))
    assert event.triggered
    assert state.durable_lsn >= lsn
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["mem0.dur.degraded_commits"] == 1


# -- whole rack: crashes ----------------------------------------------------
def test_kill_node_requires_durability():
    cluster = PulseCluster(node_count=2)
    with pytest.raises(DurabilityError):
        cluster._kill_node_local(0)


def test_acknowledged_writes_survive_the_acknowledging_node():
    cluster, table = build_rack()
    updated = list(range(0, KEYS, 2))
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in updated]
    results = drain(cluster, pending)
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]

    cluster._kill_node_local(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    snap = cluster.metrics_snapshot()
    assert snap["counters"]["recovery.completed"] == 1
    assert snap["gauges"]["recovery.time_to_recover_ns"] > 0

    # Every acknowledged update -- and every never-written key homed on
    # the dead node (bootstrap content) -- reads back exactly.
    for k in range(KEYS):
        expect = 7_000 + k if k % 2 == 0 else 1_000 + k
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == expect


def test_mid_traversal_failover_reinjects_in_flight_frames():
    # mode="always" arms per-hop reliability on every link, so the
    # switch's reliable layer still holds each frame it sent into the
    # dead node -- the takeover path reclaims and re-injects them.
    params = durable_params().with_overrides(
        transport=TransportParams(mode="always"))
    cluster, table = build_rack(params=params)
    pending = [cluster.submit(table.find_iterator(), k % KEYS)
               for k in range(4 * KEYS)]

    def schedule():
        yield cluster.env.timeout(6_000.0)
        cluster._kill_node_local(1)

    cluster.env.process(schedule())
    results = drain(cluster, pending)
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]
    expected = [1_000 + (k % KEYS) for k in range(4 * KEYS)]
    assert [int.from_bytes(r.value[:8], "little")
            for r in results] == expected
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["recovery.completed"] == 1
    assert snap["switch.reinjected_frames"] > 0


def test_scale_out_then_crash_recovers_onto_any_live_node():
    cluster, table = build_rack(node_count=2)
    new_node = cluster.add_node()
    assert new_node in cluster.durability.live
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in range(0, KEYS, 3)]
    results = drain(cluster, pending)
    assert all(r.ok for r in results)

    cluster._kill_node_local(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    for k in range(KEYS):
        expect = 7_000 + k if k % 3 == 0 else 1_000 + k
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == expect


def test_kill_is_idempotent_and_counts_one_crash():
    cluster, _table = build_rack()
    cluster._kill_node_local(1)
    cluster._kill_node_local(1)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    snap = cluster.metrics_snapshot()["counters"]
    assert snap["recovery.crashes"] == 1
    assert snap["recovery.completed"] == 1


def test_a_crashed_nodes_nic_is_dark_on_receive_too():
    # Power-off is decided once, at the session's receive filter: frames
    # still in flight toward the dead node (and the retransmissions the
    # senders keep trying until takeover) are discarded unseen -- not
    # counted as received and "acked" with ACKs the NIC then drops.
    params = durable_params().with_overrides(
        transport=TransportParams(mode="always"))
    cluster, table = build_rack(params=params, node_count=3)
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in range(KEYS)]
    at_kill = {}

    def rx_counters():
        snap = cluster.metrics_snapshot()["counters"]
        return {name: snap[name]
                for name in ("mem1.tp.rx_segments", "mem1.tp.acks_tx")}

    def schedule():
        yield cluster.env.timeout(4_000.0)
        cluster._kill_node_local(1)
        at_kill.update(rx_counters())

    cluster.env.process(schedule())
    results = drain(cluster, pending)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    assert at_kill["mem1.tp.rx_segments"] > 0  # the kill was mid-stream
    assert rx_counters() == at_kill
    # Every update was acknowledged, so every one must read back.
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]
    for k in range(KEYS):
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == 7_000 + k


def test_a_crashed_nodes_nic_is_dark_on_transmit_too():
    # The transmit-side twin: replies parked on the commit-wait when the
    # node dies are released into a powered-off session and vanish --
    # no response is counted, no segment is sent, and the requests
    # complete through recovery instead of hanging.
    params = durable_params().with_overrides(
        transport=TransportParams(mode="always"))
    cluster, table = build_rack(params=params, node_count=3)
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in range(KEYS)]
    at_kill = {}

    def counters(*names):
        snap = cluster.metrics_snapshot()["counters"]
        return {name: snap[name] for name in names}

    def tx_counters():
        return counters("mem1.acc.responses", "mem1.tp.tx_segments")

    def schedule():
        # Before the first group commit: every update node 1 has
        # finished so far is waiting for it.
        yield cluster.env.timeout(6_000.0)
        at_kill.update(tx_counters(),
                       **counters("mem1.dur.commit_waits"))
        cluster._kill_node_local(1)

    cluster.env.process(schedule())
    results = drain(cluster, pending)
    cluster.env.run(until=cluster.env.timeout(2_000_000.0))
    parked = at_kill.pop("mem1.dur.commit_waits")
    assert parked > 0 and at_kill["mem1.acc.responses"] == 0
    assert tx_counters() == at_kill
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]
    for k in range(KEYS):
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == 7_000 + k


def test_replication_traffic_starts_no_accelerator_process(monkeypatch):
    # ReplicateRecords and ReplicateAck are served inside the parse-end
    # callback: on a rack doing nothing but durable updates the only
    # accelerator processes are the traversal frames' own two per hop
    # (admission, lane group).
    cluster, table = build_rack(node_count=3)
    started = count_process_starts(monkeypatch)
    pending = [cluster.submit(table.update_iterator(), k, 7_000 + k)
               for k in range(KEYS)]
    results = drain(cluster, pending)
    assert all(r.ok for r in results)
    snap = cluster.metrics_snapshot()["counters"]
    hops = sum(snap[f"mem{n}.acc.requests"] for n in range(3))
    assert sum(snap[f"mem{n}.dur.replica_tx_records"]
               for n in range(3)) >= KEYS
    assert sum(snap[f"mem{n}.dur.acks_rx"] for n in range(3)) > 0
    assert sum(snap[f"mem{n}.acc.admission_nacks"] for n in range(3)) == 0
    assert sum(n for name, n in started.items()
               if name.startswith("Accelerator.")) == 2 * hops
    for k in range(KEYS):
        result = cluster.run_traversal(table.find_iterator(), k)
        assert result.ok, (k, result.fault)
        assert int.from_bytes(result.value[:8], "little") == 7_000 + k


def crash_under_a_doorbell_frame(node_id):
    """Kill ``node_id`` the moment the switch holds an unacked doorbell
    frame of two or more requests toward it (at 1 ms at the latest)."""
    def factory(cluster):
        flows = cluster.switch.session._tx
        for _ in range(100_000):
            if any(isinstance(entry.segment.payload, TraversalBatch)
                   and len(entry.segment.payload.requests) >= 2
                   for entry in getattr(flows.get(f"mem{node_id}"),
                                        "outstanding", {}).values()):
                break
            yield cluster.env.timeout(10.0)
        yield from CrashInjector(node_id, 0.0)(cluster)
    return factory


def test_failover_reinjects_a_doorbell_frame_in_flight():
    """A multi-request frame lost with its node is taken over whole.

    Doorbell bursts reach the switch as multi-request frames, and
    ``mode="always"`` keeps each one the switch forwards until its
    node acks it.  The node dies with such a frame unacked; recovery's
    takeover re-injects every request of that frame at the range's new
    owner.  Every request ends with its value, no acknowledged STORE is
    lost, and the rack's invariants hold.
    """
    params = scenario.durable_params().with_overrides(
        transport=TransportParams(mode="always"))
    cluster, table = scenario.build("durable-hashtable", nodes=3,
                                    params=params, batch_size=8)
    taken = []
    take_over = cluster.switch.session.take_over

    def recording_take_over(dead):
        payloads = take_over(dead)
        taken.extend(payloads)
        return payloads

    cluster.switch.session.take_over = recording_take_over
    results, snapshot, _end = scenario.run(
        cluster, [scenario.updates(table, range(scenario.KEYS)),
                  scenario.lookups(table)],
        schedule=(crash_under_a_doorbell_frame(1),), batch=True)

    assert any(isinstance(p, TraversalBatch) and len(p.requests) >= 2
               for p in taken), taken
    assert all(r.ok for r in results), [r.fault for r in results
                                        if not r.ok]
    assert [scenario.as_int(r) for r in results[scenario.KEYS:]] == \
        [7_000 + k for k in range(scenario.KEYS)]
    counters = snapshot["counters"]
    assert counters["recovery.completed"] == 1
    assert counters["switch.reinjected_frames"] >= 2


def test_acknowledged_updates_survive_two_crashes_in_sequence():
    """Node 1 crashes and node 2 adopts its rule; once that recovery has
    completed, node 2 crashes too.  Node 3 now serves both rules, and
    every acknowledged update reads back."""
    cluster, table = scenario.build("durable-hashtable", nodes=4,
                                    params=scenario.durable_params())
    settle_ns = 200_000.0
    heirs = []

    def crash_1_then_2(cluster):
        yield cluster.env.timeout(settle_ns)
        starts = [start for start, _end in
                  cluster.memory.placement.rules_of(1)]
        yield from CrashInjector(1, 0.0)(cluster)
        yield cluster.env.timeout(settle_ns)
        heirs.append({cluster.memory.placement.node_of(s) for s in starts})
        yield from CrashInjector(2, 0.0)(cluster)

    results, snapshot, _end = scenario.run(
        cluster, [scenario.updates(table, range(scenario.KEYS)),
                  scenario.lookups(table)],
        schedule=(crash_1_then_2,))
    stores, reads = results[:scenario.KEYS], results[scenario.KEYS:]
    assert heirs == [{2}]
    assert all(r.ok and r.latency_ns < settle_ns for r in stores)
    assert snapshot["counters"]["recovery.completed"] == 2
    assert all(r.ok for r in reads), [r.fault for r in reads if not r.ok]
    assert [scenario.as_int(r) for r in reads] == \
        [7_000 + k for k in range(scenario.KEYS)]
