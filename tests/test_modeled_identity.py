"""Simulator-only changes leave every simulated statistic identical.

Five small racks (three pulse, the RPC and Cache baselines) are driven with fixed seeds and the sha256 of ``repr`` of
the per-request completion times (simulated ns, floats, in stream order)
is compared with a digest pinned from the commit *before* the code it
guards was touched (the parent of the ``Resource.hold`` PR; for the
durable rack, the parent of the single-serve-path PR; for the
baselines, the parent of the one-receive-path PR).  A change that
is meant only to speed the simulator up -- fewer heap entries, fewer
generator resumes, a different container -- must keep every digest; a
change that reorders two events at one timestamp, anywhere on the
request path, moves them (checked when they were pinned: scheduling a
queued hold's end at arrival instead of at its start moves the TC
digest, skipping a zero-length follow-on entry moves the mix digest).
A PR that changes the *model* on purpose re-pins the digests and says
so.

The drivers are local (Poisson open loop, then closed-loop callers) so
that edits to ``repro.bench.driver`` cannot move what is pinned.
"""

import hashlib
import random

import pytest

from repro.baselines import CacheSystem, RpcSystem
from repro.core import PulseCluster
from repro.params import DEFAULT_PARAMS, DurabilityParams, TransportParams
from repro.structures import BPlusTree, HashTable, LinkedList
from repro.workloads import build_tc

RACK_SEED = 7

#: pinned at 0d8758c (the parent of the Resource.hold PR)
TC_DIGEST = (
    "482af2a66829eabefc9dd700c96bb04d2c52ce5e478466974e8efeac2096abee")
MIX_DIGEST = (
    "a87ec72ae5c913494bb41f2d8afa89d7e5f91bff8f1cbd60440beddc6831ded8")
#: pinned at ece4534 (the parent of the single-serve-path PR, which moved
#: the commit-wait from the serve process into the reply -- a callback
#: parked on the ``wait_durable`` event, no longer a process of its own)
KV_DIGEST = (
    "c6afb4520d640fb3ee8c4ee23a8536339fc2c51dd6c4d039c6d6038971bb0c0b")
#: pinned at 8658dbe (the parent of the one-receive-path PR, which
#: replaced the baselines' four inbox-polling loops with handlers)
RPC_DIGEST = (
    "06e7108e6fbd15b6c8511ee476bf73ae9b85a75a477e23854c24a08172646298")
CACHE_DIGEST = (
    "372fda74f8e05f88931da6db6ed554191bc6830a0a244b794f448a1c22781d2b")


def _open_loop(rack, operations, rate_per_s, burst, rng):
    """Completion time per request of a Poisson open-loop drive."""
    env = rack.env
    done_ns = [None] * len(operations)
    state = {"outstanding": 0, "generated": False}
    finished = env.event()

    def collect(index, pending):
        yield from pending.wait()
        done_ns[index] = env.now
        state["outstanding"] -= 1
        if state["generated"] and state["outstanding"] == 0:
            finished.succeed()

    def generate():
        for begin in range(0, len(operations), burst):
            chunk = operations[begin:begin + burst]
            yield env.timeout(
                rng.gammavariate(len(chunk), 1.0) * 1e9 / rate_per_s)
            for offset, pending in enumerate(rack.submit_many(chunk)):
                state["outstanding"] += 1
                env.process(collect(begin + offset, pending))
        state["generated"] = True

    env.process(generate())
    env.run(until=finished)
    return done_ns


def _closed_loop(rack, operations, clients):
    """Completion time per request with ``clients`` back-to-back callers."""
    env = rack.env
    done_ns = [None] * len(operations)
    cursor = {"next": 0}

    def client():
        while cursor["next"] < len(operations):
            index = cursor["next"]
            cursor["next"] = index + 1
            if index == clients:
                # mid-run, like every measured drive: must not perturb
                rack.begin_measurement()
            iterator, args = operations[index]
            yield from rack.traverse(iterator, *args)
            done_ns[index] = env.now

    env.run(until=env.all_of([env.process(client())
                              for _ in range(clients)]))
    return done_ns


def _digest(times) -> str:
    assert all(t is not None for t in times)
    return hashlib.sha256(repr(times).encode()).hexdigest()


def tc_completion_times():
    """4-node TC scans: 200 open loop at 500 kops, then 200 by 64 callers.

    Every scan crosses nodes several times, so the switch, the fabric's
    egress queues, the transport sessions and one-lane groups are all
    on the pinned path, with closed-loop callers producing exact
    timestamp ties.
    """
    rack = PulseCluster(node_count=4, seed=RACK_SEED)
    tc = build_tc(rack.memory, 4, num_pairs=20000, scan_limit=400,
                  requests=400, seed=1)
    ops = tc.operations
    times = _open_loop(rack, ops[:200], 500e3, 1, random.Random("1:tc"))
    times += _closed_loop(rack, ops[200:], 64)
    return times


def mix_completion_times():
    """1-node chain finds + B+Tree lookups at 32 lanes: 20 doorbell
    bursts of 64 at 3 Mops, then 1024 requests by 64 callers on
    timer-flushed doorbells.  Lane groups of every width retire lanes
    one by one, so the logic stage's follow-on delay is often exactly
    0.0 -- dropping that zero-length heap entry moves this digest."""
    rack = PulseCluster(node_count=1, batch_size=64, batch_lanes=32,
                        seed=RACK_SEED)
    chain = LinkedList(rack.memory)
    for key in range(128):
        chain.append(key, key * 3)
    tree = BPlusTree(rack.memory, fanout=8)
    for key in range(1024):
        tree.insert(key, key * 5)
    finder, lookup = chain.find_iterator(), tree.lookup_iterator()
    rng = random.Random("3:mix")
    ops = []
    for _ in range(36):
        is_chain = [True] * 24 + [False] * 40
        rng.shuffle(is_chain)
        ops += [(finder, (rng.randrange(120, 128),)) if chain_find
                else (lookup, (rng.randrange(1024),))
                for chain_find in is_chain]
    times = _open_loop(rack, ops[:1280], 3e6, 64, random.Random("3:g"))
    times += _closed_loop(rack, ops[1280:], 64)
    return times


def kv_durable_completion_times():
    """3-node durable rack, 50/50 HashFind / HashUpdate with replicated
    redo logs and always-on per-hop ACKs: 320 open loop at 3 Mops, then
    320 by 64 callers.  Every update's reply is parked on its group
    commit after the workspace token is released, so the order of
    commit-wait, token release and reply transmission is pinned."""
    params = DEFAULT_PARAMS.with_overrides(
        durability=DurabilityParams(enabled=True),
        transport=TransportParams(mode="always"))
    rack = PulseCluster(node_count=3, params=params, seed=RACK_SEED)
    table = HashTable(rack.memory, buckets=50, value_bytes=8,
                      partition_nodes=3)
    for key in range(2000):
        table.insert(key, key.to_bytes(8, "little"))
    finder, updater = table.find_iterator(), table.update_iterator()
    rng = random.Random("4:kv")
    ops = [(updater, (rng.randrange(2000), rng.getrandbits(64)))
           if rng.random() < 0.5 else (finder, (rng.randrange(2000),))
           for _ in range(640)]
    times = _open_loop(rack, ops[:320], 3e6, 1, random.Random("4:g"))
    times += _closed_loop(rack, ops[320:], 64)
    return times


def _baseline_completion_times(system_cls, tag):
    """2-node baseline rack, B+Tree lookups: 200 open loop at 200 kops,
    then 200 by 64 callers.  Lookups cross nodes, so the server's
    handler, the client's response path and (RPC) the client-driven
    inter-node continuation are all on the pinned path."""
    rack = system_cls(node_count=2, seed=RACK_SEED)
    tree = BPlusTree(rack.memory, fanout=8)
    for key in range(1024):
        tree.insert(key, key * 5)
    lookup = tree.lookup_iterator()
    rng = random.Random(f"5:{tag}")
    ops = [(lookup, (rng.randrange(1024),)) for _ in range(400)]
    times = _open_loop(rack, ops[:200], 200e3, 1,
                       random.Random(f"5:{tag}:g"))
    times += _closed_loop(rack, ops[200:], 64)
    return times


@pytest.fixture(autouse=True)
def default_tiers(monkeypatch):
    """The digests pin the default lane width, in process: CI legs set
    ``PULSE_BATCH`` (a different model) or ``PULSE_WORKERS``."""
    for knob in ("PULSE_BATCH", "PULSE_WORKERS"):
        monkeypatch.delenv(knob, raising=False)


def _assert_pinned(monkeypatch, completion_times, digest):
    """``PULSE_INTERP`` is read at run time and must move no time, so
    every digest is checked under both kernel tiers -- set, not
    cleared: compiled frames, then the interpreter."""
    for interp in ("", "1"):
        monkeypatch.setenv("PULSE_INTERP", interp)
        assert _digest(completion_times()) == digest, (
            f"PULSE_INTERP={interp!r}")


def test_tc_rack_completion_times_are_pinned(monkeypatch):
    _assert_pinned(monkeypatch, tc_completion_times, TC_DIGEST)


def test_mix_batch_completion_times_are_pinned(monkeypatch):
    _assert_pinned(monkeypatch, mix_completion_times, MIX_DIGEST)


def test_kv_durable_completion_times_are_pinned(monkeypatch):
    _assert_pinned(monkeypatch, kv_durable_completion_times, KV_DIGEST)


def test_rpc_completion_times_are_pinned(monkeypatch):
    _assert_pinned(
        monkeypatch,
        lambda: _baseline_completion_times(RpcSystem, "rpc"), RPC_DIGEST)


def test_cache_completion_times_are_pinned(monkeypatch):
    _assert_pinned(
        monkeypatch,
        lambda: _baseline_completion_times(CacheSystem, "cache"),
        CACHE_DIGEST)
