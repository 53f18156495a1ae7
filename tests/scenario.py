"""The one scenario runner under the rack-level differential suites.

A differential test is a point on four axes -- *(structure, request
waves, execution mode, perturbation schedule)* -- and :func:`run` is the
one place that turns such a point into *(results, merged snapshot, end
ns)*.  The axes degenerate instead of forking: the quiet baseline is the
empty schedule, in-process is ``workers=0``, width-1 execution is a rack
built with ``batch_lanes=0``, scalar submission is ``batch=False``.

A schedule entry is a process factory (``factory(cluster) ->
generator``), exactly what ``cluster.shard(replicated=...)`` takes, so
:class:`~repro.durability.CrashInjector` is one as-is.  Entries run
alongside the first wave; a wave has drained when its requests have all
resolved *and* the schedule has finished, so later waves observe the
settled rack.
"""

from repro.core import PulseCluster
from repro.core.iterator import FaultInfo
from repro.params import DurabilityParams, PlacementParams, SystemParams
from repro.sim.network import LinkProfile
from repro.structures import BPlusTree, HashTable, LinkedList, SkipList

KEYS = 48


# -- structure ----------------------------------------------------------------
def storm_params():
    # Slow copies maximize the chance a frame races a fence -- the
    # regime the protocol must survive.
    return SystemParams().with_overrides(
        placement=PlacementParams(migration_bandwidth_bytes_per_ns=2.0))


def durable_params():
    return SystemParams().with_overrides(
        durability=DurabilityParams(enabled=True,
                                    group_commit_ns=2_000.0,
                                    failure_detect_ns=20_000.0))


def stored(key):
    """The bytes every hash-table rack holds under ``key`` at build."""
    return (1_000 + key).to_bytes(8, "little")


def _chain(memory):
    chain = LinkedList(memory)
    chain.extend([(k, k * 3 + 1) for k in range(KEYS)])
    return chain


def _hashtable(memory, **options):
    table = HashTable(memory, **options)
    for k in range(KEYS):
        table.insert(k, stored(k))
    return table


def _bplustree(memory, **options):
    tree = BPlusTree(memory, fanout=8, **options)
    for k in range(KEYS):
        tree.insert(k, k * 7 + 3)
    return tree


def _skiplist(memory):
    skip = SkipList(memory, levels=4, seed=7)
    for k in range(KEYS):
        skip.insert(k, k * 5 + 2)
    return skip


STRUCTURES = {
    "chain": _chain,
    "linkedlist": _chain,
    "hashtable": lambda memory: _hashtable(memory, buckets=32),
    "durable-hashtable": lambda memory: _hashtable(
        memory, buckets=64, partition_nodes=memory.node_count),
    "bplustree": _bplustree,
    # Leaves alternate between nodes 0 and 1: the arena allocator would
    # otherwise pack this small tree into one extent on one node, and a
    # storm would stale *every* split-index hint at once -- the
    # epoch-refresh repair path (node still owns the address under a
    # newer placement version) needs survivors on the untouched node.
    "btree": lambda memory: _bplustree(memory, placement=lambda o: o % 2),
    "skiplist": _skiplist,
}


def build(structure, nodes=2, params=None, **rack):
    """A seeded rack holding ``KEYS`` keys of ``structure``:
    ``(cluster, built)``."""
    rack.setdefault("seed", 7)
    cluster = PulseCluster(node_count=nodes, params=params, **rack)
    return cluster, STRUCTURES[structure](cluster.memory)


def corrupt_chain(cluster, chain, depth, pointer):
    """Overwrite the next pointer of the chain node ``depth`` links in."""
    next_offset = chain.layout.offset("next")
    addr = chain.head
    for _ in range(depth):
        addr = int.from_bytes(
            cluster.memory.read(addr + next_offset, 8), "little")
    cluster.memory.write(addr + next_offset, pointer.to_bytes(8, "little"))


# -- request waves ------------------------------------------------------------
def lookups(built, keys=range(KEYS)):
    iterator = (built.lookup_iterator() if isinstance(built, BPlusTree)
                else built.find_iterator())
    return [(iterator, (k,)) for k in keys]


def updates(table, keys, base=7_000):
    """Absolute stores (``base + key``), so replay order cannot matter."""
    iterator = table.update_iterator()
    return [(iterator, (k, base + k)) for k in keys]


# -- perturbation schedule ----------------------------------------------------
def migration_storm(legs=((0, 1), (1, 0)), rounds=3):
    """Ping-pong each leg's first rule ``src -> dst`` while requests are
    in flight; deterministic, so it replays in every sharded replica."""
    def factory(cluster):
        for _round in range(rounds):
            for src, dst in legs:
                owned = cluster.memory.placement.rules_of(src)
                if not owned:
                    continue
                start, end = owned[0]
                yield cluster.env.process(
                    cluster.placement.engine.migrate(start, end, dst))
                yield cluster.env.timeout(5_000.0)
    return factory


def arena_storm(cluster):
    """Ping-pong every chain-arena extent whole between nodes 0 and 1.

    The extent list is sorted by virtual start and identical in every
    replica, so the storm replays deterministically when sharded.
    """
    extents = cluster.memory.allocator.arena_extents()
    for _round in range(3):
        for start, end in extents:
            home = cluster.memory.placement.node_of(start)
            if home is None:
                continue
            yield cluster.env.process(
                cluster.placement.engine.migrate(start, end, 1 - home))
            yield cluster.env.timeout(5_000.0)


def lossy_links(drop, jitter_ns=300.0):
    """Every link drops and jitters from the first frame on."""
    def factory(cluster):
        cluster.fabric.configure_all_links(
            LinkProfile(drop_probability=drop, jitter_ns=jitter_ns))
        yield cluster.env.timeout(0.0)
    return factory


def _start(cluster, schedule, workers):
    """Start every schedule entry -- in this process, or identically in
    every replica of a sharded rack; returns this process's copies."""
    if workers:
        return cluster.shard(workers=workers,
                             replicated=schedule).replicated_procs
    return [cluster.env.process(factory(cluster)) for factory in schedule]


# -- the runner ---------------------------------------------------------------
def run(cluster, waves, schedule=(), workers=0, batch=False):
    """Submit each wave when the previous one has drained; returns
    ``(results in submission order, merged snapshot, end ns)``."""
    env = cluster.env
    results = []
    try:
        running = _start(cluster, schedule, workers)
        for wave in waves:
            pending = (cluster.submit_many(wave) if batch else
                       [cluster.submit(it, *args) for it, args in wave])
            env.run(until=env.all_of(
                [p._process for p in pending] + running))
            results += [p.result for p in pending]
    finally:
        cluster.shutdown()  # no-op in process; reaps workers when sharded
    outcome = results, cluster.metrics_snapshot(), env.now
    check_invariants(cluster, outcome)
    return outcome


def check_invariants(cluster, outcome):
    """What must hold after any drain, whatever the schedule did."""
    results, snapshot, _end = outcome
    # Every submitted request resolved with a value or a FaultInfo.
    for result in results:
        assert result.ok or isinstance(result.fault, FaultInfo), result
    for client in cluster.clients:
        assert snapshot["gauges"][f"{client.name}.client.in_flight"] == 0
    # Every mapped range has exactly one owner: the rules tile the
    # address space without gap or overlap ...
    memory = cluster.memory
    placement = memory.placement
    rules = placement.rules()
    assert all(a[1] <= b[0] for a, b in zip(rules, rules[1:])), rules
    spans = [memory.addrspace.range_of(n.node_id) for n in memory.nodes]
    assert sum(e - s for s, e, _owner in rules) == \
        sum(e - s for s, e in spans)
    # ... every TCAM entry sits on the node the map names for it ...
    for node in memory.nodes:
        for entry in node.table.entries:
            owners = {placement.node_of(entry.virt_start),
                      placement.node_of(entry.virt_end - 1)}
            assert owners == {node.node_id}, (node.name, entry, owners)
    # ... and the allocator's books follow the same owner.
    owned = dict.fromkeys(range(memory.node_count), 0)
    for vaddr, size in memory.allocator.live_allocations.items():
        owner = placement.node_of(vaddr)
        assert memory.nodes[owner].table.covering(vaddr, size), \
            f"{vaddr:#x} unmapped on its owner mem{owner}"
        owned[owner] += size
    for node_id, live in owned.items():
        assert memory.allocator.allocated_bytes(node_id) == live, node_id


# -- reading and comparing outcomes --------------------------------------------
def total(snapshot, suffix):
    """Sum of every counter named ``*suffix`` (one per node, usually)."""
    return sum(v for k, v in snapshot["counters"].items()
               if k.endswith(suffix))


def as_int(result):
    return int.from_bytes(result.value[:8], "little")


def snapshot_delta(expected, actual):
    """Names whose values differ between two metric snapshots."""
    delta = {}
    for section in ("counters", "gauges", "histograms"):
        for name in set(expected[section]) | set(actual[section]):
            if expected[section].get(name) != actual[section].get(name):
                delta[name] = (expected[section].get(name),
                               actual[section].get(name))
    return delta


def assert_values_identical(baseline, perturbed):
    """Value transparency: no faults, the quiet run's bytes in order."""
    faults = [r.fault for r in perturbed[0] if not r.ok]
    assert not faults, faults
    assert [r.value for r in perturbed[0]] == \
        [r.value for r in baseline[0]]


def assert_identical(baseline, other):
    """Byte identity: values, faults, every completion time, the end
    instant and the whole merged snapshot."""
    base_results, base_snap, base_now = baseline
    results, snap, now = other
    assert [r.value for r in results] == [r.value for r in base_results]
    assert [r.latency_ns for r in results] == \
        [r.latency_ns for r in base_results]
    assert [getattr(r.fault, "reason", None) for r in results] == \
        [getattr(r.fault, "reason", None) for r in base_results]
    assert now == base_now
    delta = snapshot_delta(base_snap, snap)
    assert not delta, delta
