#!/usr/bin/env python3
"""Split index: one-RTT point lookups with a client-side directory.

Builds a 2-node rack with ``split_index=True``, bulk-loads the client
directory from a hash table, and shows the three regimes:

1. a directory **hit** -- one direct READ at the owning memory node
   (``iterations == 1``, no switch traversal);
2. a **miss** -- the normal offloaded traversal, which learns the
   entry so the next lookup of that key is direct;
3. a **stale hint** -- after a live migration the cached owner is
   wrong: the old node NACKs the direct read, the traversal fallback
   returns the right bytes, and the entry is repaired in place.

Then a B+Tree primes the same directory from its leaves: a key the
directory lost is learned by its first traversal, and the next lookup
is one direct READ of the leaf.

Run:  python examples/split_index.py
"""

from repro import PulseCluster
from repro.structures import BPlusTree, HashTable

KEYS = 256


def show(label, result):
    print(f"  {label:<26} value={result.value[:8].hex()}  "
          f"iterations={result.iterations:<3} "
          f"latency={result.latency_ns:8.1f} ns")


def main() -> None:
    # Lazy mode keeps stale hints around so step 3 can show the NACK
    # path; the default eagerly drops them as segments migrate.
    cluster = PulseCluster(node_count=2, split_index=True,
                           split_index_invalidate=False)
    table = HashTable(cluster.memory, buckets=16, partition_nodes=2)
    for key in range(KEYS):
        table.insert(key, key.to_bytes(8, "little") * 30)
    finder = table.find_iterator()

    print(f"primed {cluster.load_index(table)} directory entries")

    print("\nbulk-loaded key: the first lookup is already direct")
    show("hit (one direct READ)", cluster.run_traversal(finder, 7))

    print("\nunknown key learned by its first traversal")
    cluster.indexes[0].invalidate(42)
    show("miss (full traversal)", cluster.run_traversal(finder, 42))
    show("hit (learned)", cluster.run_traversal(finder, 42))

    print("\nmigrate node 0's data away, then reuse a stale hint")
    victim = next(k for k in range(KEYS)
                  if cluster.indexes[0].lookup(k).node_id == 0)
    for start, end in list(cluster.memory.placement.rules_of(0)):
        cluster.env.run(until=cluster.migrate(start, end, 1))
    show("stale hint (NACK+fallback)",
         cluster.run_traversal(finder, victim))
    show("hit (repaired)", cluster.run_traversal(finder, victim))

    print("\na B+Tree's leaves prime the same directory")
    tree = BPlusTree(cluster.memory, fanout=8)
    for key in range(KEYS, 2 * KEYS):
        tree.insert(key, key * 3)
    print(f"primed {cluster.load_index(tree)} directory entries")
    cluster.indexes[0].invalidate(KEYS + 7)
    for label in ("miss (full traversal)", "hit (learned)"):
        result = cluster.run_traversal(tree.lookup_iterator(), KEYS + 7)
        print(f"  {label:<26} value={result.value}  "
              f"iterations={result.iterations:<3} "
              f"latency={result.latency_ns:8.1f} ns")

    counters = cluster.metrics_snapshot()["counters"]
    print("\ndirectory counters:")
    for name in ("index.hits", "index.misses", "index.stale_nacks",
                 "index.repairs"):
        print(f"  {name:<18} {counters.get(name, 0):.0f}")


if __name__ == "__main__":
    main()
