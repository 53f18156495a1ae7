"""Replica placement and the replica byte store.

A record's replicas are the first ``k - 1`` live nodes cyclically after
the node that wrote it.  The writer is always the record's owner in the
live placement map, so a replica set is a function of ownership and
membership alone: the owner's first live successor holds everything the
owner wrote, and it is the node recovery elects when the owner dies.
The durability service keeps that true across every change to either
input by re-imaging the affected owner's mapped bytes into its new
targets' stores at the instant of the change.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple


def replica_targets(writer: int, node_count: int, live: Set[int],
                    replication_factor: int) -> Tuple[int, ...]:
    """The ``k - 1`` live successors a record flushed by ``writer``
    goes to, first successor first."""
    targets: List[int] = []
    for step in range(1, node_count):
        if len(targets) >= replication_factor - 1:
            break
        candidate = (writer + step) % node_count
        if candidate in live:
            targets.append(candidate)
    return tuple(targets)


class ReplicaStore:
    """Latest byte image per (vaddr, length), ordered by arrival.

    One store exists per node (everything replicated *onto* it) plus
    one cluster-wide bootstrap store capturing functional builds.
    ``overlapping`` returns records in apply order (arrival sequence),
    which recovery replays onto the re-homed range -- later images of
    the same address win, exactly the redo-log semantics.
    """

    def __init__(self):
        self._records: Dict[Tuple[int, int], Tuple[int, bytes]] = {}
        self._next_seq = 0

    def apply(self, vaddr: int, data: bytes) -> None:
        self._records[(vaddr, len(data))] = (self._next_seq, bytes(data))
        self._next_seq += 1

    def overlapping(self, virt_start: int, virt_end: int
                    ) -> List[Tuple[int, int, bytes]]:
        """``(seq, vaddr, data)`` for records touching the range."""
        out = []
        for (vaddr, size), (seq, data) in self._records.items():
            if vaddr < virt_end and virt_start < vaddr + size:
                out.append((seq, vaddr, data))
        out.sort()
        return out
