"""Sharded multiprocess execution: one worker process per memory node.

The single-process cluster steps every memory node's lane groups on one
core.  This package splits the rack across OS processes following the
spawner/worker idiom: the *coordinator* process keeps the client(s),
the switch, placement, and the authoritative discrete-event clock; each *worker* process serves one or more memory
nodes (accelerator + memory pipeline + allocator + frame pools).
Transport frames cross process boundaries over ``multiprocessing``
pipes; determinism is preserved by conservative lookahead
synchronization (see :mod:`repro.shard.runtime`), so a sharded run is
event-for-event identical to the in-process cluster.
"""

from repro.shard.runtime import (ShardedRuntime, ShardError, lookahead_ns,
                                 merge_snapshots)
from repro.shard.transport import WireFrame

__all__ = [
    "ShardedRuntime",
    "ShardError",
    "WireFrame",
    "lookahead_ns",
    "merge_snapshots",
]
