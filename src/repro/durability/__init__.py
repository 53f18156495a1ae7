"""Durability subsystem: replicated redo logging and crash recovery.

Disabled by default (``DurabilityParams.enabled``).  When enabled, every
acknowledged STORE is journaled into its node's append-only redo log,
group-committed at a bounded log bandwidth, and replicated to
``replication_factor - 1`` peer nodes before the client sees the
response.  A :class:`~repro.durability.recovery.CrashInjector` then
tears a node down mid-traversal
and the :class:`~repro.durability.recovery.RecoveryManager` re-homes its
ranges onto elected replica owners, replays the logged content, and
resumes in-flight frames -- acknowledged writes are never lost.
"""

from repro.durability.recovery import (CrashInjector, RecoveryError,
                                       RecoveryManager)
from repro.durability.redolog import LogRecord, RedoLog
from repro.durability.replication import (ReplicaStore, elect_owner,
                                          replica_targets)
from repro.durability.service import (DurabilityError, DurabilityService,
                                      NodeDurability)

__all__ = [
    "CrashInjector",
    "DurabilityError",
    "DurabilityService",
    "LogRecord",
    "NodeDurability",
    "RecoveryError",
    "RecoveryManager",
    "RedoLog",
    "ReplicaStore",
    "elect_owner",
    "replica_targets",
]
