"""Pipe wire protocol between the coordinator and its shard workers.

Everything crossing a process boundary is one of a handful of tagged
tuples, pickled by ``multiprocessing.Connection``.  Cross-shard fabric
traffic travels as :class:`WireFrame` records: the original
:class:`~repro.sim.network.Message` (reliable-transport ``Segment``
payloads included, so the :class:`~repro.core.messages.TransportHeader`
wire format is reused verbatim) plus the absolute arrival time the
sending shard computed at tx-end.  Requests inside one frame share
their :class:`~repro.isa.program.Program` object, which pickle
memoizes, so a 64-request doorbell batch ships its kernel once.

Coordinator -> worker::

    (ADVANCE, window_end, frames, reset, activation_ns)
    (SNAPSHOT, at_ns)
    (STOP, at_ns)

Worker -> coordinator::

    (DONE, exported_frames, next_event_time)
    (SNAPSHOT, registry_snapshot)
    (STOPPED, registry_snapshot)
    (ERROR, traceback_text)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.network import Message

#: coordinator -> worker: inject ``frames``, begin the measurement
#: window at ``activation_ns`` if ``reset``, then run every event
#: strictly before ``window_end`` and reply with a DONE record
ADVANCE = "advance"
#: worker -> coordinator: the window finished; carries exported frames
#: and the worker's next pending event time (``inf`` when idle)
DONE = "done"
#: coordinator -> worker: reply with a registry snapshot (callback
#: gauges evaluated at the coordinator clock ``at_ns``), keep running
SNAPSHOT = "snapshot"
#: coordinator -> worker: reply with a final snapshot and exit
STOP = "stop"
STOPPED = "stopped"
#: worker -> coordinator: the worker raised; payload is the traceback
ERROR = "error"


@dataclass
class WireFrame:
    """One cross-shard fabric message, resolved at tx-end.

    ``seq`` is the exporting process's running export counter and
    ``src_process`` its shard id (-1 for the coordinator); together with
    ``arrival_ns`` they give the total order ``(time, src, seq)`` the
    coordinator merges concurrent exports in, so injection order -- and
    therefore the receiver's event sequence -- is deterministic.
    """

    message: Message
    arrival_ns: float
    seq: int
    src_process: int

    def sort_key(self):
        return (self.arrival_ns, self.src_process, self.seq)
