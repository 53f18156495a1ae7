"""Scaffolding shared by the baseline systems.

Each baseline is a :class:`~repro.core.cluster.Rack` -- the same rack
assembly and measurement contract as pulse -- and builds its CPU node
and memory-node servers from the pieces here.
"""

from __future__ import annotations

import math

from repro.params import CpuParams
from repro.transport import TransportSession


def make_session(rack, name: str) -> TransportSession:
    """One reliable-transport stack instance for a named endpoint.

    Baselines talk host-to-host (two wire segments through the implicit
    switch), and share the same per-hop ack/retransmit stack as pulse --
    the transport is system-agnostic, so the goodput-vs-loss comparison
    isolates the *architectural* differences rather than who has a
    retry loop.
    """
    return TransportSession(rack.env, rack.fabric, name,
                            params=rack.params.transport,
                            registry=rack.registry, default_segments=2)


def workers_to_saturate(cpu: CpuParams, bandwidth_bytes_per_ns: float,
                        window_bytes: int = 256,
                        instructions_per_iteration: int = 20) -> int:
    """Minimum memory-node workers that saturate the bandwidth cap.

    Section 7: "we employ the minimum number of memory-node workers that
    can saturate the memory bandwidth" -- important for the energy
    comparison, where idle workers would burn power for nothing.  One
    worker streams ``window_bytes`` per iteration and each iteration
    costs a DRAM access plus its compute.
    """
    iteration_ns = (cpu.memory_access_ns(window_bytes)
                    + instructions_per_iteration * cpu.instruction_ns())
    per_worker = window_bytes / iteration_ns
    return max(1, math.ceil(bandwidth_bytes_per_ns / per_worker))
