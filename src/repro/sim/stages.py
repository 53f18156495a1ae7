"""The stage tables: every timed stage of a rack, declared once.

Each timed stage is a :class:`Row` of its rack's table (:func:`pulse_stages`,
:func:`rpc_stages`, :func:`cache_stages`) or the :func:`egress` row of
every fabric endpoint: a name, the capacity of the :class:`Stage` built
from it, and ``visit(stage, *inputs)``, the visit's one ``hold`` as a
function of the rack's parameters and the visit's inputs; its event
fires with the visit's Fig 9 span.  A row without a visit is a chained
``follower`` or an open-ended ``request()``/``release()`` section.
Nothing else in ``src/`` builds a ``Resource`` or calls ``hold``.
"""

from __future__ import annotations

from functools import lru_cache
from types import MethodType
from typing import Callable, Dict, NamedTuple, Optional

from repro.params import CpuParams, NetworkParams, SystemParams
from repro.sim.resources import Resource

#: DPDK stack cores at a CPU node (one per message sent or received)
DPDK_CORES = 8


class Row(NamedTuple):
    """One timed stage of a rack (see the module docstring)."""

    name: str
    capacity: int
    visit: Optional[Callable] = None
    span: bool = False


class Stage(Resource):
    """A row's servers and its ``visit``, bound (one call, then the hold);
    a ``span`` row's histogram is ``<prefix>.span.<name>``."""

    def __init__(self, env, row: Row, follower: Optional["Stage"] = None,
                 registry=None, prefix: str = ""):
        super().__init__(env, row.capacity)
        if row.visit is not None:
            self.visit = MethodType(row.visit, self)
        self.follower = follower
        self.span = (registry.histogram(f"{prefix}.span.{row.name}")
                     if row.span else None)


def egress(network: NetworkParams) -> Row:
    """An endpoint's NIC: one message at a time at the link rate."""
    return Row("egress", 1, lambda stage, size_bytes: stage.hold(
        size_bytes / network.link_bytes_per_ns))


def pulse_stages(params: SystemParams,
                 shared_interconnect: bool = True) -> Dict[str, Row]:
    """The CPU node's DPDK stack, then Fig 3's accelerator in pipeline
    order; bypassing the interconnect (Supp Fig 1b) drops its row."""
    acc, net = params.accelerator, params.network
    bandwidth = params.memory.bandwidth_bytes_per_ns
    # One lane's occupancy per load size, memoized: a visit makes no call.
    lane_occupancy = lru_cache(maxsize=None)(acc.occupancy_ns)

    def dpdk_stack(stage: Stage, read_bytes: Optional[int] = None):
        # A remote read (the client fallback's) waits out its round trip:
        # wire, switch, netstack both ways, memory pipeline, reply bytes.
        round_trip = None if read_bytes is None else (
            4 * net.segment_ns + 2 * net.switch_process_ns
            + 2 * acc.netstack_ns + acc.memory_access_ns(read_bytes)
            + read_bytes / net.link_bytes_per_ns)
        return stage.hold(net.dpdk_stack_ns, round_trip)

    def memory(stage: Stage, width: int, load_bytes: int):
        # One gathered LOAD: lanes' translation and burst, the interconnect
        # (the follower, unless bypassed), then the DRAM tail, paid once.
        occupancy = width * lane_occupancy(load_bytes)
        dram_ns = acc.dram_latency_ns
        if stage.follower is None:
            return stage.hold(occupancy, dram_ns, value=occupancy + dram_ns)
        interconnect_ns = width * load_bytes / bandwidth
        return stage.hold(occupancy,
                          chain=(stage.follower, interconnect_ns, dram_ns),
                          value=occupancy + interconnect_ns + dram_ns)

    def logic(stage: Stage, work: int, slowest: int):
        # Occupied for work / depth; the group waits out its slowest lane.
        logic_ns = work * acc.instruction_ns
        occupancy = logic_ns / acc.logic_pipeline_depth
        return stage.hold(
            occupancy, max(0.0, slowest * acc.instruction_ns - occupancy),
            value=logic_ns)

    return {row.name: row for row in (
        Row("dpdk_stack", DPDK_CORES, dpdk_stack),
        Row("netstack", 1, lambda stage: stage.hold(
            acc.netstack_occupancy_ns,
            acc.netstack_ns - acc.netstack_occupancy_ns,
            value=acc.netstack_ns), span=True),
        Row("scheduler", 1, lambda stage: stage.hold(
            acc.scheduler_dispatch_ns, value=acc.scheduler_dispatch_ns),
            span=True),
        Row("memory", 1, memory, span=True),
        Row("interconnect", 1),
        Row("logic", acc.logic_pipelines_per_core, logic, span=True),
    ) if shared_interconnect or row.name != "interconnect"}


def rpc_stages(params: SystemParams, cpu: CpuParams,
               workers: int) -> Dict[str, Row]:
    """The client's DPDK stack (pulse's row); per memory node a
    run-to-completion worker pool (its stack scales with it) and §7's
    RDT bandwidth gate."""
    bandwidth = params.memory.bandwidth_bytes_per_ns

    def stack(stage: Stage):
        return stage.hold(params.network.dpdk_stack_ns)

    return {row.name: row for row in (
        pulse_stages(params)["dpdk_stack"],
        Row("stack", workers, stack),
        Row("workers", workers),
        Row("bandwidth_gate", 1, lambda stage, window_bytes: stage.hold(
            window_bytes / bandwidth, cpu.memory_access_ns(window_bytes))))}


def cache_stages(params: SystemParams, workers: int) -> Dict[str, Row]:
    """The CPU node's fault handlers and cores; per memory node a DRAM
    bandwidth gate in front of page reads."""
    cpu, bandwidth = params.cpu, params.memory.bandwidth_bytes_per_ns
    return {row.name: row for row in (
        Row("fault_unit", workers),
        Row("cpu", 8, lambda stage, executed: stage.hold(
            executed * cpu.instruction_ns())),
        Row("bandwidth_gate", 1, lambda stage, page_bytes: stage.hold(
            page_bytes / bandwidth, cpu.dram_access_ns)))}
