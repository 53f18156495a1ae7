"""The option surface: every constructor parameter and params field, pinned.

A model value is one ``SystemParams`` field; a constructor takes wiring
(the event loop, fabric, registry, memory, ...) and the rack's execution
choices, never a second spelling of a field.  ``SIGNATURES`` pins the
parameter names of every constructor a caller configures a rack through,
``FIELDS`` the fields of every ``*Params`` dataclass, and ``REMOVED``
the spellings that were deleted -- each must now be a ``TypeError``
(a keyword no caller outside ``tests/`` set is one too).
``SYSTEM_NAMES`` pins the keys of ``repro.bench.experiments.SYSTEMS``,
the one place a system name means a rack; the name-dispatched power
model and its aliases stay deleted.

Adding an option means editing these tables in the same change that
needs the option, so the change shows it was meant.
"""

import dataclasses
import inspect

import pytest

import repro.energy
import repro.params
from repro.baselines import CacheRpcSystem, CacheSystem, RpcSystem
from repro.bench.__main__ import main as bench_main
from repro.bench.driver import run_open_loop, run_workload
from repro.bench.experiments import SYSTEMS, Cell, make_system, run_cells
from repro.bench.report import main as report_main
from repro.bench.report import write_snapshot
from repro.core.accelerator import Accelerator
from repro.core.client import DoorbellBatcher, PulseClient
from repro.core.cluster import PulseCluster, Rack
from repro.core.frontend import compile_kernel
from repro.core.kernel import KernelBuilder
from repro.core.offload import OffloadEngine
from repro.core.switch import PulseSwitch
from repro.index.directory import SplitIndexDirectory
from repro.isa import IteratorMachine, Program, assemble
from repro.isa.instructions import sp_ind
from repro.mem.addrspace import AddressSpace
from repro.mem.allocator import DisaggregatedAllocator
from repro.mem.node import GlobalMemory, MemoryNode
from repro.obs.metrics import EventLog, MetricsRegistry
from repro.params import PlacementParams, PowerParams
from repro.placement.hotness import HeatMap, HotnessTracker
from repro.placement.migration import MigrationEngine
from repro.sim.engine import Environment, Timeout
from repro.sim.resources import Store
from repro.structures import SkipList
from repro.transport import TransportSession
from repro.workloads import (ZipfianKeyGenerator, build_tc, build_tsv,
                             generate_upmu_trace)

SIGNATURES = {
    Rack: ("node_count", "params", "seed"),
    PulseCluster: (
        "node_count", "params", "bounce_to_client",
        "shared_interconnect", "split_loads", "scheduler_policy",
        "batch_lanes", "tcam_capacity", "client_count", "batch_size",
        "trace", "seed", "split_index", "split_index_invalidate"),
    CacheSystem: ("node_count", "params", "seed", "kwargs"),
    RpcSystem: ("node_count", "params", "wimpy", "workers_per_node", "seed",
                "kwargs"),
    CacheRpcSystem: ("params", "seed", "kwargs"),
    Cell: ("system", "workload", "nodes", "requests", "seed", "concurrency",
           "offered_load_per_s", "params", "system_options",
           "workload_options"),
    Accelerator: (
        "env", "node", "fabric", "params", "placement_map", "hotness",
        "registry", "shared_interconnect", "split_loads", "scheduler_policy",
        "batch_lanes"),
    PulseClient: ("env", "fabric", "params", "engine", "memory", "name",
                  "batch_size", "registry", "index"),
    DoorbellBatcher: ("client", "batch_size"),
    PulseSwitch: ("env", "fabric", "rangemap", "params", "bounce_to_client",
                  "registry"),
    TransportSession: ("env", "fabric", "name", "params", "registry"),
    GlobalMemory: ("node_count", "node_capacity", "tcam_capacity"),
    DisaggregatedAllocator: ("addrspace", "tables", "placement"),
    HotnessTracker: ("segment_bytes", "halflife_ns", "clock", "sample_period",
                     "stream"),
    HeatMap: ("params", "env", "placement_map", "registry", "seed"),
    Environment: (),
}

#: the compared systems, each a rack class plus options
SYSTEM_NAMES = ("pulse", "pulse-acc", "cache", "rpc", "rpc-w", "cache+rpc")

FIELDS = {
    "AcceleratorParams": (
        "netstack_ns", "netstack_occupancy_ns", "scheduler_dispatch_ns",
        "translation_occupancy_ns", "channel_bytes_per_ns",
        "dram_latency_ns", "instruction_ns", "logic_pipeline_depth",
        "cores", "eta_max", "logic_pipelines_per_core",
        "workspaces_per_core", "max_load_bytes", "scratchpad_bytes",
        "max_iterations", "admission_queue_depth", "tlb_entries_per_core"),
    "CpuParams": ("clock_ghz", "dram_access_ns", "dram_byte_ns"),
    "NetworkParams": (
        "segment_ns", "switch_process_ns", "dpdk_stack_ns",
        "paging_stack_ns", "tcp_stack_ns", "link_bytes_per_ns",
        "retransmit_timeout_ns", "retry_backoff_ns", "retry_backoff_cap_ns",
        "doorbell_flush_ns"),
    "TransportParams": (
        "mode", "header_bytes", "ack_bytes", "hop_timeout_ns",
        "hop_backoff_cap_ns", "max_hop_retries", "dedup_window"),
    "MemoryParams": ("bandwidth_bytes_per_ns", "node_capacity_bytes",
                     "cache_bytes", "page_bytes"),
    "PlacementParams": (
        "segment_bytes", "hot_halflife_ns", "sample_period",
        "migration_bandwidth_bytes_per_ns", "copy_chunk_bytes",
        "fill_imbalance_threshold",
        "hot_skew_threshold", "migrations_per_round", "cut_edge_objective",
        "cut_min_gain"),
    "DurabilityParams": (
        "enabled", "replication_factor", "group_commit_ns",
        "group_commit_bytes", "log_bandwidth_bytes_per_ns",
        "record_header_bytes", "failure_detect_ns",
        "replay_bandwidth_bytes_per_ns", "replay_range_ns"),
    "PowerParams": ("fpga_watts", "cpu_worker_watts", "wimpy_worker_watts"),
    "SystemParams": ("accelerator", "cpu", "wimpy", "network", "transport",
                     "memory", "placement", "durability", "power"),
}


def _tracker():
    return HotnessTracker(4096, 1.0, clock=lambda: 0.0)


#: what replaced the allocator's PARTITIONED policy
_PARTITIONED = ("alloc(preferred_node=), a structure's partition_nodes= or "
                "key_placement=")

#: removed spelling -> (a call taking it, the keyword, what replaces it)
REMOVED = {
    "PulseCluster(cores_per_accelerator=)": (
        PulseCluster, "cores_per_accelerator", "AcceleratorParams.cores"),
    "Accelerator(cores=)": (Accelerator, "cores", "AcceleratorParams.cores"),
    "PulseCluster(flush_ns=)": (
        PulseCluster, "flush_ns", "NetworkParams.doorbell_flush_ns"),
    "PulseClient(flush_ns=)": (
        PulseClient, "flush_ns", "NetworkParams.doorbell_flush_ns"),
    "DoorbellBatcher(flush_ns=)": (
        DoorbellBatcher, "flush_ns", "NetworkParams.doorbell_flush_ns"),
    "Rack(node_capacity=)": (
        Rack, "node_capacity", "MemoryParams.node_capacity_bytes"),
    "PulseCluster(node_capacity=)": (
        PulseCluster, "node_capacity", "MemoryParams.node_capacity_bytes"),
    "CacheSystem(node_capacity=)": (
        CacheSystem, "node_capacity", "MemoryParams.node_capacity_bytes"),
    "RpcSystem(node_capacity=)": (
        RpcSystem, "node_capacity", "MemoryParams.node_capacity_bytes"),
    "CacheSystem(cache_bytes=)": (
        CacheSystem, "cache_bytes", "MemoryParams.cache_bytes"),
    "CacheRpcSystem(cache_bytes=)": (
        CacheRpcSystem, "cache_bytes", "MemoryParams.cache_bytes"),
    "PulseCluster(client_table_capacity=)": (
        PulseCluster, "client_table_capacity",
        "repro.core.switch.CLIENT_TABLE_CAPACITY"),
    "TransportSession(default_segments=)": (
        TransportSession, "default_segments", "send(segments=)"),
    "PulseClient(stack_cores=)": (
        PulseClient, "stack_cores", "repro.sim.stages.DPDK_CORES"),
    "PulseClient(switch_name=)": (
        PulseClient, "switch_name", "repro.core.messages.SWITCH"),
    "Accelerator(switch_name=)": (
        Accelerator, "switch_name", "repro.core.messages.SWITCH"),
    "PulseSwitch(name=)": (PulseSwitch, "name", "repro.core.messages.SWITCH"),
    "CacheSystem(fault_handlers=)": (
        CacheSystem, "fault_handlers", "CacheSystem.workers_per_node"),
    "CacheRpcSystem(object_bytes=)": (
        CacheRpcSystem, "object_bytes", "repro.baselines.aifm.OBJECT_BYTES"),
    "DisaggregatedAllocator(alignment=)": (
        DisaggregatedAllocator, "alignment",
        "DisaggregatedAllocator.ALIGNMENT"),
    "DisaggregatedAllocator(arena_extent_bytes=)": (
        DisaggregatedAllocator, "arena_extent_bytes",
        "DisaggregatedAllocator.ARENA_EXTENT_BYTES"),
    "allocator.arena(extent_bytes=)": (
        lambda **kw: GlobalMemory(1, 1 << 20).allocator.arena(0, **kw),
        "extent_bytes", "DisaggregatedAllocator.ARENA_EXTENT_BYTES"),
    "Environment(initial_time=)": (
        Environment, "initial_time", "time 0"),
    "AddressSpace.grow(extra=)": (
        lambda **kw: AddressSpace(1, 4096).grow(**kw), "extra",
        "one node per call"),
    "HotnessTracker(seed=)": (
        lambda **kw: HotnessTracker(4096, 1.0, clock=lambda: 0.0, **kw),
        "seed", "HotnessTracker(stream=), the whole RNG stream label"),
    "HotnessTracker.hot_segments(top_n=)": (
        lambda **kw: _tracker().hot_segments(**kw), "top_n",
        "slicing the full list"),
    "HotnessTracker.hot_edges(top_n=)": (
        lambda **kw: _tracker().hot_edges(**kw), "top_n",
        "slicing the full list"),
    # keywords no caller outside tests/ set (tests/test_surface.py)
    "build_tc(record_bytes=)": (
        build_tc, "record_bytes", "repro.workloads.apps.TC_RECORD_BYTES"),
    "build_tsv(record_bytes=)": (
        build_tsv, "record_bytes", "repro.workloads.apps.TSV_RECORD_BYTES"),
    "generate_upmu_trace(start_us=)": (
        generate_upmu_trace, "start_us", "a trace starting at 0"),
    "ZipfianKeyGenerator(theta=)": (
        ZipfianKeyGenerator, "theta", "repro.workloads.ycsb.THETA"),
    "KernelBuilder.build(max_load_bytes=)": (
        KernelBuilder.build, "max_load_bytes",
        "repro.isa.program.MAX_LOAD_BYTES"),
    "Program(max_load_bytes=)": (
        Program, "max_load_bytes", "repro.isa.program.MAX_LOAD_BYTES"),
    "OffloadEngine.make_request(issued_at_ns=)": (
        OffloadEngine.make_request, "issued_at_ns", "no issue time on wire"),
    "OffloadEngine.continuation(issued_at_ns=)": (
        OffloadEngine.continuation, "issued_at_ns", "no issue time on wire"),
    "run_workload(warmup=)": (
        run_workload, "warmup", "an earlier run_workload call"),
    "run_open_loop(warmup=)": (
        run_open_loop, "warmup", "an earlier run"),
    "run_open_loop(keep_results=)": (
        run_open_loop, "keep_results", "the aggregating path"),
    "run_cells(params=)": (run_cells, "params", "Cell(params=)"),
    "Cell(system_kwargs=)": (Cell, "system_kwargs", "Cell(system_options=)"),
    "repro.bench.__main__.main(argv=)": (
        bench_main, "argv", "sys.argv"),
    "repro.bench.report.main(argv=)": (report_main, "argv", "sys.argv"),
    "write_snapshot(results_dir=)": (
        write_snapshot, "results_dir", "repro.bench.report.REPO_ROOT"),
    "compile_kernel(name=)": (compile_kernel, "name", "fn.__name__"),
    "compile_kernel(source=)": (
        compile_kernel, "source", "inspect.getsource"),
    "KernelBuilder.field(signed=)": (
        KernelBuilder.field, "signed", "a signed operand"),
    "KernelBuilder.sp_at(width=)": (
        KernelBuilder.sp_at, "width", "an 8-byte word"),
    "KernelBuilder.sp_at(signed=)": (
        KernelBuilder.sp_at, "signed", "a signed word"),
    "sp_ind(width=)": (sp_ind, "width", "an 8-byte word"),
    "sp_ind(signed=)": (sp_ind, "signed", "a signed word"),
    "PulseSwitch(client_table_capacity=)": (
        PulseSwitch, "client_table_capacity",
        "repro.core.switch.CLIENT_TABLE_CAPACITY"),
    "SplitIndexDirectory(capacity=)": (
        SplitIndexDirectory, "capacity", "SplitIndexDirectory.capacity"),
    "assemble(name=)": (assemble, "name", "the .name directive"),
    "assemble(scratch_bytes=)": (
        assemble, "scratch_bytes", "the .scratch directive"),
    "IteratorMachine.run(write_fn=)": (
        IteratorMachine.run, "write_fn", "IteratorMachine.step"),
    "AddressSpace(base=)": (
        AddressSpace, "base", "repro.mem.addrspace.DEFAULT_BASE"),
    "MemoryNode.read_virt(access=)": (
        MemoryNode.read_virt, "access", "PERM_READ"),
    "EventLog(capacity=)": (
        EventLog, "capacity", "repro.obs.metrics.EVENT_LOG_CAPACITY"),
    "MetricsRegistry.names(prefix=)": (
        MetricsRegistry.names, "prefix", "filtering the sorted names"),
    "MigrationEngine.migrate(include_unmapped=)": (
        MigrationEngine.migrate, "include_unmapped",
        "tests/helpers.py's drain, which switches the unmapped rest"),
    "PlacementParams(rebalance_interval_ns=)": (
        PlacementParams, "rebalance_interval_ns", "cluster.rebalance_once()"),
    "PowerParams(client_watts=)": (
        PowerParams, "client_watts", "nothing: it was always 0.0"),
    "Environment.timeout(value=)": (
        Environment.timeout, "value", "Event.succeed(value)"),
    "Timeout(value=)": (Timeout, "value", "Event.succeed(value)"),
    "Environment.schedule(delay=)": (
        Environment.schedule, "delay", "env.timeout(delay) or a hold"),
    "Environment.schedule_at(priority=)": (
        Environment.schedule_at, "priority", "NORMAL"),
    "Environment.set_window_hook(window_end=)": (
        Environment.set_window_hook, "window_end", "advance_window"),
    "Store(capacity=)": (Store, "capacity", "an unbounded store"),
    "SkipList(levels=)": (SkipList, "levels", "SkipList.levels"),
    "TransportSession(seed=)": (
        TransportSession, "seed", "the fabric's seed"),
    "Rack(policy=)": (Rack, "policy", _PARTITIONED),
    "PulseCluster(policy=)": (PulseCluster, "policy", _PARTITIONED),
    "GlobalMemory(policy=)": (GlobalMemory, "policy", _PARTITIONED),
    "DisaggregatedAllocator(policy=)": (
        DisaggregatedAllocator, "policy", _PARTITIONED),
}


@pytest.mark.parametrize("target", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_parameters_are_pinned(target):
    names = tuple(inspect.signature(target).parameters)
    assert names == SIGNATURES[target]


def test_every_params_dataclass_is_pinned():
    found = {name: tuple(f.name for f in dataclasses.fields(cls))
             for name, cls in vars(repro.params).items()
             if name.endswith("Params") and dataclasses.is_dataclass(cls)}
    assert found == FIELDS


@pytest.mark.parametrize("spelling", REMOVED)
def test_a_removed_spelling_is_a_type_error(spelling):
    target, keyword, replacement = REMOVED[spelling]
    try:
        target(**{keyword: 1})
    except TypeError as exc:
        assert f"unexpected keyword argument '{keyword}'" in str(exc)
    else:
        pytest.fail(f"{spelling} is still accepted; it is {replacement}")


def test_the_system_table_is_pinned():
    assert tuple(SYSTEMS) == SYSTEM_NAMES


def test_energy_is_read_from_the_rack():
    parameters = inspect.signature(repro.energy.measure_energy).parameters
    assert tuple(parameters) == ("system", "throughput_per_s")


def test_the_name_dispatched_power_model_is_gone():
    with pytest.raises(ImportError):
        from repro.energy import system_power_watts  # noqa: F401
    with pytest.raises(ImportError):
        from repro.energy.power import system_power_watts  # noqa: F401


@pytest.mark.parametrize("alias", ["adpdm", "cache-based"])
def test_a_removed_system_alias_is_a_value_error(alias):
    with pytest.raises(ValueError, match="unknown system"):
        make_system(alias)
