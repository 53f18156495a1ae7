"""System-wide timing, sizing, and power parameters.

Every latency, bandwidth, and power constant used by the simulation lives
here, calibrated against the numbers the paper reports:

* Fig 9 gives the accelerator-internal constants directly: 430 ns network
  stack processing per direction, 4 ns scheduler dispatch, ~120 ns memory
  pipeline (translation + protection + 256 B load), ~7 ns logic per
  hash-table iteration (=> ~1 ns per ISA instruction at the FPGA clock).
* Section 7 fixes the environment: 100 Gbps NICs, 25 GB/s per-node memory
  bandwidth cap (Intel RDT, matching the FPGA board), 2 GB caches, Xeon
  Gold 6240 (2.6 GHz) CPU nodes, wimpy cores emulated at 1.0 GHz.
* Section 7.1 notes DPDK/eRPC stacks for RPC systems, a slower TCP-based
  DPDK stack for Cache+RPC (AIFM), and a kernel paging path for the
  Cache-based system (Fastswap) that cannot saturate the network.
* Section 7.1 (distributed) notes 5-10 us added latency when a traversal
  hops between memory nodes through the CPU node.

A model value is one field here and has no second spelling: a
constructor takes wiring (the event loop, the fabric, the registry, the
memory) and the rack's execution choices (node and client counts, seed,
placement policy, batch size and lane width, tracing, the split index,
the pulse-ACC bounce and the ablation switches), never a keyword that
overrides a field of these dataclasses.

Times are **nanoseconds**, sizes **bytes**, bandwidths **bytes/ns**
(1 GB/s == 1e9 B/s == 1.0 B/ns is *not* true: 1 GB/s = 1 byte per ns is
exactly right only for 1e9 B/s; we use decimal GB throughout, so
25 GB/s == 25 B/ns), power **watts**, energy **nanojoules**.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

US = 1_000.0  # nanoseconds per microsecond
MS = 1_000_000.0

#: bytes per nanosecond for a decimal gigabyte-per-second figure
def gbps_to_bytes_per_ns(gbits_per_s: float) -> float:
    """Convert a link rate in Gbit/s to bytes/ns."""
    return gbits_per_s * 1e9 / 8 / 1e9


def gBps_to_bytes_per_ns(gbytes_per_s: float) -> float:
    """Convert a memory rate in GB/s (decimal) to bytes/ns."""
    return gbytes_per_s * 1e9 / 1e9


@dataclass(frozen=True)
class AcceleratorParams:
    """Timing and shape of one pulse accelerator (one per memory node).

    The memory pipeline is modeled with separate *occupancy* (how long the
    pipeline/channel is held per load -- sets throughput) and *latency
    tail* (DRAM access latency overlapped across outstanding loads).  This
    reconciles two numbers the paper reports: a solo load takes ~120 ns
    through translation + protection + fetch (Fig 9), while two cores can
    still saturate 25 GB/s (Supp Fig 1b) -- impossible if each 256 B load
    exclusively held the channel for 120 ns.  ``workspaces_per_core``
    models the outstanding transactions the burst/AXI machinery sustains
    (calibrated to Supp Fig 1b); the paper's 2*eta staggered-workspace
    argument (Fig 3) governs the *logic* pipeline multiplexing.
    """

    #: network stack processing per direction (Fig 9: 430 ns)
    netstack_ns: float = 430.0
    #: the hardware network stack is pipelined at line rate: per-packet
    #: *occupancy* is a few cycles even though the parse/deparse
    #: *latency* is 430 ns
    netstack_occupancy_ns: float = 10.0
    #: scheduler parse/dispatch (Fig 9: 4 ns)
    scheduler_dispatch_ns: float = 4.0
    #: memory pipeline occupancy: TCAM translation + protection check
    translation_occupancy_ns: float = 2.0
    #: per-core memory channel rate (burst transfers; U250 DDR4 channel)
    channel_bytes_per_ns: float = 14.5
    #: DRAM access latency tail (overlapped across outstanding loads)
    dram_latency_ns: float = 90.0
    #: logic pipeline cost per ISA instruction (~1 GHz FPGA clock)
    instruction_ns: float = 1.0
    #: the logic datapath is itself pipelined: a new iteration can enter
    #: every t_c/depth while earlier ones drain (latency t_c is still
    #: charged to the request).  This realizes section 4.2.2's goal that
    #: the logic side never bottlenecks the memory pipeline, which Fig 6
    #: requires even for eta~0.8 workloads.
    logic_pipeline_depth: int = 8
    #: cores per accelerator (paper: 2, one per memory channel); the
    #: one spelling of the core count -- a rack with one core is
    #: ``SystemParams(accelerator=AcceleratorParams(cores=1))``
    cores: int = 2
    #: eta threshold: max allowed t_c / t_d ratio for offload (paper: 1)
    eta_max: float = 1.0
    #: logic pipelines per core (the paper's eta; eta_max=1 -> 1)
    logic_pipelines_per_core: int = 1
    #: concurrent iterator workspaces per core (>= 2*eta per Fig 3;
    #: default sized so the memory pipeline saturates even when the
    #: per-iteration latency chain is ~15x the pipeline occupancy)
    workspaces_per_core: int = 16
    #: maximum bytes in the aggregated per-iteration LOAD (section 4.1)
    max_load_bytes: int = 256
    #: scratch pad size (section 3.1 default: 4 KB)
    scratchpad_bytes: int = 4 * KB
    #: per-request iteration cap before forced RETURN (section 3.1)
    max_iterations: int = 4096
    #: per-core bound on requests queued for a workspace; arrivals past
    #: the bound are NACKed with ``RequestStatus.RETRY`` instead of
    #: growing an unbounded on-chip queue (the accelerator's SRAM for
    #: parked requests is finite), pushing overload back to the clients
    admission_queue_depth: int = 64
    #: entries in each core's translation cache (the TLB in front of the
    #: range TCAM): pointer traversals exhibit strong range locality --
    #: successive iterations usually stay within one allocation range --
    #: so a handful of cached entries absorbs nearly all lookups
    tlb_entries_per_core: int = 8

    def occupancy_ns(self, size_bytes: int) -> float:
        """Memory-pipeline hold time per load (sets peak throughput)."""
        return (self.translation_occupancy_ns
                + size_bytes / self.channel_bytes_per_ns)

    def memory_access_ns(self, size_bytes: int) -> float:
        """t_d: end-to-end memory pipeline time for a solo load (Fig 9)."""
        return self.occupancy_ns(size_bytes) + self.dram_latency_ns


@dataclass(frozen=True)
class CpuParams:
    """Execution model for CPU-side code (client or RPC worker)."""

    clock_ghz: float = 2.6
    #: random DRAM access latency at the memory node CPU
    dram_access_ns: float = 100.0
    #: additional per-byte cost of touching loaded data
    dram_byte_ns: float = 0.05

    def instruction_ns(self) -> float:
        return 1.0 / self.clock_ghz

    def memory_access_ns(self, size_bytes: int) -> float:
        return self.dram_access_ns + self.dram_byte_ns * size_bytes


@dataclass(frozen=True)
class NetworkParams:
    """Fabric timing: stacks, wire, and switch."""

    #: one-way wire propagation per segment (host<->switch, cables + PHY)
    segment_ns: float = 425.0
    #: switch pipeline processing per packet (Tofino: line rate)
    switch_process_ns: float = 50.0
    #: DPDK userspace stack cost per message (send or receive) at a CPU
    #: (eRPC-class userspace stacks run well under a microsecond)
    dpdk_stack_ns: float = 700.0
    #: kernel demand-paging path per 4 KB page fault (Fastswap-like);
    #: dominated by fault handling + invalidations (section 7.1)
    paging_stack_ns: float = 3_500.0
    #: TCP-flavored DPDK stack used by AIFM (section 7.1: slower than eRPC)
    tcp_stack_ns: float = 2_500.0
    #: link bandwidth (100 Gbps NICs)
    link_bytes_per_ns: float = gbps_to_bytes_per_ns(100.0)
    #: client retransmission timeout -- must exceed the longest
    #: legitimate traversal (hundreds of microseconds for many-hop
    #: distributed scans), or duplicates pile load onto the accelerators
    retransmit_timeout_ns: float = 2_000.0 * US
    #: initial client backoff after an admission-control RETRY NACK;
    #: doubles per consecutive NACK (with jitter) up to the cap below
    retry_backoff_ns: float = 2.0 * US
    #: ceiling on the exponential RETRY backoff
    retry_backoff_cap_ns: float = 64.0 * US
    #: doorbell flush timer: a partial batch is sent after this long
    #: even if ``batch_size`` was never reached
    doorbell_flush_ns: float = 2.0 * US


@dataclass(frozen=True)
class TransportParams:
    """Reliable-transport stack knobs (see ``repro.transport``).

    The stack arms per-hop ack/retransmit *per destination link*: in the
    default ``"auto"`` mode a send is reliable exactly when the link it
    crosses has a lossy :class:`~repro.sim.network.LinkProfile`
    (``Fabric.link_profile``).  ``"always"`` arms every
    send; ``"never"`` degrades to cut-through delivery, leaving the
    client's end-to-end retransmission as the only recovery mechanism
    (the pre-transport behaviour, kept for A/B comparison).
    """

    #: "auto" | "always" | "never" -- when per-hop reliability arms
    mode: str = "auto"
    #: versioned transport header prepended to armed DATA segments
    #: (version, flags, seq, ack, 4 B padding)
    header_bytes: int = 24
    #: wire size of a standalone ACK segment (Ethernet frame + header)
    ack_bytes: int = 88
    #: initial per-hop retransmission timer; much shorter than the
    #: client's end-to-end timeout -- a hop spans one link, not a
    #: whole multi-node traversal
    hop_timeout_ns: float = 25.0 * US
    #: ceiling for the per-hop capped exponential backoff
    hop_backoff_cap_ns: float = 200.0 * US
    #: give up on a segment after this many retransmissions (the
    #: client's end-to-end retry then remains as the last resort)
    max_hop_retries: int = 12
    #: per-source window of remembered sequence numbers for duplicate
    #: suppression at the receiver
    dedup_window: int = 4096


@dataclass(frozen=True)
class MemoryParams:
    """Memory node capacity/bandwidth model."""

    #: per-node memory bandwidth cap (25 GB/s, section 7)
    bandwidth_bytes_per_ns: float = gBps_to_bytes_per_ns(25.0)
    #: per-node DRAM capacity in the simulated rack
    node_capacity_bytes: int = 64 * MB
    #: CPU-node cache size for caching baselines (paper: 2 GB against
    #: ~128 GB of data, a ~1.6% ratio; we preserve the cache:data ratio
    #: instead of the absolute sizes -- the scaled workloads carry
    #: 5-15 MB, so the scaled cache is 128 KB -- see DESIGN.md)
    cache_bytes: int = 128 * KB
    #: page size for the paging baseline
    page_bytes: int = 4 * KB


@dataclass(frozen=True)
class PlacementParams:
    """Elastic placement subsystem knobs (see ``repro.placement``).

    The hotness tracker, migration engine, and rebalancer are sized in
    *segments*: fixed power-of-two virtual-address chunks that are the
    unit of heat accounting and of a single migration.
    """

    #: heat-accounting / migration granularity (power of two)
    segment_bytes: int = 64 * KB
    #: EWMA half-life for segment heat decay
    hot_halflife_ns: float = 200.0 * US
    #: the tracker samples 1-in-N accelerator loads (hardware samples
    #: rather than counting every access; each sample is weighted by N)
    sample_period: int = 8
    #: background copy rate during migration phase 1 (deliberately below
    #: the 25 B/ns node cap so live traversals keep headroom)
    migration_bandwidth_bytes_per_ns: float = 10.0
    #: chunk size for the phase-1 copy loop
    copy_chunk_bytes: int = 64 * KB
    #: fill-fraction gap between fullest and emptiest node that
    #: triggers capacity rebalancing
    fill_imbalance_threshold: float = 0.10
    #: max/mean node-heat ratio that triggers hotness rebalancing
    hot_skew_threshold: float = 3.0
    #: migrations launched per rebalance round (bounds churn)
    migrations_per_round: int = 2
    #: when fill and heat are quiet, also migrate segments to minimize
    #: *cut edges* in the sampled segment-affinity graph (successor
    #: edges spanning two memory nodes: one switch hop each per
    #: traversal that crosses them)
    cut_edge_objective: bool = True
    #: minimum decayed affinity gain (external-edge weight recovered
    #: minus internal-edge weight cut) before a cut move is worth the
    #: migration churn; also damps move/counter-move oscillation
    cut_min_gain: float = 1.0


@dataclass(frozen=True)
class DurabilityParams:
    """Durability subsystem knobs (see ``repro.durability``).

    Disabled by default: with ``enabled=False`` no redo log exists, no
    replication traffic is generated, and acknowledgement timing is
    byte-identical to a build without the subsystem.  When enabled,
    every acknowledged STORE is appended to the owning node's redo log,
    group-committed, and replicated to ``replication_factor - 1`` peer
    nodes before the client sees the response.
    """

    #: master switch; off keeps the volatile pre-durability behaviour
    enabled: bool = False
    #: copies of every log record / recovered extent, home included
    #: (2 => one replica peer per home node)
    replication_factor: int = 2
    #: group-commit window: the flusher waits this long after the first
    #: buffered record before forcing a flush, batching later arrivals
    group_commit_ns: float = 8.0 * US
    #: force a flush early once this many payload bytes are buffered
    group_commit_bytes: int = 16 * KB
    #: sequential append bandwidth of the log device (below the 25 B/ns
    #: node cap: the log shares the memory channels with live loads)
    log_bandwidth_bytes_per_ns: float = 12.5
    #: on-log framing per record (LSN, vaddr, length, checksum)
    record_header_bytes: int = 32
    #: time between a node dying and recovery starting (failure
    #: detector: missed heartbeats at the switch)
    failure_detect_ns: float = 50.0 * US
    #: replay bandwidth while re-homing a dead node's ranges (same
    #: budget as migration phase-1 copies)
    replay_bandwidth_bytes_per_ns: float = 10.0
    #: fixed per-range cost during replay (cursor setup, TCAM insert)
    replay_range_ns: float = 500.0


@dataclass(frozen=True)
class PowerParams:
    """Average active power per platform, in watts.

    Calibrated to reproduce Fig 7's structure: the FPGA accelerator draws
    far less than a Xeon package share, and wimpy cores draw less power but
    run so much longer that their energy/request can exceed the Xeon's
    (observed for UPC; section 7.1).
    """

    #: whole FPGA board (XRT reports all rails, an upper bound) per
    #: accelerator; U250 boards idle ~20 W, pulse uses 29% LUTs
    fpga_watts: float = 30.0
    #: per active RPC worker: core + uncore + DRAM share of a Xeon 6240
    cpu_worker_watts: float = 16.5
    #: per active wimpy worker at 1.0 GHz: dynamic power scales with the
    #: clock but the static/uncore/DRAM floor does not, so a downclocked
    #: worker still burns most of a full core's share -- the mechanism
    #: behind Fig 7's RPC-W-worse-than-RPC result
    wimpy_worker_watts: float = 15.0
    #: client CPU share while driving requests (charged to all systems)
    client_watts: float = 0.0


@dataclass(frozen=True)
class SystemParams:
    """Bundle of all model parameters; immutable, copy-on-modify."""

    accelerator: AcceleratorParams = field(default_factory=AcceleratorParams)
    cpu: CpuParams = field(default_factory=CpuParams)
    wimpy: CpuParams = field(default_factory=lambda: CpuParams(
        clock_ghz=1.0, dram_access_ns=110.0))
    network: NetworkParams = field(default_factory=NetworkParams)
    transport: TransportParams = field(default_factory=TransportParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    placement: PlacementParams = field(default_factory=PlacementParams)
    durability: DurabilityParams = field(default_factory=DurabilityParams)
    power: PowerParams = field(default_factory=PowerParams)

    def with_overrides(self, **kwargs) -> "SystemParams":
        """Return a copy with top-level sections replaced."""
        return replace(self, **kwargs)


DEFAULT_PARAMS = SystemParams()
