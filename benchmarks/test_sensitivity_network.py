"""Sensitivity to network latency: why offloading wins more as wires
get longer.

The paper's opening argument: remote memory access latency is an order
of magnitude above local DRAM and "speed-of-light constraints make it
impossible to improve network latency beyond a point" (§1).  Offloading
pays that latency once per traversal; paging pays it once per *hop*.
This bench sweeps the per-segment wire latency and shows the gap
widening linearly for the Cache baseline while pulse and RPC stay
nearly flat -- the structural reason caches cannot be fixed by better
networks.
"""

from dataclasses import replace

from conftest import save_table, scale_requests

from repro.baselines.common import workers_to_saturate
from repro.bench.experiments import Cell, format_table, run_cells
from repro.params import DEFAULT_PARAMS

SEGMENT_NS = (200.0, 425.0, 1_000.0, 2_000.0)
SYSTEMS = ("pulse", "rpc", "cache")

#: RPC's own default pool, not the grid's per-workload one
RPC_POOL = {"workers_per_node": workers_to_saturate(
    DEFAULT_PARAMS.cpu, DEFAULT_PARAMS.memory.bandwidth_bytes_per_ns)}


def _cell(system: str, segment_ns: float) -> Cell:
    network = replace(DEFAULT_PARAMS.network, segment_ns=segment_ns)
    return Cell(system, "UPC", 1, scale_requests(16), concurrency=2,
                params=DEFAULT_PARAMS.with_overrides(network=network),
                system_options=RPC_POOL if system == "rpc" else {},
                workload_options={"num_pairs": 8_000, "chain_length": 100})


def test_sensitivity_network_latency(once):
    cells = once(run_cells, {(system, seg): _cell(system, seg)
                             for system in SYSTEMS for seg in SEGMENT_NS})
    assert all(cell.stats.faults == 0 for cell in cells.values())
    results = {key: cell.stats.avg_latency_ns
               for key, cell in cells.items()}

    rows = []
    for (system, seg), latency in sorted(results.items()):
        rows.append((system, f"{seg:.0f}", f"{latency/1e3:.1f}"))
    save_table("sensitivity_network", format_table(
        ["system", "segment_ns", "avg_us"], rows))

    def growth(system):
        return (results[(system, SEGMENT_NS[-1])]
                / results[(system, SEGMENT_NS[0])])

    # 10x longer wires: offloading systems barely notice (one round
    # trip per request)...
    assert growth("pulse") < 2.0
    assert growth("rpc") < 2.0
    # ... while the paging baseline pays per *hop*: its absolute slope
    # (added latency per unit of wire) is tens of round trips per
    # request against pulse's single one.
    def slope(system):
        return (results[(system, SEGMENT_NS[-1])]
                - results[(system, SEGMENT_NS[0])])

    assert growth("cache") > 2.0
    assert slope("cache") > 20 * slope("pulse")

    # At every latency point, the offload advantage holds and widens.
    ratios = [results[("cache", seg)] / results[("pulse", seg)]
              for seg in SEGMENT_NS]
    assert all(r > 8 for r in ratios)
    assert ratios[-1] > ratios[0]
