#!/usr/bin/env python3
"""A miniature of the paper's headline evaluation (Figs 4-7).

Runs the UPC workload through all five compared systems on one memory
node and prints latency, throughput, bandwidth utilization, and energy
per request -- a quick-look version of what ``pytest benchmarks/``
regenerates in full.

Run:  python examples/system_comparison.py        (~1 minute)
"""

from repro.bench.driver import run_workload
from repro.bench.experiments import format_table, make_system
from repro.energy import measure_energy
from repro.workloads import build_upc

SYSTEMS = ("pulse", "rpc", "rpc-w", "cache", "cache+rpc")
REQUESTS = 120


def main() -> None:
    rows = []
    for name in SYSTEMS:
        # Separate racks for the latency and throughput phases so the
        # byte counters measure exactly one load level each.
        lat_system = make_system(name, node_count=1)
        lat_upc = build_upc(lat_system.memory, 1, num_pairs=10_000,
                            requests=REQUESTS // 2, seed=0)
        lat = run_workload(lat_system, lat_upc.operations, concurrency=2)

        system = make_system(name, node_count=1)
        upc = build_upc(system.memory, 1, num_pairs=10_000,
                        requests=REQUESTS, seed=0)
        tput = run_workload(system, upc.operations, concurrency=48)
        energy = measure_energy(system, tput.throughput_per_s)
        mem_util = system.memory_bandwidth_utilization()
        rows.append((
            name,
            f"{lat.avg_latency_ns / 1000:.1f}",
            f"{tput.throughput_per_s / 1000:.0f}",
            f"{mem_util:.2f}",
            f"{energy.power_watts:.0f}",
            f"{energy.energy_per_request_uj:.1f}",
        ))

    print("UPC, one memory node "
          f"({REQUESTS} requests; latency at low load, the rest "
          "saturating):\n")
    print(format_table(
        ["system", "avg_lat_us", "kops/s", "mem_util", "watts",
         "uJ/req"], rows))
    print("\nExpected shape (paper section 7.1):")
    print(" * pulse ~10-64x lower latency and >>10x throughput vs cache;")
    print(" * pulse ~ RPC performance, at several-fold less energy;")
    print(" * RPC-W burns more energy per request than RPC despite")
    print("   lower-power cores (slower execution wastes static power).")


if __name__ == "__main__":
    main()
