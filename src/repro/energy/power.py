"""Power models and energy-per-request accounting (section 7.1, Fig 7).

Methodology follows the paper: run each system at a request rate that
saturates memory bandwidth, measure average power of the serving hardware,
and divide by throughput.  The measurement-side caveats are reproduced as
modeling choices:

* pulse's power is the *whole FPGA board* (XRT reports every rail,
  including static power of unused logic) -- an upper bound;
* RPC power covers the active workers' share of CPU package + DRAM but
  not the NIC -- a lower bound;
* wimpy cores draw less instantaneous power, but their static/uncore
  share does not scale with the clock, so at 1.0 GHz each worker still
  burns most of a full core's floor -- the mechanism behind the paper's
  counterintuitive result that RPC-W can cost *more energy per request*
  than RPC (also observed by Clio [49]).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import PowerParams, SystemParams


def system_power_watts(system_name: str, params: SystemParams,
                       nodes: int = 1, workers_per_node: int = 1) -> float:
    """Average serving power for a system at saturation."""
    power: PowerParams = params.power
    name = system_name.lower()
    if name in ("pulse", "adpdm", "pulse-acc"):
        return power.fpga_watts * nodes + power.client_watts
    if name in ("rpc", "cache+rpc"):
        return (power.cpu_worker_watts * workers_per_node * nodes
                + power.client_watts)
    if name == "rpc-w":
        return (power.wimpy_worker_watts * workers_per_node * nodes
                + power.client_watts)
    if name in ("cache", "cache-based"):
        # All the work happens at the CPU node's paging path; memory
        # nodes are passive DRAM.  Charge the fault-handling cores.
        return (power.cpu_worker_watts * workers_per_node
                + power.client_watts)
    raise ValueError(f"unknown system {system_name!r}")


def energy_per_request_nj(power_watts: float,
                          throughput_per_s: float) -> float:
    """nanojoules per request: watts / (requests/second) * 1e9."""
    if throughput_per_s <= 0:
        return float("inf")
    return power_watts / throughput_per_s * 1e9


@dataclass(frozen=True)
class EnergyReport:
    system: str
    power_watts: float
    throughput_per_s: float
    energy_per_request_nj: float

    @property
    def energy_per_request_uj(self) -> float:
        return self.energy_per_request_nj / 1e3


def measure_energy(system_name: str, params: SystemParams,
                   throughput_per_s: float, nodes: int = 1,
                   workers_per_node: int = 1) -> EnergyReport:
    watts = system_power_watts(system_name, params, nodes,
                               workers_per_node)
    return EnergyReport(
        system=system_name,
        power_watts=watts,
        throughput_per_s=throughput_per_s,
        energy_per_request_nj=energy_per_request_nj(watts,
                                                    throughput_per_s),
    )
