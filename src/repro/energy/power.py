"""Energy-per-request accounting (section 7.1, Fig 7).

Methodology follows the paper: run each system at a request rate that
saturates memory bandwidth, take the average power of the serving
hardware, and divide by throughput.  The serving hardware is the
rack's own: each :class:`~repro.core.cluster.Rack` reports it with
``serving_watts()`` -- static watts (``PowerParams``) per unit it
provisions -- and the measurement-side caveats are modeling choices
of those methods:

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


def energy_per_request_nj(power_watts: float,
                          throughput_per_s: float) -> float:
    """nanojoules per request: watts / (requests/second) * 1e9."""
    if throughput_per_s <= 0:
        return float("inf")
    return power_watts / throughput_per_s * 1e9


@dataclass(frozen=True)
class EnergyReport:
    power_watts: float
    throughput_per_s: float
    energy_per_request_nj: float

    @property
    def energy_per_request_uj(self) -> float:
        return self.energy_per_request_nj / 1e3


def measure_energy(system, throughput_per_s: float) -> EnergyReport:
    """Fig 7's reading: ``system``'s serving power over its throughput."""
    watts = system.serving_watts()
    return EnergyReport(
        power_watts=watts,
        throughput_per_s=throughput_per_s,
        energy_per_request_nj=energy_per_request_nj(watts,
                                                    throughput_per_s),
    )
