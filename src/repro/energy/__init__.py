"""Energy accounting (Fig 7)."""

from repro.energy.power import (
    EnergyReport,
    energy_per_request_nj,
    measure_energy,
)

__all__ = [
    "EnergyReport",
    "energy_per_request_nj",
    "measure_energy",
]
