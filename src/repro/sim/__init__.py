"""Discrete-event simulation kernel used by every pulse component.

This is a small, self-contained process-based simulator in the style of
simpy: simulation logic is written as Python generators that yield
:class:`~repro.sim.engine.Event` objects (timeouts, resource requests,
store gets/puts) and are resumed by the :class:`~repro.sim.engine.Environment`
when those events fire.  Simulated time is a plain number; pulse uses
nanoseconds everywhere.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
