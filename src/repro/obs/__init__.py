"""Observability: metrics registry, event log, and snapshots.

See :mod:`repro.obs.metrics` for the registry, the metric kinds and the
per-request event log.  The snapshot schema is documented in
``docs/architecture.md`` (Observability section).
"""

from repro.obs.metrics import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    TraceEvent,
)

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TraceEvent",
]
