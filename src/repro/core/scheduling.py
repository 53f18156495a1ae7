"""Workspace scheduling policies for the accelerator.

The paper's scheduler hands incoming requests to idle cores FIFO, but
explicitly leaves room for richer policies: "letting the scheduler handle
these signals permits other scheduling policies (e.g., ones with
preemptions) to be used in the future" (section 4.2.3), and the
supplementary material calls out multi-tenant fairness as the concrete
need -- workloads with different compute intensities sharing one
accelerator (Supp B).

Two policies are provided:

* :class:`FifoWorkspacePool` -- the paper's baseline: one queue, arrival
  order.
* :class:`FairWorkspacePool` -- round-robin across *tenants*: when a
  workspace frees up, the scheduler serves the next tenant that has a
  request waiting.  A tenant issuing long scans can no longer starve a
  tenant issuing short lookups, at zero cost when only one tenant is
  active.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List

from repro.sim.engine import Environment, Event


class WorkspacePool:
    """Base: a pool of (core_id) workspace tokens with async acquire."""

    def __init__(self, env: Environment, tokens: List[int]):
        self.env = env
        self._free: Deque[int] = deque(tokens)
        #: queue depth observed at each enqueue (None until a registry
        #: is attached); feeds the admission/backpressure metrics
        self._depth_hist = None

    def attach_metrics(self, registry, prefix: str) -> None:
        """Register queue-depth observability under ``<prefix>.*``.

        ``<prefix>.queue_depth`` is a histogram sampled at every enqueue
        (arrival-weighted depth distribution -- a gauge alone would
        always read 0 in an end-of-run snapshot).
        """
        self._depth_hist = registry.histogram(f"{prefix}.queue_depth")

    def acquire(self, tenant: int = 0) -> Event:
        """Event that fires with a core id once a workspace is granted."""
        event = self.env.event()
        if self._free:
            self._grant(event)
        else:
            self._enqueue(tenant, event)
            if self._depth_hist is not None:
                self._depth_hist.record(self.queue_length())
        return event

    def release(self, core_id: int) -> None:
        self._free.append(core_id)
        waiter = self._dequeue()
        if waiter is not None:
            self._grant(waiter)

    def _grant(self, event: Event) -> None:
        event.succeed(self._free.popleft())

    # -- policy hooks ---------------------------------------------------------
    def _enqueue(self, tenant: int, event: Event) -> None:
        raise NotImplementedError

    def _dequeue(self):
        raise NotImplementedError

    def queue_length(self) -> int:
        raise NotImplementedError


class FifoWorkspacePool(WorkspacePool):
    """Arrival-order service regardless of tenant (the paper's default)."""

    def __init__(self, env: Environment, tokens: List[int]):
        super().__init__(env, tokens)
        self._queue: Deque[Event] = deque()

    def _enqueue(self, tenant: int, event: Event) -> None:
        self._queue.append(event)

    def _dequeue(self):
        return self._queue.popleft() if self._queue else None

    def queue_length(self) -> int:
        return len(self._queue)


class FairWorkspacePool(WorkspacePool):
    """Round-robin across tenants with backlogged requests."""

    def __init__(self, env: Environment, tokens: List[int]):
        super().__init__(env, tokens)
        self._queues: "OrderedDict[int, Deque[Event]]" = OrderedDict()
        self.served_per_tenant: Dict[int, int] = {}

    def _enqueue(self, tenant: int, event: Event) -> None:
        if tenant not in self._queues:
            self._queues[tenant] = deque()
        self._queues[tenant].append(event)

    def _dequeue(self):
        while self._queues:
            tenant, queue = next(iter(self._queues.items()))
            # Rotate the tenant to the back (round-robin).
            self._queues.move_to_end(tenant)
            if queue:
                self.served_per_tenant[tenant] = \
                    self.served_per_tenant.get(tenant, 0) + 1
                event = queue.popleft()
                if not queue:
                    del self._queues[tenant]
                return event
            del self._queues[tenant]
        return None

    def queue_length(self) -> int:
        return sum(len(q) for q in self._queues.values())
