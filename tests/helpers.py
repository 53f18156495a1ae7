"""Helpers shared by the test modules."""

from collections import Counter

from repro.core import PulseCluster
from repro.params import NetworkParams, SystemParams, TransportParams
from repro.sim.engine import Process
from repro.sim.network import LinkProfile


def counter_value(component, name):
    """One counter of ``component.registry``; unknown names raise."""
    return component.registry.snapshot()["counters"][name]


def lossy_cluster(drop, timeout_ns=40_000.0, **cluster_kwargs):
    """A rack losing packets the transport does not see.

    Every link drops with probability ``drop`` while per-hop
    reliability never arms (``mode="never"``), so the client's
    end-to-end retry (after ``timeout_ns``) is the only recovery.
    """
    params = SystemParams(
        network=NetworkParams(retransmit_timeout_ns=timeout_ns),
        transport=TransportParams(mode="never"))
    cluster = PulseCluster(params=params, **cluster_kwargs)
    cluster.fabric.configure_all_links(LinkProfile(drop_probability=drop))
    return cluster


def reference_hold(env, resource, duration, then=None):
    """A timed stage as it was spelled before ``Resource.hold``.

    The ``_hold`` generator the accelerator, the client, the fabric and
    the baselines each carried (request, wait for the grant, wait out the
    duration, release), followed by the stage's latency tail as one more
    timeout.  Kept only as the oracle ``tests/test_sim_hold.py`` runs
    ``Resource.hold`` against.
    """
    grant = resource.request()
    yield grant
    try:
        yield env.timeout(duration)
    finally:
        resource.release(grant)
    if then is not None:
        yield env.timeout(then)


def count_process_starts(monkeypatch):
    """Count every ``Process`` started from here on, by the generator's
    ``__qualname__`` (``"Accelerator._admit"``); returns the live
    :class:`collections.Counter`."""
    started = Counter()
    init = Process.__init__

    def counting_init(self, env, generator):
        started[generator.__qualname__] += 1
        init(self, env, generator)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return started


class ReferenceDedup:
    """A receive flow's duplicate filter as it was before the floor
    absorbed the seen seqs contiguous with it: ``floor`` moves only when
    ``seen`` overflows the window.  Kept only as the oracle
    ``tests/test_transport.py`` runs ``TransportSession`` against."""

    def __init__(self, window):
        self.window = window
        self.floor = 0
        self.seen = set()

    def accept(self, seq):
        """Whether ``seq`` is delivered (False: dropped as a duplicate)."""
        if seq <= self.floor or seq in self.seen:
            return False
        self.seen.add(seq)
        while len(self.seen) > self.window:
            self.floor += 1
            self.seen.discard(self.floor)
        return True
