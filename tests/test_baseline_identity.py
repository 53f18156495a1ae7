"""The CPU-node walks leave every baseline result identical.

The Cache and Cache+RPC baselines, the RPC worker and pulse's client
fallback all step a kernel at a CPU; this file pins what each returns
per request -- ``(repr(latency_ns), value, iterations, fault kind,
fault reason)`` in stream order, hashed with sha256 -- so a change to
how those hosts step a frame can prove it moved no modeled number and
no result.  The digests were pinned at 5843b0a, before the walks were
folded into one.  The figure benches only compare systems, so a moved
baseline would otherwise show up as a slightly different table at
best.

Each cell is a bench harness :class:`~repro.bench.experiments.Cell`
(40 requests, concurrency 4), and the five run through the harness's
one runner, ``run_cells``.  The pulse rack runs with ``eta_max=0.01``,
which the offload engine rejects every kernel at, so each request takes
the client fallback.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.bench import experiments
from repro.bench.experiments import Cell, run_cells
from repro.params import DEFAULT_PARAMS

#: pinned at 5843b0a
DIGESTS = {
    ("cache", "UPC", 1):
        "6eb2a156bce93fa57f2b80ac0ea05aef4c8bd7372336ed3f3352ab194509b22e",
    ("cache+rpc", "UPC", 1):
        "c6052b58db6ce144209a265d172791ff1e4d39a85e99eaf9616135cc7692095f",
    ("rpc", "TC", 2):
        "d32b257a3506465bfa1ae034bf368f95e5f6e3e49485f9b1c17f5ef96349f363",
    ("rpc-w", "UPC", 1):
        "18f70d1ad7d3ff44acf0f110e102829c9a26a2e5c6f7a4d916c357344e4ed8a6",
    ("pulse", "UPC", 1):
        "fbff1d443ec765c5070521b39b6e965ea119e0c05a4900ad6d7007671e578f6f",
}

#: every kernel fails the offload check: ``t_c <= eta_max * t_d``
FALLBACK_PARAMS = DEFAULT_PARAMS.with_overrides(
    accelerator=replace(DEFAULT_PARAMS.accelerator, eta_max=0.01))


CELLS = {key: Cell(*key, requests=40, params=FALLBACK_PARAMS
                   if key[0] == "pulse" else DEFAULT_PARAMS)
         for key in DIGESTS}


def _digest(results) -> str:
    rows = [(repr(r.latency_ns), r.value, r.iterations,
             r.fault.kind if r.fault else None,
             r.fault.reason if r.fault else None)
            for r in results]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def results():
    """The five cells, run once on a memo of their own: the process-wide
    one would keep their results alive past this module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_RESULTS", {})
        yield run_cells(CELLS)


@pytest.mark.parametrize("system,workload,nodes", sorted(DIGESTS))
def test_baseline_results_are_pinned(results, system, workload, nodes):
    cell = results[(system, workload, nodes)]
    assert cell.stats.completed == 40
    assert _digest(cell.stats.results) == DIGESTS[(system, workload,
                                                   nodes)]
