"""Shared helpers for the figure-regeneration benchmarks.

Every file in this directory regenerates one table or figure from the
paper: it runs the experiment grid through the simulation, prints the
rows the figure plots, saves them under ``benchmarks/results/``, and
asserts the paper's qualitative claims (who wins, by roughly what
factor).  Absolute numbers differ from the paper's testbed -- the
substrate here is a simulator -- but the shapes must hold (DESIGN.md).

Run with::

    pytest benchmarks/ --benchmark-only

Set ``REPRO_BENCH_SCALE`` (default 1.0) to trade fidelity for speed,
e.g. ``REPRO_BENCH_SCALE=0.5`` halves request counts.
"""

import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench.experiments import THROUGHPUT_CONCURRENCY, run_cell

RESULTS_DIR = Path(__file__).parent / "results"

#: global knob for request counts
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scale_requests(n: int) -> int:
    return max(6, int(n * SCALE))


def save_table(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)

    return runner


#: the workload columns of Figs 6 and 7
SATURATION_WORKLOADS = ("UPC", "TC", "TSV-7.5s")


@lru_cache(maxsize=None)
def saturation_grid():
    """The saturation cells Figs 6 and 7 both read, run once per process.

    Fig 6 reads pulse, RPC, RPC-W and Cache on every column; Fig 7
    reads pulse, RPC, RPC-W and Cache+RPC, which runs UPC only (AIFM,
    section 7.1).
    """
    cells = {}
    for workload in SATURATION_WORKLOADS:
        for system in ("pulse", "rpc", "rpc-w", "cache", "cache+rpc"):
            if system == "cache+rpc" and workload != "UPC":
                continue
            cells[(system, workload)] = run_cell(
                system, workload, 1,
                requests=scale_requests(150),
                concurrency=THROUGHPUT_CONCURRENCY)
    return cells


def saturation_cells(systems):
    """The saturation grid's cells of ``systems``."""
    return {key: cell for key, cell in saturation_grid().items()
            if key[0] in systems}
