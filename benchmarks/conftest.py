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
from pathlib import Path

import pytest

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
