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

Some asserts fail today; ``known_failures.json`` lists each, with the
ROADMAP item that owns it and the scales it fails at, and the session
hook below fails the run when the run and the ledger disagree.
"""

import json
import os
from pathlib import Path

import pytest

from repro.bench.experiments import THROUGHPUT_CONCURRENCY, Cell

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


def saturation_cell(system: str, workload: str) -> Cell:
    """A saturating one-node cell of Figs 6 and 7.  Both figures declare
    the same keys, so a session that runs both runs each key once."""
    return Cell(system, workload, 1, scale_requests(150),
                concurrency=THROUGHPUT_CONCURRENCY)


# -- the known-failures ledger ---------------------------------------------
#: each failing bench test: its owning ROADMAP item and the scales it
#: was seen failing at
KNOWN_FAILURES = {
    row["test"]: row for row in json.loads(
        (Path(__file__).parent / "known_failures.json").read_text())["rows"]}

#: the session's exit status when the run and the ledger disagree
LEDGER_BROKEN = 6

_outcomes = {}
_problems = []


def pytest_runtest_logreport(report):
    if report.failed:
        _outcomes[report.nodeid] = "failed"
    elif report.when == "call":
        _outcomes.setdefault(report.nodeid, "passed")


def pytest_sessionfinish(session):
    """Fail the session on a failure the ledger does not list at this
    scale, and on a listed test that passed at a scale its row records.
    A listed failure still reports FAILED."""
    for test, outcome in sorted(_outcomes.items()):
        listed = SCALE in KNOWN_FAILURES.get(test, {}).get("scales", ())
        if outcome == "failed" and not listed:
            _problems.append(f"{test} failed at scale {SCALE}, and no row "
                             "of known_failures.json lists it there")
        elif outcome == "passed" and listed:
            _problems.append(f"{test} passed at scale {SCALE}: delete "
                             "that scale from its known_failures.json row")
    if _problems:
        session.exitstatus = LEDGER_BROKEN


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("-", "known_failures.json")
    for line in _problems or ["every failure is listed, and no listed "
                              "test passed"]:
        terminalreporter.write_line(line)
