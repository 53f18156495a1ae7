"""Fig 9, read from pulse's stage table.

Each row of ``repro.sim.stages.pulse_stages`` is visited once, alone, on
a fresh event loop: the visit's event carries the span Fig 9 charges it
(what ``repro.bench.report.span_breakdown`` and perfbench's
``span.*_ns`` report), and the loop's clock says how long the visit
took end to end.
"""

import pytest

from repro.bench.report import SPAN_STAGES
from repro.obs.metrics import MetricsRegistry
from repro.params import DEFAULT_PARAMS
from repro.sim.engine import Environment
from repro.sim.stages import Stage, pulse_stages


def solo_visit(name, *inputs, shared_interconnect=True):
    """(span, end-to-end ns) of one visit of row ``name``, alone."""
    env = Environment()
    stages = pulse_stages(DEFAULT_PARAMS, shared_interconnect)
    registry = MetricsRegistry(clock=lambda: env.now)
    follower = (Stage(env, stages["interconnect"])
                if name == "memory" and shared_interconnect else None)
    stage = Stage(env, stages[name], follower, registry, "mem0.acc")
    done = stage.visit(*inputs)
    env.run(until=done)
    return done.value, env.now


def test_netstack_is_430_ns():
    assert solo_visit("netstack") == (430.0, 430.0)


def test_scheduler_is_4_ns():
    assert solo_visit("scheduler") == (4.0, 4.0)


def test_a_solo_256_byte_load_is_translation_burst_and_dram_tail():
    # 2 ns TCAM + 256 B at 14.5 B/ns + the 90 ns DRAM tail, ~109.7 ns on
    # a dedicated channel; the shared interconnect adds the bytes' share
    # of the 25 B/ns node cap, which is Fig 9's ~120 ns.
    dedicated = 2 + 256 / 14.5 + 90
    assert solo_visit("memory", 1, 256, shared_interconnect=False) == (
        dedicated, dedicated)
    shared = 2 + 256 / 14.5 + 256 / 25 + 90
    assert solo_visit("memory", 1, 256) == (shared, shared)
    assert shared == pytest.approx(119.9, abs=0.05)


@pytest.mark.parametrize("instructions", [1, 7, 80])
def test_logic_is_one_ns_per_instruction(instructions):
    assert solo_visit("logic", instructions, instructions) == (
        float(instructions), float(instructions))


def test_the_report_reads_fig9s_stages_from_the_table():
    assert SPAN_STAGES == ("netstack", "scheduler", "memory", "logic")
    assert SPAN_STAGES == tuple(
        name for name, row in pulse_stages(DEFAULT_PARAMS).items()
        if row.span)
