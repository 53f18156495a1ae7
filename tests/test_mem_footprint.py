"""A memory node costs what it holds, not what it could hold.

Node DRAM is a demand-zero mapping, so building a rack must not raise
the host's resident set by anything proportional to node capacity.
Each measurement runs in its own interpreter so ``ru_maxrss`` (a
process-lifetime peak) is that rack's alone; the child reports how far
the peak moved past what importing the package already cost.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

_CHILD = """
import resource
from repro.baselines import CacheSystem, RpcSystem
from repro.core import PulseCluster
from repro.mem import GlobalMemory


def peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

{setup}
before = peak_kb()
try:
{body}
except OSError as refused:
    print("refused", refused)
else:
    print("grew_kb", peak_kb() - before)
"""


def _growth_mb(body: str, setup: str = "") -> float:
    """Peak-RSS growth (MB) of ``body`` in a fresh interpreter."""
    indented = "\n".join("    " + line for line in body.splitlines())
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD.format(setup=setup, body=indented)],
        env=env, capture_output=True, text=True, timeout=30)
    assert out.returncode == 0, out.stderr
    verdict, value = out.stdout.split(maxsplit=1)
    if verdict == "refused":
        pytest.skip(f"host refused the reservation: {value.strip()}")
    return int(value) / 1024


def test_building_a_four_node_rack_is_free():
    assert _growth_mb("rack = PulseCluster(node_count=4)") < 8


def test_paper_scale_rack_costs_only_the_pages_it_touches():
    body = """\
capacity = 1 << 30
rack = GlobalMemory(node_count=4, node_capacity=capacity)
for node in rack.nodes:
    for addr in (0, capacity - 8):
        node.memory.write_u64(addr, 0xFEED0000 + node.node_id)
        assert node.memory.read_u64(addr) == 0xFEED0000 + node.node_id
"""
    # 8 touched regions: 32 KB of 4 KiB faults, up to 16 MB where the
    # host backs first touches with 2 MB transparent huge pages
    assert _growth_mb(body) < 32


def test_scale_out_on_a_live_rack_is_free():
    assert _growth_mb("rack.add_node()",
                      setup="rack = PulseCluster(node_count=2)") < 2


@pytest.mark.parametrize("system", ["RpcSystem", "CacheSystem"])
def test_baseline_racks_are_free(system):
    assert _growth_mb(f"rack = {system}(node_count=4)") < 8
