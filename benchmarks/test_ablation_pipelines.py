"""Ablation: accelerator core organization (Fig 3, section 4.2.2).

The paper's core design question: how many logic pipelines and
workspaces per memory pipeline keep the memory pipeline saturated?
Too few concurrent workspaces leave the memory pipeline idle while logic
runs (Fig 3a); extra logic pipelines beyond eta buy nothing for
memory-bound kernels but cost area/energy (the argument for eta pipelines
with 2-eta multiplexed workspaces instead of eta+1 pipelines).

This bench sweeps workspaces-per-core and logic pipelines under a
saturating low-eta workload and reports throughput per configuration.
"""

from dataclasses import replace

from conftest import save_table, scale_requests

from repro.bench.experiments import Cell, format_table, run_cells
from repro.params import DEFAULT_PARAMS


def _cell(workspaces: int, logic_pipelines: int) -> Cell:
    accel = replace(DEFAULT_PARAMS.accelerator,
                    workspaces_per_core=workspaces,
                    logic_pipelines_per_core=logic_pipelines)
    return Cell("pulse", "UPC", 1, scale_requests(150), concurrency=64,
                params=DEFAULT_PARAMS.with_overrides(accelerator=accel),
                workload_options={"num_pairs": 10_000})


def _sweep():
    cells = {("ws", workspaces): _cell(workspaces, 1)
             for workspaces in (1, 2, 4, 8)}
    # eta+1 logic pipelines with the same workspaces: no gain for a
    # memory-bound kernel.
    cells[("lp", 2)] = _cell(8, 2)
    return {key: cell.stats.throughput_per_s
            for key, cell in run_cells(cells).items()}


def test_ablation_core_organization(once):
    results = once(_sweep)

    rows = []
    for (kind, value), tput in sorted(results.items()):
        label = (f"{value} workspaces, 1 logic pipe" if kind == "ws"
                 else f"8 workspaces, {value} logic pipes")
        rows.append((label, f"{tput/1e3:.0f}"))
    save_table("ablation_pipelines", format_table(
        ["configuration", "kops/s"], rows))

    # More workspaces -> better memory pipeline overlap -> throughput.
    assert results[("ws", 2)] > 1.3 * results[("ws", 1)]
    assert results[("ws", 8)] > results[("ws", 2)]
    # Adding a second logic pipeline to a low-eta workload buys ~nothing
    # (the paper's area/energy argument for eta pipelines, not eta+1).
    assert results[("lp", 2)] < 1.1 * results[("ws", 8)]
