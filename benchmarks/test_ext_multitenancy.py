"""Extension: multi-tenant fairness at the accelerator (Supp B).

The paper's supplementary material poses the open problem: workloads
with different compute intensities (eta) sharing one accelerator create
a performance-isolation problem, and suggests the scheduler (section
4.2.3) as the place to solve it.  This bench implements and evaluates
the suggestion: a round-robin-across-tenants workspace scheduler versus
the default FIFO, with one tenant flooding long scans while another
issues short lookups.

Reported: the light tenant's average/p99 latency under each policy, and
the heavy tenant's cost of fairness.
"""

from conftest import save_table, scale_requests

from repro.bench.experiments import format_table
from repro.core import PulseCluster
from repro.params import AcceleratorParams, SystemParams
from repro.structures import LinkedList


def _run(policy: str):
    params = SystemParams(
        accelerator=AcceleratorParams(cores=1, workspaces_per_core=2))
    cluster = PulseCluster(node_count=1, client_count=2,
                           scheduler_policy=policy, params=params)
    lst = LinkedList(cluster.memory)
    lst.extend((k, k) for k in range(1, 801))
    finder = lst.find_iterator()
    env = cluster.env

    heavy, light = [], []
    rounds = scale_requests(8)

    def heavy_worker():
        for _ in range(rounds):
            result = yield from cluster.clients[0].traverse(finder, 800)
            heavy.append(result.latency_ns)

    def light_worker():
        yield env.timeout(80_000)
        for _ in range(3 * rounds):
            result = yield from cluster.clients[1].traverse(finder, 1)
            light.append(result.latency_ns)

    procs = [env.process(heavy_worker()) for _ in range(8)]
    procs.append(env.process(light_worker()))
    env.run(until=env.all_of(procs))

    def p99(values):
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1,
                           int(0.99 * (len(ordered) - 1)))]

    return {
        "light_avg": sum(light) / len(light),
        "light_p99": p99(light),
        "heavy_avg": sum(heavy) / len(heavy),
    }


def test_extension_multitenant_fairness(once):
    results = once(lambda: {policy: _run(policy)
                            for policy in ("fifo", "fair")})

    rows = []
    for policy in ("fifo", "fair"):
        r = results[policy]
        rows.append((policy,
                     f"{r['light_avg']/1e3:.1f}",
                     f"{r['light_p99']/1e3:.1f}",
                     f"{r['heavy_avg']/1e3:.1f}"))
    save_table("ext_multitenancy", format_table(
        ["policy", "light_avg_us", "light_p99_us", "heavy_avg_us"],
        rows))

    fifo, fair = results["fifo"], results["fair"]
    # Fair scheduling shields the light tenant from the scan flood;
    # the tail is where FIFO hurts most (a lookup stuck behind a queue
    # of 800-hop scans), so p99 is the headline number.
    assert fair["light_p99"] < 0.5 * fifo["light_p99"]
    assert fair["light_avg"] < 0.9 * fifo["light_avg"]
    # ... without destroying the heavy tenant.
    assert fair["heavy_avg"] < 1.6 * fifo["heavy_avg"]
