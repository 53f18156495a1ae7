"""Every "one X" design rule of the code base, as one row of one table.

A row names the rule, a regex that the mechanism it replaced matched,
the paths whose ``*.py`` files must not match it, the files allowed to
match (each must then keep matching), and an ``example`` -- the removed
spelling -- that the regex must still match.  A row also fails
when one of its paths no longer exists, so renaming a file cannot
silently disarm the rule that scanned it.  This file is never scanned:
it holds the examples.

A new rule is a new row here; a new count bar is a row in
``benchmarks/counts.json``.
"""

import re
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
THIS = Path(__file__).resolve()


class Rule(NamedTuple):
    sentence: str
    forbidden: str
    paths: Tuple[str, ...]
    example: str
    allowed: Tuple[str, ...] = ()


RULES = {
    "receive-path": Rule(
        "One receive path: a component is a handler on session.on_message; "
        "inbox is only the sink of a handler-less session or a bare "
        "endpoint, never polled by a loop.",
        r"inbox\.get\(\)", ("src",),
        "message = yield self.session.inbox.get()"),
    "way-to-wait": Rule(
        "One way to wait: a wait-once is a callback on its event (no "
        "one-shot reply or expiry process), and the one power state is "
        "session.powered_off.",
        r"def _reply|def _expire_hints|self\.dead\b",
        ("src/repro/core", "src/repro/placement"),
        "def _expire_hints(self, node):"),
    "scenario-runner": Rule(
        "One scenario runner: tests/scenario.py holds the single "
        "definition of each storm, stream runner and snapshot delta.",
        r"def (storm_params|migration_storm|arena_storm|run_stream"
        r"|run_crash_stream|snapshot_delta)", ("tests",),
        "def run_stream(cluster, iterator, storm=False):",
        allowed=("tests/scenario.py",)),
    "execution-mode": Rule(
        "One spelling per execution mode: lane width is "
        "PulseCluster(batch_lanes=), "
        "sharding is cluster.shard(workers=N); no env knob, no lazy shard.",
        r"PULSE_BATCH|PULSE_WORKERS|_ensure_sharded", ("src",),
        'workers = int(os.environ.get("PULSE_WORKERS", "0"))'),
    "routing-authority": Rule(
        "One routing authority, one routing path: the live PlacementMap "
        "names every next hop, and a bare request is a switch frame of "
        "one.",
        r"ForwardingTable|forward_window|forward_hints|_route_batch",
        ("src",), "def _route_batch(self, message: Message) -> None:"),
    "placement-map-at-build": Rule(
        "An accelerator and the allocator get their placement map when "
        "they are built, never attached afterwards.",
        r"def attach_accelerator|owner_map =",
        ("src/repro/placement", "src/repro/mem"),
        "self.allocator.owner_map = self.placement"),
    "one-ownership-authority": Rule(
        "One ownership authority: every request path asks the live "
        "PlacementMap who serves an address, and a migrated-away miss is "
        "a RUNNING hop, not a status of its own.",
        r"addrspace\.node_of\(|\.MOVED\b", ("src",),
        "owner = node.addrspace.node_of(missed)"),
    "frame-call": Rule(
        "One frame call, one CPU-node walk: a host reads the window and "
        "calls IteratorMachine.step; the client fallback, Cache and "
        "Cache+RPC run repro.core.iterator.walk; no dead knob.",
        r"run_iteration|StepResult|IterationOutcome|include_all"
        r"|extra_latency_ns|resolve_workers", ("src",),
        "def run_iteration("),
    "rack-base": Rule(
        "One rack base, one measurement contract: every compared system "
        "is a repro.core.cluster.Rack, and the harness reads it without "
        "guessing.",
        r"TraversalBackend|class BaselineSystem|def _utilization"
        r"|getattr\(system|bandwidth_no_interconnect", ("src", "examples"),
        'cache = getattr(system, "cache", None)'),
    "rack-base-perturbation": Rule(
        "One spelling per perturbation: a sharded rack is perturbed only "
        "by shard(replicated=...) factories, so the sharded runtime has "
        "no migrate or kill_node.",
        r"def (migrate|kill_node)", ("src/repro/shard/runtime.py",),
        "def kill_node(self, node_id: int) -> None:"),
    "measurement-window": Rule(
        "One measurement window, the registry's: a rate is a registry "
        "counter over registry.window_ns, and a node's bytes are counted "
        "once.",
        r"bytes_read|bytes_written|reset_counters|network_utilization\("
        r"|_window_tx_base|put_total|class ObjectCache", ("src",),
        "def reset_counters(self) -> None:"),
    "busy-time-window": Rule(
        "The only other window is Resource's busy-time base.",
        r"def begin_window", ("src",), "def begin_window(self) -> None:",
        allowed=("src/repro/sim/resources.py",)),
    "demand-zero-node": Rule(
        "A memory node's RSS is its data, not its capacity: no "
        "capacity-sized bytearray behind a memory node.",
        r"bytearray\((size|addrspace|.*capacity)",
        ("src/repro/mem", "src/repro/baselines"),
        "self._data = bytearray(size)"),
    "memory-stage": Rule(
        "One memory stage, no dead bookkeeping.",
        r"_memory_phase|active_process", ("src",),
        "interconnect_ns = yield from self._memory_phase("),
    "iteration-function": Rule(
        "An iteration is one function: no per-instruction callable table.",
        r"ops\[pc\]|def _op\{", ("src",),
        'lines.append(f"def _op{pc}(m):")'),
    "one-spelling-per-setting": Rule(
        "A model value is one SystemParams field; a constructor takes "
        "wiring and execution choices, never a second spelling.",
        r"cores_per_accelerator|\bflush_ns\b|default_segments|stack_cores"
        r"|switch_name|fault_handlers|object_bytes|initial_time",
        ("src", "examples", "benchmarks"),
        "PulseCluster(node_count=1, cores_per_accelerator=1)"),
    "timer-race": Rule(
        "A timer that loses its race is cancelled; a retransmission is one "
        "timer per unacked segment, never a process.",
        r"_retransmit_loop", ("src/repro/transport",),
        "self.env.process(self._retransmit_loop(flow, seq, entry))"),
    "analysis-is-one-pass": Rule(
        "Static analysis walks the iteration DAG once; no code enumerates "
        "its paths.",
        r"iteration_paths", ("src", "examples", "benchmarks"),
        "program.iteration_paths()"),
    "one-heat-sampler-per-node": Rule(
        "Each memory node owns its heat sampler, handed to its accelerator "
        "at build; the rack-wide heat map only reads them",
        r"node_view|_own_\w+|PlacementService",
        ("src", "examples", "benchmarks"),
        "self.placement.tracker.node_view(node.node_id)"),
    "one-system-table": Rule(
        "A compared system is its rack: repro.bench.experiments.SYSTEMS "
        "maps each name to a rack class and its options, and no code "
        "compares a system name again.",
        r"""(==|!=|\bin)\s*[(\[{]?\s*["'](pulse|adpdm|cache|rpc)[\w+-]*["']"""
        r"""|["'](pulse|adpdm|cache|rpc)[\w+-]*["']\s*(==|!=|\bin\b)""",
        ("src",), 'if name in ("pulse", "adpdm", "pulse-acc"):'),
    "one-stage-table": Rule(
        "One stage table per rack: every Resource is a Stage built from a "
        "row of repro.sim.stages, and a timed stage is a Stage visit, so "
        "each duration is written once, in its row.",
        r"Resource\(|\.hold\(", ("src",),
        "yield self.scheduler_unit.hold(acc.scheduler_dispatch_ns)",
        allowed=("src/repro/sim/stages.py", "src/repro/sim/resources.py")),
    "one-frame-type": Rule(
        "One frame type: every traversal message, pulse's or an RPC "
        "baseline's, is a TraversalBatch and a lone request is a batch of "
        "one, so no component branches on a frame's type or forks on its "
        "size.",
        r"isinstance\([^()]*Traversal(Batch|Request)\b|len\(batch\) == 1",
        ("src/repro/core", "src/repro/baselines"), "if len(batch) == 1:"),
    "one-trace-seam": Rule(
        "One trace seam: the event log is written where frames cross a "
        "component's TransportSession; only the migration engine's "
        "placement events, which are not frames, are recorded elsewhere.",
        r"events\.record\(", ("src",),
        'self._events.record(self.name, "reroute", request.request_id)',
        allowed=("src/repro/transport/session.py",
                 "src/repro/placement/migration.py")),
    "one-cell-runner": Rule(
        "One cell runner: a grid cell is a frozen "
        "repro.bench.experiments.Cell, run_cells computes each key once "
        "per process, and every figure is a view over keys.",
        r"run_cell\(|run_open_loop_cell\(|saturation_grid",
        ("src", "benchmarks", "tests", "examples"),
        "cell = run_cell(system, workload, nodes, requests=base)"),
}


@lru_cache(maxsize=None)
def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def check(rule: Rule, root: Path = ROOT) -> None:
    """Raise ``AssertionError`` naming ``rule`` and each place it fails."""
    found = []
    if not re.search(rule.forbidden, rule.example):
        found.append(f"regex {rule.forbidden!r} does not match its "
                     f"example {rule.example!r}")
    allowed = {root / name: name for name in rule.allowed}
    files = set()
    for name in rule.paths + rule.allowed:
        path = root / name
        if not path.exists():
            found.append(f"{name} does not exist")
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    allowed_matches = set()
    regex = re.compile(rule.forbidden)
    for path in sorted(files - {THIS}):
        if not path.exists():
            continue
        text = _text(path)
        for match in regex.finditer(text):
            if path in allowed:
                allowed_matches.add(path)
                continue
            line = text.count("\n", 0, match.start()) + 1
            found.append(f"{path.relative_to(root)}:{line}: "
                         f"{text.splitlines()[line - 1].strip()}")
    for path, name in allowed.items():
        if path.exists() and path not in allowed_matches:
            found.append(f"{name} no longer matches, so the allowance is "
                         "stale")
    if found:
        raise AssertionError("\n  ".join([rule.sentence, *found]))


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
def test_invariant_holds(rule):
    check(rule)


@pytest.mark.parametrize("files, rule, where", [
    ({"src/a.py": "x = 1\nm.run_iteration(data)\n"},
     Rule("no second stepping API", r"run_iteration", ("src",),
          "def run_iteration("),
     "src/a.py:2: m.run_iteration(data)"),
    ({}, Rule("a renamed file disarms nothing", r"def migrate",
              ("src/runtime.py",), "def migrate("),
     "src/runtime.py does not exist"),
    ({"src/a.py": "pass\n"},
     Rule("one definition, here", r"def begin_window", ("src",),
          "def begin_window(", allowed=("src/a.py",)),
     "src/a.py no longer matches"),
    ({"src/a.py": "pass\n"},
     Rule("a regex that drifted from its example", r"run_iterations",
          ("src",), "def run_iteration("),
     "does not match its example"),
], ids=["match", "missing-path", "stale-allowance", "example"])
def test_a_broken_rule_fails_naming_itself_and_where(tmp_path, files, rule,
                                                     where):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    with pytest.raises(AssertionError) as failure:
        check(rule, tmp_path)
    assert rule.sentence in str(failure.value)
    assert where in str(failure.value)
