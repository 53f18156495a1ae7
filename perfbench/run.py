"""perfbench command line.

Three uses::

    python3 perfbench/run.py --seed 1
        every workload (untraced run, traced run) and the probes; prints
        every metric by name and writes perfbench/results/latest.json

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, one JSON result on the last line (the form the
        benchmark driver calls; BENCHMARK.json names the metrics)

    python3 perfbench/run.py --compare A.json B.json
        per workload x end-to-end metric verdict against the bounds

Every measurement runs in a fresh child process (``--child``) with a
pinned environment, so workloads cannot warm or pollute each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
LATEST = HERE / "results" / "latest.json"

#: set-ups timed per untraced run (fresh process each); the median is
#: reported
SETUP_RUNS = 5

#: --quick: drives sized for this many host seconds and one set-up per
#: workload, so the whole command is a smoke test of well under a minute
QUICK_SECONDS = 1.0

#: compared exactly when both runs used the same seed and length
MODELED = ("model_p50_us", "model_p99_us", "model_sat_kops")

#: per-layer metrics that repeat bit for bit on one commit and seed
EXACT_LAYER_PREFIXES = (
    "calls.", "trace.requests", "sim.events_per_req", "net.", "tp.",
    "client.", "switch.", "acc.", "span.", "span_share.", "batch.", "tlb.",
    "dram.", "dur.", "placement.", "ref.", "shard.windows_per_req")


def _spec() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


def workload_names(spec: dict) -> List[str]:
    return [workload["name"] for workload in spec["workloads"]]


# -- child processes ----------------------------------------------------------
def _child_env() -> Dict[str, str]:
    """A pinned environment: fixed hash seed, one BLAS/OMP thread, and no
    PULSE_* switch inherited from the caller's shell."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("PULSE_")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    return env


def _child(mode: str, workload: Optional[str], seed: int,
           seconds: float) -> dict:
    """Run one child to completion and parse the JSON on its last line."""
    command = [sys.executable, str(HERE / "run.py"), "--child", mode,
               "--seed", str(seed), "--seconds", repr(seconds)]
    if workload is not None:
        command += ["--workload", workload]
    done = subprocess.run(command, env=_child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: child {mode} {workload or ''} exited "
                         f"with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_child(mode: str, workload: Optional[str], seed: int,
               seconds: float) -> None:
    """Entry point inside the child process."""
    if mode == "probes":
        from perfbench.probes import run_probes
        result = run_probes()
    else:
        from perfbench import measure
        action = {"setup": measure.setup_only, "measure": measure.measure,
                  "trace": measure.trace}[mode]
        result = action(workload, seed, seconds)
    print(json.dumps(result))


# -- one workload -------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float,
                 setup_runs: int = SETUP_RUNS) -> dict:
    """Set up ``setup_runs`` times (median reported), measure once."""
    setups = [_child("setup", workload, seed, seconds)["setup_s"]
              for _ in range(setup_runs - 1)]
    result = _child("measure", workload, seed, seconds)
    setups.append(result["end_to_end"]["setup_s"])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["setup_runs_s"] = setups
    return result


def _units(spec: dict) -> Dict[str, str]:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_share"] = "ratio"
    return units


def run_for_driver(spec: dict, workload: str, seed: int, seconds: float,
                   traced: bool) -> int:
    """The driver's call: one JSON object on the last line of stdout."""
    if traced:
        result = _child("trace", workload, seed, seconds)
        values = dict(result["per_layer"],
                      **_child("probes", None, seed, seconds))
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = run_untraced(workload, seed, seconds)
        values = result["end_to_end"]
        names = [m["name"] for m in spec["end_to_end"]]
        if result["invalid"]:
            raise SystemExit("perfbench: " + "; ".join(result["invalid"]))
        if result["host_contended"]:
            print(f"perfbench: {workload}: wall exceeded CPU seconds by "
                  "more than 15 %; the host was contended, rerun",
                  file=sys.stderr)
    units = _units(spec)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in names},
    }))
    return 0 if result["failed"] == 0 else 1


# -- every workload -----------------------------------------------------------
def _host_facts() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": commit}


def _print_metrics(values: Dict[str, float], units: Dict[str, str],
                   indent: str = "  ") -> None:
    for name, value in values.items():
        print(f"{indent}{name:<34} {value:>16.6g} {units.get(name, '')}")


def run_all(spec: dict, seed: int, seconds: float, out: Path,
            quick: bool) -> int:
    units = _units(spec)
    report = {"host": _host_facts(), "seed": seed, "seconds": seconds,
              "workloads": {}}
    print(f"perfbench: seed {seed}, {seconds:g} s per workload, "
          f"host {report['host']}")
    problems: List[str] = []
    for workload in workload_names(spec):
        untraced = run_untraced(workload, seed, seconds,
                                setup_runs=1 if quick else SETUP_RUNS)
        traced = _child("trace", workload, seed, seconds)
        report["workloads"][workload] = {
            "end_to_end": untraced["end_to_end"],
            "samples": untraced["samples"],
            "requests": untraced["requests"],
            "setup_runs_s": untraced["setup_runs_s"],
            "host_contended": untraced["host_contended"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "per_layer": traced["per_layer"],
        }
        print(f"\n== {workload}  (latency-phase samples: "
              f"{untraced['samples']}, requests: {untraced['requests']})")
        _print_metrics(untraced["end_to_end"], units)
        print("  -- per layer (traced run)")
        _print_metrics(traced["per_layer"], units, indent="    ")
        problems += untraced["invalid"]
        if untraced["smoke"]:
            print(f"  !! {workload}: fewer than 1000 latency samples; p99 "
                  "and the saturation check are not meaningful (smoke run)")
        if untraced["failed"] or traced["failed"]:
            problems.append(f"{workload}: {untraced['failed']} + "
                            f"{traced['failed']} requests failed the oracle")
        if untraced["host_contended"]:
            print(f"  !! {workload}: wall > 1.15 x CPU seconds; the host "
                  "was contended, host metrics are not valid: rerun")
    report["probes"] = _child("probes", None, seed, seconds)
    print("\n== probes (host ns per call, median of repetitions)")
    _print_metrics(report["probes"], units)

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\n[written to {out}]")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 1 if problems else 0


# -- compare ------------------------------------------------------------------
def verdict(better: str, bound: float, before: float, after: float,
            exact: bool) -> str:
    """same / better / worse for one metric going from before to after."""
    if after == before:
        return "same"
    improved = (after > before) == (better == "higher")
    if not exact and abs(after - before) <= bound * abs(before):
        return "same"
    return "better" if improved else "worse"


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    metrics = spec["end_to_end"] + [
        {"name": "failed_share", "better": "lower", "bound": 0.0}]
    worse = 0
    print(f"{'workload':<14} {'metric':<18} {'A':>14} {'B':>14} "
          f"{'change':>8}  verdict")
    for workload in workload_names(spec):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        for metric in metrics:
            name = metric["name"]
            before = run_a["end_to_end"][name]
            after = run_b["end_to_end"][name]
            result = verdict(metric["better"], metric["bound"], before, after,
                             exact=same_inputs and name in MODELED)
            worse += result == "worse"
            change = (after - before) / before if before else 0.0
            print(f"{workload:<14} {name:<18} {before:>14.6g} "
                  f"{after:>14.6g} {change:>+8.2%}  {result}")
        if same_inputs:
            changed = [name for name, value in run_a["per_layer"].items()
                       if name.startswith(EXACT_LAYER_PREFIXES)
                       and run_b["per_layer"].get(name) != value]
            print(f"{workload:<14} exact per-layer counts that differ: "
                  f"{len(changed)} {changed if changed else ''}")
    print(f"{worse} worse")
    return 1 if worse else 0


# -- entry point --------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="host seconds the two drives of a workload are "
                             "sized for (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"drives sized for {QUICK_SECONDS:g} s and one "
                             "set-up per workload, for smoke use")
    parser.add_argument("--out", type=Path, default=LATEST)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("A.json", "B.json"))
    parser.add_argument("--child", choices=("setup", "measure", "trace",
                                            "probes"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(spec, *args.compare)
    if args.quick:
        seconds = QUICK_SECONDS
    else:
        seconds = args.seconds or float(spec["run_seconds"])
    if args.child:
        _run_child(args.child, args.workload, args.seed, seconds)
        return 0
    if args.workload:
        return run_for_driver(spec, args.workload, args.seed, seconds,
                              bool(args.trace))
    return run_all(spec, args.seed, seconds, args.out, args.quick)


if __name__ == "__main__":
    # `python3 perfbench/run.py` puts perfbench/ itself on sys.path; the
    # package and the program under test live one level up
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
