"""Tests of the benchmark itself.

Run explicitly (not part of the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import (LAYERS, OFF_PATH, layer_of_module,
                              module_of_file)
from perfbench.loadgen import Drive, percentile
from perfbench.workloads import SPECS, shard_prefix_mismatches

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: short but real: a few hundred requests per phase
SECONDS = 1.0


def exact_layers(per_layer):
    return {name: value for name, value in per_layer.items()
            if name.startswith(run.EXACT_LAYER_PREFIXES)}


# -- determinism --------------------------------------------------------------
def test_same_seed_repeats_modeled_metrics_and_other_seed_differs():
    first = run._child("measure", "kv_rw_durable", 1, SECONDS)
    again = run._child("measure", "kv_rw_durable", 1, SECONDS)
    other = run._child("measure", "kv_rw_durable", 2, SECONDS)
    for name in run.MODELED:
        assert first["end_to_end"][name] == again["end_to_end"][name]
    assert first["failed"] == again["failed"] == other["failed"] == 0
    assert any(first["end_to_end"][name] != other["end_to_end"][name]
               for name in run.MODELED)


def test_traced_run_repeats_exact_counts_and_names_every_layer_metric():
    first = run._child("trace", "tc_dist", 1, SECONDS)
    again = run._child("trace", "tc_dist", 1, SECONDS)
    assert exact_layers(first["per_layer"]) == exact_layers(again["per_layer"])
    assert first["failed"] == 0
    emitted = set(first["per_layer"]) | set(
        run._child("probes", None, 1, SECONDS))
    assert emitted == {metric["name"] for metric in SPEC["per_layer"]}
    shares = sum(first["per_layer"][f"host_share.{layer}"]
                 for layer in LAYERS)
    assert shares + first["per_layer"]["trace.unattributed_share"] == \
        pytest.approx(1.0)
    # a distributed scan crosses nodes; nothing here batches or logs
    assert first["per_layer"]["switch.reroutes_per_req"] > 1
    assert first["per_layer"]["batch.steps_per_req"] == 0
    assert first["per_layer"]["dur.commit_waits_per_req"] == 0


def test_driver_call_prints_the_contract_on_its_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix_batch",
         "--seed", "3", "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0


def test_workloads_match_benchmark_json():
    assert run.workload_names(SPEC) == list(SPECS)


# -- sharded equals in-process ------------------------------------------------
def test_mix_shard_prefix_equals_the_in_process_run():
    checked, wrong = shard_prefix_mismatches(seed=5)
    assert (checked, wrong) == (640, 0)


# -- layer map ----------------------------------------------------------------
def test_every_source_file_has_a_layer_or_is_declared_off_path():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert sources
    seen = set()
    for source in sources:
        module = module_of_file(str(source))
        layer = layer_of_module(module)  # KeyError: a package lacks a layer
        if layer is None:
            assert module == "repro" or module.startswith(OFF_PATH)
        else:
            seen.add(layer)
    assert seen == set(LAYERS)
    assert layer_of_module("perfbench.loadgen") == "loadgen"
    with pytest.raises(KeyError):
        layer_of_module("repro.brand_new_package.module")


# -- load generator arithmetic ------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50) == 500
    assert percentile(values, 99) == 990  # ten samples lie beyond it
    assert percentile([7.0], 99) == 7.0


def test_backlog_growth_needs_a_rise_in_every_quarter_and_a_doubling():
    def drive(seen):
        return Drive(warmup=0, results=[], due_ns=[], done_ns=[],
                     in_flight_seen=seen)
    assert drive([1] * 4 + [3] * 4 + [6] * 4 + [9] * 4).backlog_grew()
    assert not drive([5, 6, 5, 6] * 4).backlog_grew()
    assert not drive([10] * 4 + [11] * 4 + [12] * 4 + [13] * 4).backlog_grew()


# -- compare ------------------------------------------------------------------
def test_verdict_uses_direction_bound_and_exactness():
    assert run.verdict("higher", 0.10, 100.0, 95.0, exact=False) == "same"
    assert run.verdict("higher", 0.10, 100.0, 85.0, exact=False) == "worse"
    assert run.verdict("higher", 0.10, 100.0, 120.0, exact=False) == "better"
    assert run.verdict("lower", 0.10, 100.0, 120.0, exact=False) == "worse"
    assert run.verdict("lower", 0.05, 10.0, 10.0001, exact=True) == "worse"
    assert run.verdict("lower", 0.05, 10.0, 10.0, exact=True) == "same"
    assert run.verdict("lower", 0.0, 0.0, 0.001, exact=False) == "worse"


def _result_file(path, host_req_per_s, p50, layer_calls):
    end_to_end = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    end_to_end.update(host_req_per_s=host_req_per_s, model_p50_us=p50,
                      failed_share=0.0)
    path.write_text(json.dumps({
        "seed": 1, "seconds": 15.0,
        "workloads": {"upc_scalar": {
            "end_to_end": end_to_end,
            "per_layer": {"calls.sim.engine": layer_calls}}}}))
    return path


def test_compare_exits_nonzero_only_on_a_worse_row(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "host_req_per_s")
    base = _result_file(tmp_path / "a.json", 200.0, 17.5, 1000)
    noise = _result_file(tmp_path / "b.json", 200.0 * (1 - bound / 2),
                         17.5, 1000)
    slower = _result_file(tmp_path / "c.json", 200.0 * (1 - 2 * bound),
                          17.5, 1000)
    model_moved = _result_file(tmp_path / "d.json", 200.0, 17.6, 1001)
    assert run.compare(SPEC, base, noise) == 0
    assert run.compare(SPEC, base, slower) == 1
    capsys.readouterr()
    assert run.compare(SPEC, base, model_moved) == 1
    printed = capsys.readouterr().out
    assert "model_p50_us" in printed and "worse" in printed
    assert "differ: 1 ['calls.sim.engine']" in printed


# -- command hygiene ----------------------------------------------------------
def test_exits_nonzero_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "upc_scalar",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_quick_finishes_inside_its_time_limit(tmp_path):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--quick",
         "--out", str(tmp_path / "quick.json")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 60.0
    report = json.loads((tmp_path / "quick.json").read_text())
    assert list(report["workloads"]) == run.workload_names(SPEC)
    assert set(report["host"]) == {"nproc", "python", "commit"}
    for workload in report["workloads"].values():
        assert workload["failed"] == 0
        assert workload["end_to_end"]["failed_share"] == 0
