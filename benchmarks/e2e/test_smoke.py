"""Smoke test of the benchmark harness; tier-1 does not collect it.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload once at ``--scale 0.01`` (datasets shrunk tenfold,
steady-state self-checks reported but not enforced) with the traced run,
and checks what must hold at any scale: outputs verified, every
acknowledged key audited after recovery, the trace conservation and
zero-observer-effect checks, and that ``BENCHMARK.json`` lists exactly
the metrics ``metrics.py`` defines.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def suite(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "suite.json"
    done = subprocess.run(RUN + ["--scale", "0.01", "--json", str(out)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout[-4000:]
    report = json.loads(out.read_text())
    assert report["claim"] is None
    return report["workloads"]


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_workload_runs_verified_and_traced(suite, workload):
    result = suite[workload]
    assert result["correct"]
    # The one failing op the README's known findings allow.
    known = {"read:KeyError"} if workload == "ycsb_cold" else set()
    assert set(result["errors"]) <= known
    checks = {c["name"].split(":")[0]: c for c in result["checks"]}
    assert checks["no read returned wrong bytes"]["ok"]
    assert checks["zero observer effect"]["ok"]
    assert checks["host self times sum to the traced wall time "
                  "within 2 %"]["ok"]
    single_clock = "virtual self times of all layers sum to the elapsed " \
                   "virtual time exactly"
    if workload == "cluster_open":
        assert single_clock not in checks       # one clock per member
    else:
        assert checks[single_clock]["ok"]
    assert set(result["per_layer"]) <= {m.name for m in metrics.PER_LAYER}
    for layer in metrics.LAYERS:
        assert f"{layer}.host_self_us_per_op" in result["per_layer"]
    assert result["per_layer"]["trace.overhead_ratio"] > 0
    assert result["per_layer"]["driver.calls_per_op"] > 0


def test_layers_that_do_not_serve_a_workload_stay_silent(suite):
    assert suite["ycsb_hot"]["per_layer"]["fuse.calls_per_op"] == 0
    assert suite["ycsb_hot"]["per_layer"]["net.calls_per_op"] == 0
    assert suite["wiki_files"]["per_layer"]["fuse.calls_per_op"] > 0
    assert suite["wiki_files"]["per_layer"]["namespace.calls_per_op"] > 0
    for layer in ("net", "shard", "replica", "sched"):
        assert suite["cluster_open"]["per_layer"][f"{layer}.calls_per_op"] > 0
    assert suite["paper_cross"]["per_layer"]["baselines.calls_per_op"] > 0


@pytest.mark.parametrize("trace", (0, 1))
def test_contract_line(trace):
    done = subprocess.run(
        RUN + ["--workload", "wiki_files", "--seed", "3", "--seconds", "0.05",
               "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0, done.stdout[-4000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(line["metrics"]) == [m.name for m in expected]
    for m in expected:
        assert line["metrics"][m.name]["unit"] == m.unit
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_benchmark_json_lists_exactly_these_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert bench["run_seconds"] == metrics.RUN_SECONDS
    assert [w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS)
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}
