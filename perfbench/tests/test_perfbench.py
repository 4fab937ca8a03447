"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The short-mode tests start real servers and take about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import lib  # noqa: E402
import serve_burst  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, seconds=2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_mode_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_health_check_rejects_a_degraded_pool():
    healthy = {"service.worker.dispatches": 12.0, "service.cache_served": 4.0}
    serve_burst.check_health(healthy, hot_ops=4)
    with pytest.raises(lib.BenchError, match="service.worker.degraded"):
        serve_burst.check_health({**healthy, "service.worker.degraded": 1.0},
                                 hot_ops=4)
    with pytest.raises(lib.BenchError, match="service.worker.dispatches"):
        serve_burst.check_health({"service.cache_served": 4.0}, hot_ops=4)
    with pytest.raises(lib.BenchError, match="hot repeats"):
        serve_burst.check_health(healthy, hot_ops=5)


def test_failed_op_lands_at_inf_in_the_percentiles():
    ok = [0.010, 0.020, 0.030, 0.040]
    assert lib.percentile(ok + [math.inf], 0.5) == 0.030
    assert math.isinf(lib.percentile(ok + [math.inf], 0.9))
    phase = lib.Phase(ok[:1] + [math.inf], elapsed_s=1.0)
    assert phase.failed == 1
    metrics = phase.end_to_end(quality_ratio=1.0)
    assert math.isinf(metrics["latency_p50_ms"])
    assert metrics["throughput_ops"] == 1.0


def test_self_time_subtracts_direct_children():
    tracer = lib.Tracer()
    root = tracer.add("op", 0.0, 10.0)
    child = tracer.add("serve", 1.0, 9.0, root)
    tracer.add("engine.solve", 2.0, 5.0, child)
    assert tracer.self_times() == {"op": [2.0], "serve": [5.0],
                                   "engine.solve": [3.0]}


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "plan-metro", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
