"""Pin ``scripts/bench_compare.py`` on the committed bench payloads.

The enforced pairs are the ones ``scripts/smoke.sh`` gates; the metric
names flattened from ``BENCH_pr10.json`` are the comparison surface every
later payload is diffed on, so a declaration change that renames or
drops one shows up here.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "scripts" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

ENFORCED_PAIRS = [
    ("BENCH_pr5.json", "BENCH_pr6.json", "backend_bench"),
    ("BENCH_pr6.json", "BENCH_pr7.json", "service_bench"),
    ("BENCH_pr8.json", "BENCH_pr9.json", "scale_bench"),
    ("BENCH_pr9.json", "BENCH_pr10.json", "online_bench"),
]

PR10_METRICS = {
    "backend_bench.angle_numpy_solves_per_s",
    "backend_bench.angle_speedup",
    "backend_bench.kernel_numpy_solves_per_s",
    "backend_bench.kernel_speedup",
    "backend_bench.knapsack_numpy_solves_per_s",
    "backend_bench.knapsack_speedup",
    "backend_bench.sector_numpy_solves_per_s",
    "backend_bench.sector_speedup",
    "online_bench.delta_events_per_s",
    "online_bench.recompile_events_per_s",
    "online_bench.speedup",
    "scale_bench.n10000.mono_solves_per_s",
    "scale_bench.n10000.part_solves_per_s",
    "scale_bench.n10000.speedup",
    "scale_bench.n100000.mono_solves_per_s",
    "scale_bench.n100000.part_solves_per_s",
    "scale_bench.n100000.speedup",
    "scale_bench.n1000000.mono_solves_per_s",
    "scale_bench.n1000000.part_solves_per_s",
    "scale_bench.n1000000.speedup",
    "scenario_bench.compose_headroom",
    "scenario_bench.greedy.numpy_solves_per_s",
    "scenario_bench.greedy.python_solves_per_s",
    "scenario_bench.independent.numpy_solves_per_s",
    "scenario_bench.independent.python_solves_per_s",
    "service_bench.batched_rps",
    "service_bench.single_rps",
    "service_bench.supervised.kill_rps",
    "service_bench.supervised.supervised_rps",
    "service_bench.warm_rps",
    "summary.adaptive.solves_per_s",
    "summary.dp-disjoint.solves_per_s",
    "summary.greedy.solves_per_s",
    "summary.shifting.solves_per_s",
}


@pytest.mark.parametrize(
    "baseline, candidate, section", ENFORCED_PAIRS,
    ids=[section for _, _, section in ENFORCED_PAIRS],
)
def test_enforced_pairs_pass(baseline, candidate, section, capsys):
    argv = [str(ROOT / baseline), str(ROOT / candidate), "--enforce", section]
    assert bench_compare.main(argv) == 0
    assert "0 failing" in capsys.readouterr().out


def test_pr10_metric_names_are_pinned():
    payload = json.loads((ROOT / "BENCH_pr10.json").read_text(encoding="utf-8"))
    assert set(bench_compare._throughputs(payload)) == PR10_METRICS


def test_inverted_metrics_read_as_rates():
    payload = json.loads((ROOT / "BENCH_pr10.json").read_text(encoding="utf-8"))
    metrics = bench_compare._throughputs(payload)
    scenario = payload["scenario_bench"]
    assert metrics["scenario_bench.compose_headroom"] == pytest.approx(
        1.0 / scenario["overhead_ratio"]
    )
    greedy = payload["summary"]["greedy"]
    assert metrics["summary.greedy.solves_per_s"] == pytest.approx(
        greedy["runs"] / greedy["total_wall_time_s"]
    )


def test_enforced_section_missing_from_candidate_fails(capsys):
    argv = [str(ROOT / "BENCH_pr1.json"), str(ROOT / "BENCH_pr2.json"),
            "--enforce", "backend_bench"]
    assert bench_compare.main(argv) == 1
