"""E16 — realistic scenario pack: constrained packing with certificates.

The ``scenario`` family (``docs/SCENARIOS.md``) drops line-of-sight
blockage segments and a per-customer station cap onto the metro layout;
this experiment pins down what the constraint pipeline *guarantees*:

* **monotonicity, certified by exact optima** — constraints only remove
  assignment options, so on instances small enough for the exact sector
  branch & bound, OPT(constrained) <= OPT(unconstrained) is asserted on
  true optima, not heuristics — and the blockage is verified to actually
  bind (masked pairs exist) so the claim is not vacuous;
* **heuristic certification transfers** — greedy and independent stay
  within the exact optimum on constrained instances, and every solution
  passes the constraint-aware feasibility check;
* **partition certificate survives constraints** — the merge bound of
  the partition-solve-merge engine (``docs/SCALE.md``) is computed from
  *effective* eligibility, so ``V_mono <= V_part + merge_bound`` still
  holds on scenario instances and the partitioned value stays under the
  certified ``partition_upper_bound``.
"""

import numpy as np
import pytest

from repro.engine import SolveRequest, clear_caches
from repro.engine import solve as engine_solve
from repro.model import generators as gen
from repro.model.instance import SectorInstance


def _solve(instance, algorithm, partition="never", eps=0.1):
    # eps=0.1 routes the per-antenna oracle to the FPTAS: the scenario
    # family draws continuous demands, on which exact knapsack
    # branch & bound can blow up.
    clear_caches()
    return engine_solve(SolveRequest(
        instance=instance, family="sector", algorithm=algorithm, eps=eps,
        partition=partition, use_cache=False,
    ))


def _unconstrained(instance):
    """The same geometry with the constraint pack stripped."""
    return SectorInstance(
        positions=instance.positions, demands=instance.demands,
        profits=instance.profits, stations=instance.stations,
    )


def _tiny_scenarios():
    """Small enough for the exact sector solver, blockage still binding."""
    out = []
    for seed in range(3):
        inst = gen.scenario_metro_blockage(
            n=28, towns=2, stations_per_town=1, k_per_station=2,
            segments_per_town=3, seed=seed,
        )
        masks = inst.compile().constraint_masks()
        if masks is not None and any(not m.all() for m in masks):
            out.append(inst)
    return out


def test_e16_constraints_bind_on_tiny_instances():
    """The certified claims below must not be vacuously true."""
    assert len(_tiny_scenarios()) >= 2


def test_e16_monotonicity_certified_by_exact_optima():
    """OPT(constrained) <= OPT(unconstrained) on true optima."""
    for inst in _tiny_scenarios():
        constrained = _solve(inst, "exact").value
        unconstrained = _solve(_unconstrained(inst), "exact").value
        assert constrained <= unconstrained + 1e-9


def test_e16_heuristics_certified_under_constraints():
    """Heuristics stay under exact OPT; solutions pass the mask check."""
    for inst in _tiny_scenarios():
        opt = _solve(inst, "exact")
        opt.solution.verify(inst)
        for algorithm in ("greedy", "independent"):
            report = _solve(inst, algorithm)
            report.solution.verify(inst)
            assert report.value <= opt.value + 1e-9


def test_e16_partition_certificate_survives_constraints():
    """V_mono <= V_part + merge_bound on scenario instances."""
    for seed in range(2):
        inst = gen.scenario_metro_blockage(n=400, towns=4, seed=seed)
        mono = _solve(inst, "greedy", partition="never")
        part = _solve(inst, "greedy", partition="force")
        part.solution.verify(inst)
        assert part.extra["partitions"] >= 2
        assert mono.value <= part.value + part.extra["merge_bound"] + 1e-9
        assert part.value <= part.extra["partition_upper_bound"] + 1e-9


@pytest.mark.parametrize("n", [400, 1600])
def test_e16_scenario_solve_runtime(benchmark, n):
    inst = gen.scenario_metro_blockage(n=n, towns=4, seed=0)

    def run():
        return _solve(inst, "greedy").value

    value = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["value"] = float(value)
    assert value > 0.0
    masks = inst.compile().constraint_masks()
    assert masks is not None
    masked = int(sum(int((~np.asarray(m)).sum()) for m in masks))
    benchmark.extra_info["masked_pairs"] = masked
    assert masked > 0
