"""Tier-1 tests for the unified solve engine (``repro.engine``).

Covers the PR-3 contract (docs/ENGINE.md):

* registry completeness — every packing export is claimed by a spec;
* warm-cache solves are value-identical to cold ones for every
  registered angle solver;
* mutation safety — cached solutions come back as independent copies;
* LRU eviction under ``maxsize`` with eviction counters;
* hit/miss/eviction counter names match ``docs/OBSERVABILITY.md``;
* the ``auto`` planner picks exact on small instances and an
  approximation under a tight deadline;
* ``solve_many`` batching with partial-result semantics.
"""

import pathlib

import numpy as np
import pytest

from repro.engine import (
    SolveRequest,
    SolverSpec,
    check_registry,
    clear_caches,
    fingerprint,
    get_spec,
    plan,
    register,
    smoke_check,
    solve,
    solve_many,
    solver_names,
    specs,
)
from repro.engine.cache import (
    RESULT_CACHE,
    RESULT_CACHE_MAXSIZE,
    LruCache,
)
from repro.model import generators as gen
from repro.obs.metrics import get_registry

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(autouse=True)
def fresh_state():
    clear_caches()
    get_registry().reset()
    yield
    clear_caches()


def small_angle(seed=0, k=2):
    return gen.uniform_angles(n=8, k=k, seed=seed)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_registry_is_complete(self):
        assert check_registry() == []

    def test_every_family_has_specs(self):
        for family in ("angle", "sector", "covering", "knapsack", "online"):
            assert solver_names(family), f"no specs for {family}"

    def test_angle_core_solvers_registered(self):
        names = set(solver_names("angle"))
        assert {"greedy", "greedy+ls", "exact", "exact-anytime"} <= names

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="greedy"):
            get_spec("angle", "nope")

    def test_duplicate_registration_rejected(self):
        spec = get_spec("angle", "greedy")
        with pytest.raises(ValueError, match="duplicate"):
            register(spec)

    def test_unknown_family_rejected(self):
        bad = SolverSpec(name="x", family="quantum", run=lambda i, c: None)
        with pytest.raises(ValueError, match="unknown family"):
            register(bad)

    def test_accepts_gates_engine_solve(self):
        inst = small_angle(k=2)
        with pytest.raises(ValueError, match="k == 1"):
            solve(SolveRequest(instance=inst, algorithm="single"))

    def test_smoke_check_all_specs_run(self):
        assert smoke_check() == []


# ----------------------------------------------------------------------
# Result cache: warm == cold for every registered angle solver
# ----------------------------------------------------------------------
class TestCacheIdentity:
    @pytest.mark.parametrize("name", [s.name for s in specs("angle")])
    def test_warm_value_identical_to_cold(self, name):
        spec = get_spec("angle", name)
        inst = small_angle(k=1 if name == "single" else 2)
        assert spec.rejects(inst) is None

        cold = solve(SolveRequest(instance=inst, algorithm=name, seed=7))
        warm = solve(SolveRequest(instance=inst, algorithm=name, seed=7))
        assert not cold.cached
        assert warm.cached
        assert warm.value == cold.value  # exactly, not approximately
        assert warm.algorithm == cold.algorithm == name
        assert warm.extra == cold.extra

    def test_equal_content_shares_cache_across_objects(self):
        a = small_angle(seed=3)
        b = small_angle(seed=3)  # distinct object, same content
        assert a is not b
        assert fingerprint(a) == fingerprint(b)
        cold = solve(SolveRequest(instance=a, algorithm="greedy"))
        warm = solve(SolveRequest(instance=b, algorithm="greedy"))
        assert warm.cached and warm.value == cold.value

    def test_key_includes_eps_and_seed(self):
        inst = small_angle()
        solve(SolveRequest(instance=inst, algorithm="greedy", eps=0.5))
        other_eps = solve(SolveRequest(instance=inst, algorithm="greedy", eps=0.25))
        other_seed = solve(
            SolveRequest(instance=inst, algorithm="greedy", eps=0.5, seed=1)
        )
        assert not other_eps.cached
        assert not other_seed.cached

    def test_budgeted_solves_never_cached(self):
        inst = small_angle()
        first = solve(
            SolveRequest(instance=inst, algorithm="greedy", timeout_s=30.0)
        )
        second = solve(
            SolveRequest(instance=inst, algorithm="greedy", timeout_s=30.0)
        )
        assert not first.cached and not second.cached
        assert len(RESULT_CACHE) == 0

    def test_use_cache_false_bypasses(self):
        inst = small_angle()
        solve(SolveRequest(instance=inst, algorithm="greedy", use_cache=False))
        again = solve(
            SolveRequest(instance=inst, algorithm="greedy", use_cache=False)
        )
        assert not again.cached
        assert len(RESULT_CACHE) == 0


# ----------------------------------------------------------------------
# Mutation safety
# ----------------------------------------------------------------------
class TestMutationSafety:
    def test_cached_solutions_are_independent_copies(self):
        inst = small_angle()
        solve(SolveRequest(instance=inst, algorithm="greedy"))
        warm1 = solve(SolveRequest(instance=inst, algorithm="greedy"))
        warm2 = solve(SolveRequest(instance=inst, algorithm="greedy"))
        assert warm1.cached and warm2.cached
        assert warm1.solution is not warm2.solution
        assert not np.shares_memory(
            warm1.solution.assignment, warm2.solution.assignment
        )

    def test_mutating_a_returned_solution_cannot_poison_the_cache(self):
        inst = small_angle()
        baseline = solve(SolveRequest(instance=inst, algorithm="greedy"))
        victim = solve(SolveRequest(instance=inst, algorithm="greedy"))
        victim.solution.assignment[:] = -1  # reject everything, in place
        victim.solution.orientations[:] = 0.0
        after = solve(SolveRequest(instance=inst, algorithm="greedy"))
        assert after.cached
        assert after.value == baseline.value
        np.testing.assert_array_equal(
            after.solution.assignment, baseline.solution.assignment
        )


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------
class TestEviction:
    def test_lru_evicts_oldest_and_counts(self):
        reg = get_registry()
        cache = LruCache("engine.cache", maxsize=2)  # shares the counters
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert reg.snapshot()["engine.cache.evictions"]["value"] == 1

    def test_result_cache_bounded_under_resize(self):
        reg = get_registry()
        RESULT_CACHE.resize(2)
        try:
            for seed in range(4):
                solve(SolveRequest(instance=small_angle(seed=seed), algorithm="greedy"))
            assert len(RESULT_CACHE) == 2
            assert reg.snapshot()["engine.cache.evictions"]["value"] == 2
            # The newest entry survived; the oldest was evicted.
            newest = solve(
                SolveRequest(instance=small_angle(seed=3), algorithm="greedy")
            )
            oldest = solve(
                SolveRequest(instance=small_angle(seed=0), algorithm="greedy")
            )
            assert newest.cached and not oldest.cached
        finally:
            RESULT_CACHE.resize(RESULT_CACHE_MAXSIZE)


# ----------------------------------------------------------------------
# Metric naming (contract: docs/OBSERVABILITY.md)
# ----------------------------------------------------------------------
class TestMetricNames:
    CACHE_COUNTERS = [
        "engine.cache.hits",
        "engine.cache.misses",
        "engine.cache.evictions",
        "engine.compile.hits",
        "engine.compile.misses",
        "engine.compile.evictions",
    ]

    def test_cold_then_warm_counter_arithmetic(self):
        reg = get_registry()
        inst = small_angle()
        solve(SolveRequest(instance=inst, algorithm="greedy"))
        solve(SolveRequest(instance=inst, algorithm="greedy"))
        snap = reg.snapshot()
        assert snap["engine.cache.misses"]["value"] == 1
        assert snap["engine.cache.hits"]["value"] == 1
        assert snap["engine.requests"]["value"] == 2
        assert snap["engine.solve"]["count"] == 1  # warm hit skips the timer

    def test_planner_counter(self):
        reg = get_registry()
        solve(SolveRequest(instance=small_angle(), algorithm="auto"))
        solve(SolveRequest(instance=small_angle(), algorithm="greedy",
                           use_cache=False))
        assert reg.snapshot()["engine.planned"]["value"] == 1

    def test_counter_names_are_documented(self):
        text = (DOCS / "OBSERVABILITY.md").read_text()
        for name in self.CACHE_COUNTERS + ["engine.requests", "engine.planned",
                                           "engine.solve"]:
            assert name in text, f"{name} missing from docs/OBSERVABILITY.md"


# ----------------------------------------------------------------------
# Compiled-instance sharing
# ----------------------------------------------------------------------
class TestCompileSharing:
    def test_solvers_share_compiled_views_across_algorithms(self):
        reg = get_registry()
        inst = small_angle()
        solve(SolveRequest(instance=inst, algorithm="dp-disjoint",
                           use_cache=False))
        misses_after_first = reg.snapshot()["engine.compile.misses"]["value"]
        solve(SolveRequest(instance=inst, algorithm="greedy",
                           use_cache=False))
        snap = reg.snapshot()
        assert snap["engine.compile.misses"]["value"] == misses_after_first
        assert snap["engine.compile.hits"]["value"] > 0

    def test_shared_compiled_candidates_are_read_only(self):
        from repro.engine.cache import intern_instance

        inst = small_angle()
        cand = intern_instance(inst).compile().candidates()
        with pytest.raises((ValueError, RuntimeError)):
            cand[0] = 0.0


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_small_instance_plans_exact(self):
        assert plan(small_angle(), "angle") == "exact"

    def test_tight_deadline_plans_approximation(self):
        choice = plan(small_angle(), "angle", timeout_s=0.5)
        spec = get_spec("angle", choice)
        assert spec.complexity == "poly" and not spec.exact

    def test_mid_and_large_instances(self):
        mid = gen.uniform_angles(n=60, k=4, seed=0)
        large = gen.uniform_angles(n=500, k=4, seed=0)
        assert plan(mid, "angle") == "greedy+ls"
        assert plan(large, "angle") == "greedy"

    def test_variant_routing(self):
        inst = small_angle()
        assert plan(inst, "angle", variant="fractional") == "splittable"
        assert plan(inst, "angle", variant="disjoint") == "dp-disjoint"

    def test_single_antenna_routes_to_single(self):
        assert plan(small_angle(k=1), "angle") == "single"

    def test_guarantee_picks_cheapest_meeting_it(self):
        inst = gen.uniform_angles(n=60, k=4, seed=0)
        name = plan(inst, "angle", guarantee=0.4)
        spec = get_spec("angle", name)
        assert spec.guarantee_fn is not None
        assert spec.guarantee_fn(1.0) >= 0.4

    def test_unreachable_guarantee_raises(self):
        inst = gen.uniform_angles(n=60, k=4, seed=0)
        # With a 0.5-approximate oracle (eps=0.5) no polynomial solver
        # can promise 0.99 of OPT.
        with pytest.raises(ValueError, match="guarantee"):
            plan(inst, "angle", guarantee=0.99, eps=0.5)

    def test_sector_rules(self):
        small = gen.grid_city(n=8, seed=0)
        if small.total_antennas <= 3:
            assert plan(small, "sector") == "exact"
        assert plan(small, "sector", timeout_s=0.5) == "greedy"
        assert plan(gen.grid_city(n=80, seed=0), "sector") == "greedy"

    def test_end_to_end_auto_report_is_marked_planned(self):
        report = solve(SolveRequest(instance=small_angle(), algorithm="auto"))
        assert report.planned
        assert report.algorithm == "exact"
        direct = solve(
            SolveRequest(instance=small_angle(), algorithm="exact",
                         use_cache=False)
        )
        assert report.value == pytest.approx(direct.value, abs=1e-12)

    def test_auto_under_tight_timeout_still_answers(self):
        report = solve(
            SolveRequest(instance=small_angle(), algorithm="auto", timeout_s=1.0)
        )
        assert report.planned
        assert not get_spec("angle", report.algorithm).exact


# ----------------------------------------------------------------------
# Engine-vs-direct value identity
# ----------------------------------------------------------------------
class TestEngineMatchesDirectCalls:
    def test_greedy_matches_direct(self):
        from repro.knapsack import get_solver
        from repro.packing import solve_greedy_multi

        inst = small_angle()
        direct = solve_greedy_multi(inst, get_solver("exact")).value(inst)
        report = solve(SolveRequest(instance=inst, algorithm="greedy"))
        assert report.value == pytest.approx(direct, abs=1e-12)

    def test_exact_matches_direct(self):
        from repro.packing import solve_exact_angle

        inst = small_angle()
        direct = solve_exact_angle(inst).value(inst)
        report = solve(SolveRequest(instance=inst, algorithm="exact"))
        assert report.value == pytest.approx(direct, abs=1e-12)

    def test_sector_greedy_matches_direct(self):
        from repro.knapsack import get_solver
        from repro.packing import solve_sector_greedy

        inst = gen.grid_city(n=12, seed=0)
        direct = solve_sector_greedy(inst, get_solver("exact")).value(inst)
        report = solve(SolveRequest(instance=inst, algorithm="greedy"))
        assert report.family == "sector"
        assert report.value == pytest.approx(direct, abs=1e-12)


# ----------------------------------------------------------------------
# solve_many
# ----------------------------------------------------------------------
class TestSolveMany:
    def test_order_and_labels_preserved(self):
        reqs = [
            SolveRequest(instance=small_angle(seed=s), algorithm="greedy",
                         label=f"seed{s}")
            for s in range(3)
        ]
        reports = solve_many(reqs)
        assert [r.label for r in reports] == ["seed0", "seed1", "seed2"]
        assert all(r.error is None and r.value > 0 for r in reports)

    def test_partial_failure_reports_instead_of_raising(self):
        reqs = [
            SolveRequest(instance=small_angle(), algorithm="greedy", label="ok"),
            SolveRequest(instance=small_angle(k=2), algorithm="single",
                         label="bad"),
        ]
        reports = solve_many(reqs)
        assert reports[0].error is None
        assert reports[1].error is not None
        assert "k == 1" in reports[1].error
        assert reports[1].solution is None

    def test_allow_partial_false_raises(self):
        reqs = [
            SolveRequest(instance=small_angle(k=2), algorithm="single"),
        ]
        with pytest.raises(ValueError, match="single"):
            solve_many(reqs, allow_partial=False)

    def test_mixed_families_in_one_batch(self):
        reqs = [
            SolveRequest(instance=small_angle(), algorithm="greedy"),
            SolveRequest(instance=gen.grid_city(n=10, seed=0),
                         algorithm="greedy"),
            SolveRequest(
                instance=(np.array([1.0, 2.0]), np.array([1.0, 3.0]), 2.5),
                family="knapsack", algorithm="exact",
            ),
        ]
        reports = solve_many(reqs)
        assert [r.family for r in reports] == ["angle", "sector", "knapsack"]
        assert all(r.error is None for r in reports)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_content_not_identity(self):
        assert fingerprint(small_angle(seed=1)) == fingerprint(small_angle(seed=1))
        assert fingerprint(small_angle(seed=1)) != fingerprint(small_angle(seed=2))

    def test_sector_fingerprints(self):
        a = gen.grid_city(n=10, seed=0)
        b = gen.grid_city(n=10, seed=0)
        assert fingerprint(a) == fingerprint(b)

    def test_unfingerprintable_raises(self):
        with pytest.raises(TypeError):
            fingerprint({"not": "an instance"})
