"""The compiled-instance layer: bit-identity, sharing, and eviction.

Three families of guarantees frozen here:

* **primitive identity** — sweeps built from a compiled view's stored sort
  (`CircularSweep.from_sorted`, `subset_sweep`) are indistinguishable from
  freshly constructed ones, including under duplicate-angle ties;
* **solver identity** — engine solves over the seeded generator suite are
  value- and assignment-identical whether the compiled view is built cold
  or served from the interned canonical instance;
* **cache discipline** — `solve_many` batches compile each distinct
  instance once (observable via ``engine.compile.*`` counters), one engine
  solve compiles and composes constraint masks once for solver and
  verifier together, a partitioned solve composes the parent's masks
  once and never builds a parent station view, the compile cache honours
  its LRU bound and eviction re-interns cleanly, and compiled views
  never ride along in pickles.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.core.compiled import (
    CompiledAngleInstance,
    CompiledSectorInstance,
    compile_instance,
)
from repro.engine import SolveRequest, solve, solve_many
from repro.engine.cache import (
    COMPILE_CACHE,
    COMPILE_CACHE_MAXSIZE,
    RESULT_CACHE,
    RESULT_CACHE_MAXSIZE,
    clear_caches,
    intern_instance,
)
from repro.geometry.sweep import CircularSweep
from repro.model import generators as gen
from repro.obs.metrics import get_registry
from repro.packing.single import best_rotation


def _counter(name: str) -> int:
    snap = get_registry().snapshot()
    return int(snap.get(name, {}).get("value", 0))


def _sweeps_equal(a: CircularSweep, b: CircularSweep) -> bool:
    return (
        a.n == b.n
        and a.width == b.width
        and np.array_equal(a.order, b.order)
        and np.array_equal(a.sorted_thetas, b.sorted_thetas)
        and np.array_equal(a.rank_of_original, b.rank_of_original)
        and np.array_equal(a._lo, b._lo)
        and np.array_equal(a._hi, b._hi)
    )


def _tied_thetas(n: int, seed: int) -> np.ndarray:
    """Angles with deliberate exact duplicates (stable-sort tie coverage)."""
    rng = np.random.default_rng(seed)
    distinct = rng.uniform(0.0, 2.0 * np.pi, size=max(2, n // 3))
    return distinct[rng.integers(0, distinct.size, size=n)]


class TestPrimitiveIdentity:
    """Compiled sweeps == fresh sweeps, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("width", [0.3, np.pi / 2, 2.0 * np.pi])
    def test_compiled_full_sweep_matches_fresh(self, seed, width):
        inst = gen.uniform_angles(n=40, k=2, seed=seed)
        compiled = compile_instance(inst)
        assert _sweeps_equal(compiled.sweep(width), CircularSweep(inst.thetas, width))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_subset_sweep_matches_fresh_sort_with_ties(self, seed):
        from repro.model.instance import AngleInstance

        thetas = _tied_thetas(60, seed)
        base = gen.uniform_angles(n=60, k=2, seed=seed)
        inst = AngleInstance(
            thetas=thetas, demands=base.demands, profits=base.profits,
            antennas=base.antennas,
        )
        compiled = compile_instance(inst)
        rng = np.random.default_rng(seed + 100)
        idx = np.flatnonzero(rng.random(60) < 0.5)
        sub = compiled.subset_sweep(idx, 1.1)
        fresh = CircularSweep(inst.thetas[idx], 1.1)
        assert _sweeps_equal(sub, fresh)
        # Windows agree on content, not just bounds.
        vals = rng.random(idx.size)
        assert np.allclose(sub.window_sums(vals), fresh.window_sums(vals))

    def test_subset_sweep_rejects_unsorted_indices(self):
        compiled = compile_instance(gen.uniform_angles(n=10, k=1, seed=0))
        with pytest.raises(ValueError, match="strictly increasing"):
            compiled.subset_sweep(np.array([3, 1]), 0.5)

    def test_full_length_subset_returns_memoized_sweep(self):
        compiled = compile_instance(gen.uniform_angles(n=12, k=1, seed=0))
        full = compiled.sweep(0.7)
        assert compiled.subset_sweep(np.arange(12), 0.7) is full

    def test_unique_window_ids_memoized_and_identical(self):
        thetas = _tied_thetas(50, 7)
        fresh = CircularSweep(thetas, 0.9)
        memo = CircularSweep(thetas, 0.9)
        first = memo.unique_window_ids()
        assert first is memo.unique_window_ids()  # memoized
        keep = np.ones(fresh.n, dtype=bool)
        keep[1:] = ~np.isclose(np.diff(fresh.sorted_thetas), 0.0, atol=1e-15)
        assert np.array_equal(first, np.flatnonzero(keep))

    def test_prefix_sums_reproduce_window_sums(self):
        inst = gen.clustered_angles(n=45, k=2, seed=3)
        compiled = compile_instance(inst)
        sweep = compiled.sweep(inst.antennas[0].rho)
        assert np.array_equal(
            sweep.window_sums_from_prefix(compiled.demand_prefix),
            sweep.window_sums(inst.demands),
        )
        assert np.array_equal(
            sweep.window_sums_from_prefix(compiled.profit_prefix),
            sweep.window_sums(inst.profits),
        )

    def test_compiled_arrays_are_read_only(self):
        compiled = compile_instance(gen.uniform_angles(n=15, k=2, seed=0))
        for arr in (compiled.order, compiled.sorted_thetas,
                    compiled.demand_prefix, compiled.profit_prefix):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestRotationPathIdentity:
    """best_rotation: compiled fast path == from-scratch path."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_best_rotation_compiled_vs_fresh(self, seed):
        from repro.knapsack import get_solver

        inst = gen.uniform_angles(n=35, k=1, seed=seed)
        spec = inst.antennas[0]
        compiled = compile_instance(inst)
        oracle = get_solver("greedy")
        plain = best_rotation(inst.thetas, inst.demands, inst.profits, spec, oracle)
        fast = best_rotation(
            inst.thetas, inst.demands, inst.profits, spec, oracle,
            sweep=compiled.sweep(spec.rho),
            demand_prefix=compiled.demand_prefix,
            profit_prefix=compiled.profit_prefix,
        )
        assert fast.value == plain.value
        assert fast.alpha == plain.alpha
        assert np.array_equal(fast.selected, plain.selected)


ANGLE_ALGOS = ("greedy", "adaptive", "greedy+ls", "dp-disjoint",
               "shifting", "insertion")
SECTOR_ALGOS = ("greedy", "greedy+ls", "independent")


class TestEngineValueIdentity:
    """Cold per-call compiles and shared compiled views solve identically."""

    def _solve_twice(self, instance, family, algorithm, eps=0.5):
        req = SolveRequest(instance=instance, family=family,
                           algorithm=algorithm, eps=eps, use_cache=False)
        clear_caches()
        cold = solve(req)  # compile miss: built from scratch
        warm = solve(req)  # compile hit: the shared view
        return cold, warm

    @pytest.mark.parametrize("algorithm", ANGLE_ALGOS)
    @pytest.mark.parametrize("maker,seed", [
        (gen.uniform_angles, 0), (gen.uniform_angles, 1),
        (gen.clustered_angles, 0), (gen.hotspot_angles, 2),
    ])
    def test_angle_solvers_value_identical(self, algorithm, maker, seed):
        inst = maker(n=30, k=2, seed=seed)
        cold, warm = self._solve_twice(inst, "angle", algorithm)
        assert warm.value == cold.value
        assert np.array_equal(warm.solution.assignment, cold.solution.assignment)
        assert np.array_equal(warm.solution.orientations, cold.solution.orientations)

    @pytest.mark.parametrize("algorithm", SECTOR_ALGOS)
    @pytest.mark.parametrize("maker,seed", [
        (gen.uniform_disk, 0), (gen.clustered_towns, 1),
    ])
    def test_sector_solvers_value_identical(self, algorithm, maker, seed):
        inst = maker(n=25, seed=seed)
        cold, warm = self._solve_twice(inst, "sector", algorithm)
        assert warm.value == cold.value
        assert np.array_equal(warm.solution.assignment, cold.solution.assignment)

    def test_sector_exact_value_identical(self):
        inst = gen.uniform_disk(n=10, k=2, seed=0)
        cold, warm = self._solve_twice(inst, "sector", "exact")
        assert warm.value == cold.value


class TestSolveManyCompileOnce:
    """A repeated batch compiles its instance exactly once (satellite)."""

    def test_repeated_batch_hits_compile_cache(self):
        inst = gen.uniform_angles(n=20, k=2, seed=0)
        requests = [
            SolveRequest(instance=inst, algorithm="greedy", eps=0.5,
                         use_cache=False, label=f"r{i}")
            for i in range(3)
        ]
        clear_caches()
        hits0 = _counter("engine.compile.hits")
        misses0 = _counter("engine.compile.misses")
        reports = solve_many(requests)
        assert [r.error for r in reports] == [None, None, None]
        assert _counter("engine.compile.misses") - misses0 == 1
        assert _counter("engine.compile.hits") - hits0 == 2
        assert len({r.value for r in reports}) == 1

    def test_distinct_instances_compile_separately(self):
        requests = [
            SolveRequest(instance=gen.uniform_angles(n=20, k=2, seed=s),
                         algorithm="greedy", eps=0.5, use_cache=False)
            for s in (0, 1)
        ]
        clear_caches()
        misses0 = _counter("engine.compile.misses")
        solve_many(requests)
        assert _counter("engine.compile.misses") - misses0 == 2


class TestOneCompilePerSolve:
    """Solver and verifier of one engine solve share one compiled view."""

    def test_constrained_sector_solve_compiles_and_composes_once(
        self, monkeypatch
    ):
        import repro.core.compiled as compiled_mod
        import repro.model.constraints as constraints_mod

        calls = {"compile": 0, "compose": 0}
        real_compile = compiled_mod.compile_instance
        real_compose = constraints_mod.compose_station_masks

        def counting_compile(instance):
            calls["compile"] += 1
            return real_compile(instance)

        def counting_compose(*args, **kwargs):
            calls["compose"] += 1
            return real_compose(*args, **kwargs)

        monkeypatch.setattr(compiled_mod, "compile_instance", counting_compile)
        monkeypatch.setattr(
            constraints_mod, "compose_station_masks", counting_compose
        )
        inst = gen.scenario_metro_blockage(n=300, towns=3, seed=4)
        assert inst.constraints
        clear_caches()
        report = solve(SolveRequest(instance=inst, family="sector",
                                    algorithm="greedy", eps=0.5,
                                    partition="never", use_cache=False))
        assert report.value > 0
        assert calls == {"compile": 1, "compose": 1}


class TestPartitionedParentCompile:
    """A partitioned plan compiles its parent to constraint masks only."""

    def test_parent_masks_composed_once_without_station_views(
        self, monkeypatch
    ):
        import repro.core.backend as backend_mod
        import repro.model.constraints as constraints_mod

        inst = gen.scenario_metro_blockage(
            n=3000, towns=6, capacity_fraction=0.5, seed=0
        )
        assert inst.constraints
        calls = {"compose": 0, "parent_compose": 0, "parent_polar": 0}
        real_compose = constraints_mod.compose_station_masks
        real_polar = backend_mod.batched_station_polar

        def counting_compose(instance, *args, **kwargs):
            calls["compose"] += 1
            calls["parent_compose"] += instance is inst
            return real_compose(instance, *args, **kwargs)

        def counting_polar(instance):
            calls["parent_polar"] += instance.n == inst.n
            return real_polar(instance)

        monkeypatch.setattr(
            constraints_mod, "compose_station_masks", counting_compose
        )
        monkeypatch.setattr(
            backend_mod, "batched_station_polar", counting_polar
        )
        clear_caches()
        request = SolveRequest(instance=inst, family="sector",
                               algorithm="greedy", partition="force",
                               use_cache=False)
        report = solve(request)
        assert report.extra["strategy"] == "partitioned"
        parts = report.extra["partitions"]
        assert parts > 1
        # The parent once (partition, then verify from the memo), plus
        # one composition per part's own compile.
        assert calls == {
            "compose": 1 + parts, "parent_compose": 1, "parent_polar": 0,
        }
        assert request.instance.compile()._stations == {}


class TestCompileCacheEviction:
    """LRU bounds cover canonical instances; eviction re-interns cleanly."""

    def teardown_method(self):
        COMPILE_CACHE.resize(COMPILE_CACHE_MAXSIZE)
        clear_caches()

    def test_lru_bound_and_clean_rebuild(self):
        clear_caches()
        COMPILE_CACHE.resize(2)
        insts = [gen.uniform_angles(n=12, k=1, seed=s) for s in range(3)]
        evict0 = _counter("engine.compile.evictions")
        views = [intern_instance(i).compile() for i in insts]
        assert len(COMPILE_CACHE) == 2
        assert _counter("engine.compile.evictions") - evict0 == 1
        # Seed 0 was evicted (LRU-first): an equal-content twin becomes the
        # new canonical object and compiles a fresh, equivalent view
        # instead of resurrecting the evicted one.
        twin = pickle.loads(pickle.dumps(insts[0]))
        assert intern_instance(twin) is twin
        rebuilt = twin.compile()
        assert rebuilt is not views[0]
        assert np.array_equal(rebuilt.order, views[0].order)
        # The evicted view still works for anyone holding it (no orphaning).
        assert _sweeps_equal(views[0].sweep(0.8), rebuilt.sweep(0.8))

    def test_result_and_compile_caches_bounded_together(self):
        clear_caches()
        RESULT_CACHE.resize(2)
        COMPILE_CACHE.resize(2)
        try:
            for s in range(4):
                inst = gen.uniform_angles(n=12, k=1, seed=s)
                solve(SolveRequest(instance=inst, algorithm="greedy", eps=0.5))
            assert len(RESULT_CACHE) == 2
            assert len(COMPILE_CACHE) == 2
        finally:
            RESULT_CACHE.resize(RESULT_CACHE_MAXSIZE)


class TestCompiledViewLifecycle:
    """Memoization and serialization discipline of compiled views."""

    def test_instance_compile_is_memoized(self):
        inst = gen.uniform_angles(n=10, k=1, seed=0)
        assert inst.compile() is inst.compile()
        assert isinstance(inst.compile(), CompiledAngleInstance)

    def test_sector_compile_is_memoized(self):
        inst = gen.uniform_disk(n=10, seed=0)
        assert inst.compile() is inst.compile()
        assert isinstance(inst.compile(), CompiledSectorInstance)

    def test_pickle_drops_compiled_view(self):
        for inst in (gen.uniform_angles(n=10, k=1, seed=0),
                     gen.uniform_disk(n=10, seed=0)):
            inst.compile()
            assert "_compiled" in inst.__dict__
            clone = pickle.loads(pickle.dumps(inst))
            assert "_compiled" not in clone.__dict__
            assert clone == inst

    def test_deepcopy_drops_compiled_view(self):
        inst = gen.uniform_angles(n=10, k=1, seed=0)
        inst.compile()
        clone = copy.deepcopy(inst)
        assert "_compiled" not in clone.__dict__

    def test_shared_compiled_spans_equal_content(self):
        inst = gen.uniform_angles(n=10, k=1, seed=0)
        twin = pickle.loads(pickle.dumps(inst))
        clear_caches()
        assert intern_instance(inst) is inst
        assert intern_instance(twin) is inst
        assert intern_instance(twin).compile() is inst.compile()
        # Interning never installs a view on the twin itself.
        assert "_compiled" not in twin.__dict__

    def test_compile_instance_rejects_unknown_payloads(self):
        with pytest.raises(TypeError, match="cannot compile"):
            compile_instance(object())

    def test_sector_eligibility_matches_reachable_mask(self):
        inst = gen.clustered_towns(n=20, seed=0)
        compiled = compile_instance(inst)
        masks, thetas, rs = compiled.eligibility()
        table = inst.antenna_table()
        assert len(masks) == len(table)
        for g, (_, s_id, spec) in enumerate(table):
            st = compiled.station(s_id)
            assert np.array_equal(masks[g], st.rs <= spec.radius * (1.0 + 1e-12))
            assert thetas[g] is st.thetas
            assert rs[g] is st.rs
