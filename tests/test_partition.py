"""Tests for the partition–solve–merge engine layer (docs/SCALE.md).

Covers the decomposition primitives (``repro.engine.partition``), the
planner's partition auto rule, the engine strategy seam, and the
certified merge bound ``V_mono <= V_part + merge_bound`` — asserted as a
hypothesis property across every partitionable spec, including the
single-partition degenerate case.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import (
    SolveRequest,
    clear_caches,
    get_spec,
    merge_partial_solutions,
    partition_instance,
    plan_partition,
    reach_components,
    solve,
    specs,
)
from repro.engine.planner import AUTO_PARTITION_MIN_N
from repro.core.backend import los_blocked, station_distances
from repro.model.antenna import AntennaSpec
from repro.model.constraints import LosBlockage
from repro.model.generators import power_law_metro, scenario_metro_blockage
from repro.model.instance import SectorInstance, Station
from repro.model.solution import FeasibilityError, SectorSolution
from repro.obs.metrics import get_registry

PARTITIONABLE = tuple(s.name for s in specs("sector") if s.partitionable)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _station(x, y, radius=2.0, capacity=50.0, antennas=2):
    return Station(
        position=(x, y),
        antennas=tuple(
            AntennaSpec(rho=np.pi / 2, capacity=capacity, radius=radius)
            for _ in range(antennas)
        ),
    )


def _two_island_instance():
    """Two stations far apart, one customer near each, one unreachable."""
    positions = np.array([[0.5, 0.0], [100.5, 0.0], [50.0, 50.0]])
    demands = np.array([1.0, 1.0, 1.0])
    profits = np.array([3.0, 5.0, 7.0])
    stations = (_station(0.0, 0.0), _station(100.0, 0.0))
    return SectorInstance(
        positions=positions, demands=demands, profits=profits,
        stations=stations,
    )


class TestReachComponents:
    def test_separated_stations_split(self):
        inst = _two_island_instance()
        comp = reach_components(inst)
        assert comp.shape == (2,)
        assert comp[0] != comp[1]

    def test_overlapping_stations_merge(self):
        inst = SectorInstance(
            positions=np.array([[1.0, 0.0]]),
            demands=np.array([1.0]),
            stations=(_station(0.0, 0.0), _station(3.0, 0.0)),
        )
        assert reach_components(inst)[0] == reach_components(inst)[1]

    def test_touching_radii_are_one_component(self):
        # dist == R_s + R_t exactly: the slack keeps them adjacent, in
        # agreement with the instance-level reach predicate at the rim.
        inst = SectorInstance(
            positions=np.array([[2.0, 0.0]]),
            demands=np.array([1.0]),
            stations=(_station(0.0, 0.0), _station(4.0, 0.0)),
        )
        comp = reach_components(inst)
        assert comp[0] == comp[1]

    def test_metro_components_equal_towns(self):
        inst = power_law_metro(n=500, towns=4, seed=1)
        comp = reach_components(inst)
        assert len(set(comp.tolist())) == 4


class TestPartitionInstance:
    def test_two_islands(self):
        inst = _two_island_instance()
        plan = partition_instance(inst)
        assert len(plan.parts) == 2
        assert plan.unreachable == 1
        # Every reachable customer lands in exactly one part, remapped.
        covered = np.concatenate([p.customer_index for p in plan.parts])
        assert sorted(covered.tolist()) == [0, 1]
        for part in plan.parts:
            np.testing.assert_allclose(
                part.sub.profits, inst.profits[part.customer_index]
            )

    def test_subs_are_views_not_copies(self):
        inst = power_law_metro(n=2000, towns=3, seed=0)
        plan = partition_instance(inst)
        assert plan.parts
        for part in plan.parts:
            assert part.sub.positions.base is not None
            assert part.sub.demands.base is not None
            assert not part.sub.demands.flags.writeable

    def test_single_component_degenerate(self):
        inst = power_law_metro(n=300, towns=1, seed=2)
        plan = partition_instance(inst)
        assert len(plan.parts) == 1
        part = plan.parts[0]
        assert part.sub.n + plan.unreachable == inst.n
        assert part.sub.total_antennas == inst.total_antennas

    def test_upper_bound_sums_parts(self):
        plan = partition_instance(_two_island_instance())
        assert plan.upper_bound == pytest.approx(
            sum(p.upper_bound for p in plan.parts)
        )

    def test_one_distance_pass_per_constrained_plan(self, monkeypatch):
        # A distance pass is one customer-length hypot row per station.
        # A constrained plan feeds its reach test and the parent's
        # composed masks (kept for verify) from one pass; an
        # unconstrained plan streams its rows and never builds the
        # (m, n) station_distances matrix.
        from repro.core import backend

        inst = scenario_metro_blockage(n=600, towns=3, seed=4)
        plain = power_law_metro(n=600, towns=3, seed=4)
        want = SectorInstance(
            positions=inst.positions.copy(), demands=inst.demands.copy(),
            profits=inst.profits.copy(), stations=inst.stations,
            constraints=inst.constraints,
        ).compile().constraint_masks()
        rows, matrices = [], []
        real_hypot, real_distances = np.hypot, backend.station_distances
        monkeypatch.setattr(np, "hypot", lambda x, *a, **k: (
            rows.append(np.shape(x)) or real_hypot(x, *a, **k)))
        monkeypatch.setattr(backend, "station_distances", lambda i: (
            matrices.append(i) or real_distances(i)))
        partition_instance(inst)
        masks = inst.compile().constraint_masks()
        assert rows.count((inst.n,)) == inst.m
        assert len(matrices) == 1 and matrices[0] is inst
        for got, ref in zip(masks, want, strict=True):
            assert np.array_equal(got, ref)
        rows.clear()
        matrices.clear()
        partition_instance(plain)
        assert rows.count((plain.n,)) == plain.m
        assert matrices == []

    def test_counters_and_timer(self):
        registry = get_registry()
        registry.reset()
        partition_instance(_two_island_instance())
        snap = registry.snapshot()
        assert snap["engine.partition.parts"]["value"] == 2
        assert snap["engine.partition.unreachable"]["value"] == 1
        assert snap["phase.partition"]["count"] == 1


class TestMerge:
    def test_merge_remaps_and_verifies(self):
        inst = _two_island_instance()
        plan = partition_instance(inst)
        solutions = []
        for part in plan.parts:
            report = solve(SolveRequest(
                instance=part.sub, family="sector", algorithm="greedy",
                partition="never", use_cache=False, eps=0.5,
            ))
            solutions.append(report.solution)
        merged = merge_partial_solutions(plan, solutions)
        merged.verify(inst)
        assert merged.value(inst) == pytest.approx(
            sum(s.value(p.sub) for p, s in zip(plan.parts, solutions))
        )
        # The unreachable customer stays unassigned.
        assert merged.assignment[2] == -1

    def test_merge_rejects_wrong_count(self):
        plan = partition_instance(_two_island_instance())
        with pytest.raises(ValueError):
            merge_partial_solutions(plan, [])


class TestPlanPartition:
    def test_force_partitionable(self):
        assert plan_partition("force", True, 10, stations=1) == (
            "partitioned", False,
        )

    def test_force_falls_back_on_incapable_spec(self):
        assert plan_partition("force", False, 10**6, stations=9) == (
            "monolithic", True,
        )

    def test_never(self):
        assert plan_partition("never", True, 10**7, stations=9) == (
            "monolithic", False,
        )

    def test_auto_needs_size_stations_and_capability(self):
        big = AUTO_PARTITION_MIN_N
        assert plan_partition("auto", True, big, stations=4)[0] == "partitioned"
        assert plan_partition("auto", True, big - 1, stations=4)[0] == "monolithic"
        assert plan_partition("auto", True, big, stations=1)[0] == "monolithic"
        assert plan_partition("auto", False, big, stations=4)[0] == "monolithic"

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            plan_partition("sometimes", True, 10)

    def test_registry_partitionable_column(self):
        assert set(PARTITIONABLE) == {"greedy", "greedy+ls", "independent"}
        assert not get_spec("sector", "exact").partitionable
        for spec in specs("angle"):
            assert not spec.partitionable


class TestEngineIntegration:
    def test_forced_partition_matches_monolithic(self):
        inst = power_law_metro(n=3000, towns=4, seed=0)
        mono = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="never", use_cache=False, eps=0.5,
        ))
        part = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="force", use_cache=False, eps=0.5,
        ))
        assert part.extra["strategy"] == "partitioned"
        assert part.extra["partitions"] == 4
        assert part.extra["merge_bound"] >= 0.0
        assert mono.value <= part.value + part.extra["merge_bound"] + 1e-9
        # Dropping unreachable customers never changes what greedy can
        # serve, so the strategies agree exactly on this family.
        assert mono.value == pytest.approx(part.value)
        part.solution.verify(inst)

    def test_partitioned_solution_feasible_and_certified(self):
        inst = power_law_metro(n=1500, towns=2, seed=3)
        report = solve(SolveRequest(
            instance=inst, family="sector", algorithm="independent",
            partition="force", use_cache=False, eps=0.5,
        ))
        report.solution.verify(inst)
        assert report.value <= report.extra["partition_upper_bound"] + 1e-9

    def test_parent_verify_flags_wall_masked_pair(self):
        inst = scenario_metro_blockage(
            n=3000, towns=6, capacity_fraction=0.5, seed=0
        )
        merged = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="force", use_cache=False,
        )).solution
        # A fresh, never-compiled parent, as the partitioned path sees it.
        parent = SectorInstance(
            positions=inst.positions.copy(), demands=inst.demands.copy(),
            profits=inst.profits.copy(), stations=inst.stations,
            constraints=inst.constraints,
        )
        assert "_compiled" not in parent.__dict__
        merged.verify(parent)
        # A served customer within reach of a station the wall hides it
        # from, moved onto that station's first antenna.
        (wall,) = [c for c in inst.constraints if isinstance(c, LosBlockage)]
        segments = np.asarray(wall.segments, dtype=np.float64)
        rs_all = station_distances(inst)
        served = merged.assignment >= 0
        for s_id, st in enumerate(inst.stations):
            hidden = served & (rs_all[s_id] <= st.max_radius) & los_blocked(
                *st.position, inst.positions, segments
            )
            if hidden.any():
                break
        i = int(np.flatnonzero(hidden)[0])
        g = next(g for g, s, _ in inst.antenna_table() if s == s_id)
        assignment = merged.assignment.copy()
        assignment[i] = g
        bad = SectorSolution(
            orientations=merged.orientations, assignment=assignment
        )
        with pytest.raises(
            FeasibilityError,
            match=f"customer {i} assigned to antenna {g} \\(station {s_id}\\) "
                  "but an eligibility constraint masks the pair out",
        ):
            bad.verify(parent)
        assert parent.compile()._stations == {}

    def test_partitioned_bypasses_result_cache(self):
        clear_caches()
        inst = power_law_metro(n=1500, towns=2, seed=4)
        request = SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="force", use_cache=True, eps=0.5,
        )
        first = solve(request)
        second = solve(request)
        assert not first.cached and not second.cached
        # The identical monolithic request must not see a partitioned
        # entry either: strategies answer differently, so the cache only
        # serves the monolithic path.
        mono = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="never", use_cache=True, eps=0.5,
        ))
        assert not mono.cached

    def test_strategy_counters(self):
        registry = get_registry()
        inst = power_law_metro(n=800, towns=2, seed=5)
        registry.reset()
        solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="force", use_cache=False, eps=0.5,
        ))
        solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="never", use_cache=False, eps=0.5,
        ))
        # The exact sector spec is not partitionable: an explicit force
        # must fall back to monolithic (tiny instance — it enumerates).
        solve(SolveRequest(
            instance=_two_island_instance(), family="sector",
            algorithm="exact", partition="force", use_cache=False, eps=0.5,
        ))
        snap = registry.snapshot()
        assert snap["engine.partition.partitioned"]["value"] == 1
        # The partitioned solve's two per-part child solves re-enter the
        # seam with partition="never", so they count as monolithic too:
        # 2 children + the explicit "never" solve + the exact fallback.
        assert snap["engine.partition.monolithic"]["value"] == 4
        assert snap["engine.partition.fallback"]["value"] == 1

    def test_force_on_angle_family_falls_back(self):
        from repro.model.generators import uniform_angles

        inst = uniform_angles(n=12, k=2, seed=0)
        report = solve(SolveRequest(
            instance=inst, family="angle", algorithm="greedy",
            partition="force", use_cache=False, eps=0.5,
        ))
        assert report.error is None
        assert report.extra.get("strategy") != "partitioned"


class TestMergeBoundProperty:
    """``V_mono <= V_part + merge_bound`` across all partitionable specs."""

    @SLOW
    @given(
        algorithm=st.sampled_from(PARTITIONABLE),
        towns=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=30, max_value=120),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_certified_merge_bound(self, algorithm, towns, n, seed):
        inst = power_law_metro(n=n, towns=towns, seed=seed)
        mono = solve(SolveRequest(
            instance=inst, family="sector", algorithm=algorithm,
            partition="never", use_cache=False, eps=0.5,
        ))
        part = solve(SolveRequest(
            instance=inst, family="sector", algorithm=algorithm,
            partition="force", use_cache=False, eps=0.5,
        ))
        bound = part.extra["merge_bound"]
        assert bound >= 0.0
        assert mono.value <= part.value + bound + 1e-9
        part.solution.verify(inst)

    @SLOW
    @given(
        algorithm=st.sampled_from(PARTITIONABLE),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_single_partition_degenerate(self, algorithm, seed):
        # One town -> one reach component: partitioned solve == monolithic
        # on the same sub-problem, so the values agree exactly.
        inst = power_law_metro(n=80, towns=1, seed=seed)
        mono = solve(SolveRequest(
            instance=inst, family="sector", algorithm=algorithm,
            partition="never", use_cache=False, eps=0.5,
        ))
        part = solve(SolveRequest(
            instance=inst, family="sector", algorithm=algorithm,
            partition="force", use_cache=False, eps=0.5,
        ))
        assert part.extra["partitions"] == 1
        assert part.value == pytest.approx(mono.value)


class TestScale:
    @pytest.mark.slow
    def test_partitioned_matches_monolithic_at_scale(self):
        # n >= 1e5: excluded from tier-1 (pyproject deselects `slow`);
        # scripts/smoke.sh runs this one case explicitly.
        inst = power_law_metro(n=100_000, towns=8, seed=0)
        mono = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="never", use_cache=False, eps=0.5,
        ))
        part = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            partition="auto", use_cache=False, eps=0.5,
        ))
        assert part.extra["strategy"] == "partitioned"
        assert part.extra["partitions"] == 8
        assert mono.value <= part.value + part.extra["merge_bound"] + 1e-9
        assert mono.value == pytest.approx(part.value)
