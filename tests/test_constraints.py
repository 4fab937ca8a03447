"""The pluggable constraint pipeline: masks, kernels, threading, exactness.

The contract under test (``docs/SCENARIOS.md``): a constraint compiles to
one boolean mask per (station, customer) pair; composition is a plain AND;
the scalar path is the oracle and the vectorized kernels reproduce it
bit-for-bit; the compiled core folds the composed mask into the
per-antenna eligibility triple once, so every solver, the partitioner and
the online delta layer honor constraints without private recomputation.
Also pinned here: the no-constraints path stays bit-identical to the
pre-pipeline code (the eligibility masks *are* the memoized fit-mask
objects), wire round-trips, fingerprint coverage, partition exactness
under blockage, and constraint masks of delta-session generations.  A
``slow`` timing gate keeps composition under 10% of the unconstrained
compile at n = 6e4.
"""

import math
import time

import numpy as np
import pytest

from repro.core.backend import (
    los_blocked,
    station_distances,
    topk_station_mask,
)
from repro.core.compiled import CompiledSectorInstance
from repro.engine import SolveRequest, clear_caches, solve
from repro.engine.cache import fingerprint
from repro.engine.partition import partition_instance
from repro.geometry.points import relative_polar
from repro.model.antenna import AntennaSpec
from repro.model.constraints import (
    CONSTRAINT_KINDS,
    LosBlockage,
    MaxAssignments,
    Reach,
    _pair_blocked,
    _topk_stations,
    compose_station_masks,
    constraint_from_dict,
    constraint_to_dict,
    constraints_from_wire,
    nontrivial_constraints,
)
from repro.model.generators import SECTOR_FAMILIES, power_law_metro, scenario_metro_blockage
from repro.model.instance import InvalidInstanceError, SectorInstance, Station
from repro.model.serialization import (
    sector_instance_from_dict,
    sector_instance_to_dict,
)
from repro.model.solution import FeasibilityError
from repro.obs import get_registry
from repro.online.delta import (
    AddCustomer,
    DeltaCompiledInstance,
    RemoveCustomer,
    UpdateDemand,
)


def _two_station_instance(positions, demands=None, constraints=()):
    """Two stations 10 apart, radius 5 each: disjoint reach disks."""
    stations = (
        Station(position=(0.0, 0.0),
                antennas=(AntennaSpec(rho=math.pi, capacity=100.0, radius=5.0),)),
        Station(position=(10.0, 0.0),
                antennas=(AntennaSpec(rho=math.pi, capacity=100.0, radius=5.0),)),
    )
    positions = np.asarray(positions, dtype=np.float64)
    if demands is None:
        demands = np.ones(positions.shape[0])
    return SectorInstance(
        positions=positions,
        demands=np.asarray(demands, dtype=np.float64),
        stations=stations,
        constraints=constraints,
    )


def _overlapping_station_instance(positions, demands=None, constraints=()):
    """Three stations close enough that every customer reaches all three."""
    stations = tuple(
        Station(position=(float(x), 0.0),
                antennas=(AntennaSpec(rho=math.pi, capacity=100.0, radius=8.0),))
        for x in (0.0, 1.0, 2.0)
    )
    positions = np.asarray(positions, dtype=np.float64)
    if demands is None:
        demands = np.ones(positions.shape[0])
    return SectorInstance(
        positions=positions,
        demands=np.asarray(demands, dtype=np.float64),
        stations=stations,
        constraints=constraints,
    )


class TestWireGrammar:
    def test_round_trip_each_kind(self):
        specs = (
            Reach(),
            LosBlockage(segments=((0.0, -1.0, 0.0, 1.0), (2.0, 2.0, 3.0, 3.0))),
            MaxAssignments(limit=2),
        )
        for spec in specs:
            assert constraint_from_dict(constraint_to_dict(spec)) == spec

    def test_instance_wire_round_trip_preserves_constraints(self):
        inst = _two_station_instance(
            [[1.0, 0.0], [9.0, 0.0]],
            constraints=(LosBlockage(segments=((0.5, -1.0, 0.5, 1.0),)),
                         MaxAssignments(limit=1)),
        )
        revived = sector_instance_from_dict(sector_instance_to_dict(inst))
        assert revived.constraints == inst.constraints
        assert fingerprint(revived) == fingerprint(inst)

    def test_unconstrained_wire_dict_has_no_constraints_key(self):
        inst = _two_station_instance([[1.0, 0.0]])
        assert "constraints" not in sector_instance_to_dict(inst)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInstanceError):
            constraint_from_dict({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidInstanceError):
            constraint_from_dict({"kind": "reach", "strength": 3})

    def test_malformed_segment_rejected(self):
        with pytest.raises(InvalidInstanceError):
            LosBlockage(segments=((0.0, 1.0, 2.0),))
        with pytest.raises(InvalidInstanceError):
            LosBlockage(segments=((0.0, 1.0, float("nan"), 2.0),))

    def test_bad_limit_rejected(self):
        with pytest.raises(InvalidInstanceError):
            MaxAssignments(limit=0)

    def test_wire_list_must_be_a_list(self):
        with pytest.raises(InvalidInstanceError):
            constraints_from_wire({"kind": "reach"})

    def test_non_constraint_entry_rejected_by_instance(self):
        with pytest.raises(InvalidInstanceError):
            _two_station_instance([[1.0, 0.0]], constraints=("reach",))

    def test_every_registered_kind_serializes(self):
        for kind, cls in CONSTRAINT_KINDS.items():
            assert constraint_to_dict(cls())["kind"] == kind


class TestLosGeometry:
    def test_wall_blocks_crossing_pair(self):
        # Wall at x=0.5 between station 0 at origin and a customer at x=1.
        inst = _two_station_instance(
            [[1.0, 0.0], [9.0, 0.0]],
            constraints=(LosBlockage(segments=((0.5, -1.0, 0.5, 1.0),)),),
        )
        masks = inst.compile().constraint_masks()
        assert not masks[0][0]  # blocked pair
        assert masks[1][1]      # untouched pair

    def test_touching_endpoint_does_not_block(self):
        # Wall endpoint exactly on the sight line: strict test, no block.
        inst = _two_station_instance(
            [[1.0, 0.0]],
            constraints=(LosBlockage(segments=((0.5, 0.0, 0.5, 1.0),)),),
        )
        masks = inst.compile().constraint_masks()
        assert masks is None or masks[0][0]

    def test_collinear_overlap_does_not_block(self):
        inst = _two_station_instance(
            [[1.0, 0.0]],
            constraints=(LosBlockage(segments=((0.25, 0.0, 0.75, 0.0),)),),
        )
        masks = inst.compile().constraint_masks()
        assert masks is None or masks[0][0]

    def test_out_of_reach_pair_left_unmasked(self):
        # The wall crosses station 0's line to the far customer, but that
        # customer is outside station 0's radius: the mask stays True and
        # the fitting-radius mask alone excludes the pair.
        inst = _two_station_instance(
            [[9.0, 0.0]],
            constraints=(LosBlockage(segments=((0.5, -1.0, 0.5, 1.0),)),),
        )
        masks = inst.compile().constraint_masks()
        assert masks[0][0]
        elig, _, _ = inst.compile().eligibility()
        assert not elig[0][0]


class TestMaxAssignments:
    def test_keeps_only_nearest_limit(self):
        inst = _overlapping_station_instance(
            [[0.9, 0.0]], constraints=(MaxAssignments(limit=2),)
        )
        masks = inst.compile().constraint_masks()
        # Distances to stations at x=0,1,2 are 0.9, 0.1, 1.1: keep 1 and 0.
        assert masks[0][0] and masks[1][0] and not masks[2][0]

    def test_tie_breaks_by_station_id(self):
        inst = _overlapping_station_instance(
            [[1.0, 0.5]], constraints=(MaxAssignments(limit=1),)
        )
        masks = inst.compile().constraint_masks()
        # Stations 0 and 2 tie at distance hypot(1, .5); station 1 is
        # nearest.  With limit=1 only station 1 survives.
        assert not masks[0][0] and masks[1][0] and not masks[2][0]

    def test_all_pass_when_stations_at_most_limit(self):
        inst = _two_station_instance(
            [[1.0, 0.0]], constraints=(MaxAssignments(limit=2),)
        )
        assert inst.compile().constraint_masks() is None

    def test_ranking_restricted_to_reaching_stations(self):
        # The nearest station by raw distance may not reach; ranking must
        # skip it.  Station 0 has radius 5, so a customer at x=6 is only
        # reached by station 1 (at x=10) — that one must survive.
        inst = _two_station_instance(
            [[6.0, 0.0]], constraints=(MaxAssignments(limit=1),)
        )
        masks = inst.compile().constraint_masks()
        assert masks[1][0]


class TestKernelOracleIdentity:
    def test_los_blocked_matches_pair_blocked(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 40))
            segs = rng.uniform(-5.0, 5.0, size=(k, 4))
            pos = rng.uniform(-5.0, 5.0, size=(n, 2))
            sx, sy = (float(v) for v in rng.uniform(-5.0, 5.0, size=2))
            vec = los_blocked(sx, sy, pos, segs)
            ref = np.array([
                _pair_blocked(sx, sy, float(p[0]), float(p[1]),
                              [tuple(s) for s in segs])
                for p in pos
            ])
            assert np.array_equal(vec, ref)

    def test_topk_kernel_matches_scalar_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, 50))
            limit = int(rng.integers(1, m + 1))
            rs_all = rng.uniform(0.0, 10.0, size=(m, n))
            if n > 3:  # exact distance ties exercise the id tie-break
                rs_all[:, 1] = rs_all[:, 0]
                rs_all[m // 2, 2] = rs_all[0, 2]
            radii = rng.uniform(2.0, 9.0, size=m)
            mask = topk_station_mask(rs_all, radii, limit)
            for i in range(n):
                keep = _topk_stations(
                    [rs_all[s, i] for s in range(m)], radii, limit
                )
                assert set(np.flatnonzero(mask[:, i])) == keep

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compose_scalar_equals_numpy_on_scenarios(self, seed):
        inst = scenario_metro_blockage(n=600, towns=4, seed=seed)
        compiled = CompiledSectorInstance(inst)
        compiled.ensure_stations()
        m = len(inst.stations)
        rs = [compiled.station(s).rs for s in range(m)]
        scalar = compose_station_masks(inst, rs, backend="python")
        vector = compose_station_masks(inst, rs, backend="numpy")
        assert scalar is not None and vector is not None
        for s in range(m):
            assert np.array_equal(scalar[s], vector[s])


class TestCompiledIntegration:
    def test_unconstrained_masks_are_the_memoized_fit_masks(self):
        # The pre-pipeline fast path: with no constraints, eligibility
        # returns the fit-mask objects themselves — zero composition work
        # and bit-identity with the pre-refactor code by construction.
        inst = _two_station_instance([[1.0, 0.0], [9.0, 0.0]])
        compiled = inst.compile()
        assert compiled.constraint_masks() is None
        masks, _, _ = compiled.eligibility()
        for g, s_id, spec in inst.antenna_table():
            assert masks[g] is compiled.station(s_id).fit_mask(spec.radius)

    def test_reach_only_constraints_compose_to_none(self):
        inst = _two_station_instance(
            [[1.0, 0.0]], constraints=(Reach(),)
        )
        assert inst.compile().constraint_masks() is None
        assert nontrivial_constraints(inst.constraints) == ()

    @pytest.mark.parametrize("algorithm", ["greedy", "independent", "greedy+ls"])
    def test_reach_constraint_is_value_identical_to_unconstrained(
        self, algorithm
    ):
        rng = np.random.default_rng(3)
        positions = np.vstack([
            rng.uniform(-4.0, 4.0, size=(12, 2)),
            rng.uniform(6.0, 14.0, size=(12, 2)),
        ])
        demands = rng.uniform(0.5, 2.0, size=24)
        bare = _two_station_instance(positions, demands)
        declared = _two_station_instance(
            positions, demands, constraints=(Reach(),)
        )
        values = []
        for inst in (bare, declared):
            clear_caches()
            report = solve(SolveRequest(
                instance=inst, family="sector", algorithm=algorithm,
                eps=0.5, use_cache=False,
            ))
            values.append(report.value)
        assert values[0] == values[1]

    @pytest.mark.parametrize("partition", ["never", "force"])
    def test_constrained_solves_respect_every_mask(self, partition):
        # Served pairs are checked against the scalar reference
        # composition, not the compiled memo that verify() itself reads
        # (that one comes from the vectorized kernels).
        inst = scenario_metro_blockage(n=400, towns=4, seed=2)
        rs = [relative_polar(inst.positions, np.asarray(st.position))[1]
              for st in inst.stations]
        masks = compose_station_masks(inst, rs, backend="python")
        assert masks is not None
        for algorithm in ("greedy", "independent"):
            clear_caches()
            report = solve(SolveRequest(
                instance=inst, family="sector", algorithm=algorithm,
                eps=0.1, partition=partition, use_cache=False,
            ))
            solution = report.solution.verify(inst)
            for g, s_id, _spec in inst.antenna_table():
                members = np.flatnonzero(solution.assignment == g)
                assert masks[s_id][members].all()

    def test_violations_flag_masked_assignment(self):
        inst = _two_station_instance(
            [[1.0, 0.0]],
            constraints=(LosBlockage(segments=((0.5, -1.0, 0.5, 1.0),)),),
        )
        clear_caches()
        report = solve(SolveRequest(
            instance=inst, family="sector", algorithm="greedy",
            eps=0.5, use_cache=False,
        ))
        bad = report.solution
        object.__setattr__(
            bad, "assignment", np.zeros(1, dtype=bad.assignment.dtype)
        )
        # Antenna 0 (station 0) cannot see customer 0 through the wall.
        problems = bad.violations(inst)
        assert any("constraint" in p for p in problems)
        with pytest.raises(FeasibilityError):
            bad.verify(inst)

    def test_fingerprint_covers_constraints(self):
        positions = [[1.0, 0.0], [9.0, 0.0]]
        bare = _two_station_instance(positions)
        walled = _two_station_instance(
            positions,
            constraints=(LosBlockage(segments=((0.5, -1.0, 0.5, 1.0),)),),
        )
        other_wall = _two_station_instance(
            positions,
            constraints=(LosBlockage(segments=((0.6, -1.0, 0.6, 1.0),)),),
        )
        capped = _two_station_instance(
            positions, constraints=(MaxAssignments(limit=1),)
        )
        prints = {
            fingerprint(bare), fingerprint(walled),
            fingerprint(other_wall), fingerprint(capped),
        }
        assert len(prints) == 4


class TestPartitionExactness:
    def test_parts_carry_constraints(self):
        inst = scenario_metro_blockage(n=300, towns=3, seed=4)
        plan = partition_instance(inst)
        assert len(plan.parts) >= 2
        for part in plan.parts:
            assert part.sub.constraints == inst.constraints

    def test_fully_blocked_customer_counts_unreachable(self):
        # Within raw reach of the only station, but the wall occludes it:
        # effective eligibility is empty, so the partitioner must not
        # assign it to any component.
        station = Station(
            position=(0.0, 0.0),
            antennas=(AntennaSpec(rho=math.pi, capacity=10.0, radius=5.0),),
        )
        inst = SectorInstance(
            positions=np.array([[1.0, 0.0], [0.0, 1.0]]),
            demands=np.ones(2),
            stations=(station,),
            constraints=(LosBlockage(segments=((0.5, -0.5, 0.5, 0.5),)),),
        )
        plan = partition_instance(inst)
        assert plan.unreachable == 1

    @pytest.mark.parametrize("algorithm", ["greedy", "independent"])
    def test_partitioned_value_matches_monolithic_under_constraints(
        self, algorithm
    ):
        for seed in (0, 5):
            inst = scenario_metro_blockage(n=400, towns=4, seed=seed)
            values = []
            for partition in ("never", "force"):
                clear_caches()
                report = solve(SolveRequest(
                    instance=inst, family="sector", algorithm=algorithm,
                    eps=0.1, partition=partition, use_cache=False,
                ))
                values.append(report.value)
            # Towns are farther apart than any reach: the decomposition
            # is exact, so partitioned == monolithic to the bit.
            assert values[0] == values[1]


class TestDeltaConstraints:
    def test_patched_masks_bit_identical_to_recompile(self):
        inst = scenario_metro_blockage(n=150, towns=3, seed=6)
        rng = np.random.default_rng(17)
        delta = DeltaCompiledInstance(inst)
        positions = inst.positions.copy()
        demands = inst.demands.copy()
        profits = inst.profits.copy()
        for i in range(15):
            if i % 3 == 0:
                x = float(rng.uniform(-20.0, 60.0))
                y = float(rng.uniform(-20.0, 60.0))
                d = float(rng.uniform(0.5, 2.0))
                delta.apply(AddCustomer(demand=d, position=(x, y)))
                positions = np.vstack([positions, [x, y]])
                demands = np.append(demands, d)
                profits = np.append(profits, d)
            elif i % 3 == 1:
                j = int(rng.integers(0, positions.shape[0]))
                delta.apply(RemoveCustomer(index=j))
                positions = np.delete(positions, j, axis=0)
                demands = np.delete(demands, j)
                profits = np.delete(profits, j)
            else:
                j = int(rng.integers(0, positions.shape[0]))
                v = float(rng.uniform(0.5, 2.0))
                delta.apply(UpdateDemand(index=j, demand=v, profit=v))
                demands = demands.copy()
                demands[j] = v
                profits = profits.copy()
                profits[j] = v
            ref = SectorInstance(
                positions=positions, demands=demands, profits=profits,
                stations=inst.stations, constraints=inst.constraints,
            )
            fresh = ref.compile()
            view = delta.compiled
            patched = view.constraint_masks()
            recompiled = fresh.constraint_masks()
            assert (patched is None) == (recompiled is None)
            if patched is not None:
                for s in range(len(inst.stations)):
                    assert np.array_equal(patched[s], recompiled[s]), (i, s)
                    assert np.array_equal(
                        view.station(s).rs, station_distances(ref)[s]
                    ), (i, s)
            for a, b in zip(view.eligibility(), fresh.eligibility()):
                for ga, gb in zip(a, b):
                    assert np.array_equal(ga, gb)
            assert delta.instance.constraints == inst.constraints
            assert fingerprint(delta.instance) == fingerprint(ref)


class TestScenarioGenerator:
    def test_registered_in_family_table(self):
        assert SECTOR_FAMILIES["scenario"] is scenario_metro_blockage

    def test_deterministic_per_seed(self):
        a = scenario_metro_blockage(n=200, seed=9)
        b = scenario_metro_blockage(n=200, seed=9)
        c = scenario_metro_blockage(n=200, seed=10)
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(c)

    def test_base_geometry_matches_power_law_metro(self):
        # The scenario draws its customers through power_law_metro with
        # the shared generator before any segment draws, so the base
        # geometry is exactly the unconstrained family's.
        scenario = scenario_metro_blockage(n=300, towns=4, seed=11)
        base = power_law_metro(n=300, towns=4, stations_per_town=2, seed=11)
        assert np.array_equal(scenario.positions, base.positions)
        assert np.array_equal(scenario.demands, base.demands)

    def test_carries_both_constraint_kinds(self):
        inst = scenario_metro_blockage(n=100, seed=0)
        kinds = {type(c) for c in inst.constraints}
        assert LosBlockage in kinds and MaxAssignments in kinds

    def test_masks_nontrivial(self):
        inst = scenario_metro_blockage(n=400, towns=4, seed=1)
        masks = inst.compile().constraint_masks()
        assert masks is not None
        assert any(not mask.all() for mask in masks)


@pytest.mark.slow
class TestComposeOverheadGate:
    def test_compose_under_10pct_of_unconstrained_compile(self):
        # n = 6e4: below ~5e4 fixed per-call overheads dominate both timers
        # and the ratio is noise.  Both sides best-of-3.
        big = scenario_metro_blockage(n=60_000, towns=12, seed=0)
        plain = SectorInstance(
            positions=big.positions, demands=big.demands,
            profits=big.profits, stations=big.stations,
        )
        compile_s = constraints_s = float("inf")
        registry = get_registry()
        for _ in range(3):
            t0 = time.perf_counter()
            CompiledSectorInstance(plain).eligibility()
            compile_s = min(compile_s, time.perf_counter() - t0)
            registry.reset()
            CompiledSectorInstance(big).eligibility()
            constraints_s = min(
                constraints_s,
                registry.snapshot()["phase.sector.constraints"]["total_s"],
            )
        ratio = constraints_s / compile_s
        assert ratio < 0.10, (
            f"constraint composition took {ratio:.1%} of the unconstrained "
            f"compile ({constraints_s * 1e3:.2f} ms vs {compile_s * 1e3:.2f} ms)"
        )
