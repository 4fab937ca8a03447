"""Tests for the unit-demand integral solver and mixed-radius stations."""

import numpy as np
import pytest

from repro.geometry.angles import TWO_PI
from repro.knapsack import get_solver
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.model import generators as gen
from repro.packing.exact import solve_exact_fixed_orientations
from repro.packing.flow import (
    solve_unit_demand_fixed,
    splittable_value,
)
from repro.packing.sectors import (
    improve_sector_solution,
    solve_sector_greedy,
    solve_sector_splittable,
)

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")


def unit_instance(n, k, seed, cap=4):
    rng = np.random.default_rng(seed)
    return AngleInstance(
        thetas=rng.uniform(0, TWO_PI, n),
        demands=np.ones(n),
        antennas=tuple(AntennaSpec(rho=2.0, capacity=float(cap)) for _ in range(k)),
    )


class TestUnitDemandFixed:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exact_bnb(self, seed):
        inst = unit_instance(12, 2, seed)
        rng = np.random.default_rng(seed)
        ori = rng.uniform(0, TWO_PI, 2)
        flow_sol = solve_unit_demand_fixed(inst, ori)
        flow_sol.verify(inst)
        ref = solve_exact_fixed_orientations(inst, ori).value(inst)
        assert flow_sol.value(inst) == pytest.approx(ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_integrality_gap_vanishes(self, seed):
        """For unit demands, splittable == unsplittable (E6 limit case)."""
        inst = unit_instance(15, 2, seed, cap=5)
        ori = np.array([0.0, 3.0])
        split = splittable_value(inst, ori)
        integral = solve_unit_demand_fixed(inst, ori).value(inst)
        assert integral == pytest.approx(split)

    def test_requires_unit_demands(self):
        rng = np.random.default_rng(0)
        inst = AngleInstance(
            thetas=rng.uniform(0, TWO_PI, 5),
            demands=rng.uniform(0.5, 2.0, 5),
            antennas=(AntennaSpec(rho=1.0, capacity=3.0),),
        )
        with pytest.raises(ValueError):
            solve_unit_demand_fixed(inst, [0.0])

    def test_requires_profit_equals_demand(self):
        inst = AngleInstance(
            thetas=np.array([0.1]),
            demands=np.ones(1),
            profits=np.array([5.0]),
            antennas=(AntennaSpec(rho=1.0, capacity=3.0),),
        )
        with pytest.raises(ValueError):
            solve_unit_demand_fixed(inst, [0.0])

    def test_empty(self):
        inst = AngleInstance(
            thetas=np.empty(0), demands=np.empty(0),
            antennas=(AntennaSpec(rho=1.0, capacity=3.0),),
        )
        sol = solve_unit_demand_fixed(inst, [0.0])
        assert sol.value(inst) == 0.0

    def test_fractional_capacity_floored(self):
        inst = unit_instance(5, 1, 0, cap=2)
        inst = inst.with_antennas((AntennaSpec(rho=TWO_PI, capacity=2.9),))
        sol = solve_unit_demand_fixed(inst, [0.0])
        sol.verify(inst)
        assert sol.value(inst) == pytest.approx(2.0)  # floor(2.9) = 2 units


class TestMacroMicroFamily:
    def test_generator_valid(self):
        inst = gen.macro_micro(n=50, seed=1)
        assert inst.total_antennas == 3
        radii = [spec.radius for _, _, spec in inst.antenna_table()]
        assert len(set(radii)) == 2  # genuinely mixed radii

    def test_deterministic(self):
        assert gen.macro_micro(seed=2) == gen.macro_micro(seed=2)

    def test_greedy_respects_per_antenna_radius(self):
        inst = gen.macro_micro(n=80, seed=3)
        sol = solve_sector_greedy(inst, GREEDY)
        sol.verify(inst)  # the verifier checks per-antenna radii
        # micro antennas never serve customers beyond their short radius
        _, rs = inst.station_polar(0)
        for g, _, spec in inst.antenna_table():
            members = np.flatnonzero(sol.assignment == g)
            if members.size:
                assert (rs[members] <= spec.radius * (1 + 1e-9)).all()

    def test_local_search_on_mixed_radii(self):
        inst = gen.macro_micro(n=60, seed=4)
        base = solve_sector_greedy(inst, GREEDY)
        improved = improve_sector_solution(inst, base, GREEDY)
        improved.verify(inst)
        assert improved.value(inst) >= base.value(inst) - 1e-9

    def test_splittable_bound_on_mixed_radii(self):
        inst = gen.macro_micro(n=60, seed=5)
        sol = solve_sector_greedy(inst, GREEDY)
        _, ub = solve_sector_splittable(inst, sol.orientations)
        assert sol.value(inst) <= ub + 1e-6

    def test_in_family_registry(self):
        assert "macro_micro" in gen.SECTOR_FAMILIES
