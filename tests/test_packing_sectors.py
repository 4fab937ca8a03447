"""Tests for the 2-D sector pipeline (repro.packing.sectors)."""

import math

import numpy as np
import pytest

from repro.engine import SolveRequest, clear_caches, solve
from repro.geometry.angles import TWO_PI
from repro.knapsack import get_solver
from repro.model import generators as gen
from repro.model.antenna import AntennaSpec
from repro.model.instance import SectorInstance, Station
from repro.obs.bench import _upper_bound
from repro.packing.sectors import (
    sector_covered_matrix,
    solve_sector_greedy,
    solve_sector_independent,
    solve_sector_splittable,
)

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")


def one_station(radius=5.0, k=2, rho=math.pi / 2, capacity=4.0):
    return Station(
        position=(0.0, 0.0),
        antennas=tuple(
            AntennaSpec(rho=rho, capacity=capacity, radius=radius) for _ in range(k)
        ),
    )


class TestCoveredMatrix:
    def test_angle_and_radius(self):
        st = one_station(radius=2.0, k=1, rho=math.pi / 2)
        inst = SectorInstance(
            positions=np.array([[1.0, 1.0], [-1.0, 1.0], [3.0, 0.0]]),
            demands=np.ones(3),
            stations=(st,),
        )
        m = sector_covered_matrix(inst, [0.0])
        assert m[:, 0].tolist() == [True, False, False]

    def test_shape_validation(self):
        inst = gen.uniform_disk(n=5, seed=0)
        with pytest.raises(ValueError):
            sector_covered_matrix(inst, [0.0, 0.0, 0.0, 0.0])


class TestSectorGreedy:
    @pytest.mark.parametrize("family,kwargs", [
        ("disk", {}),
        ("towns", {}),
        ("grid", {"grid": 1}),
    ])
    def test_families_feasible(self, family, kwargs):
        inst = gen.SECTOR_FAMILIES[family](seed=1, **kwargs)
        sol = solve_sector_greedy(inst, GREEDY)
        sol.verify(inst)
        assert sol.value(inst) > 0

    def test_adaptive_vs_plain_both_feasible(self):
        inst = gen.clustered_towns(n=50, seed=2)
        a = solve_sector_greedy(inst, GREEDY, adaptive=True)
        b = solve_sector_greedy(inst, GREEDY, adaptive=False)
        a.verify(inst)
        b.verify(inst)

    def test_out_of_range_customers_unserved(self):
        st = one_station(radius=1.0, k=1, rho=TWO_PI, capacity=100.0)
        inst = SectorInstance(
            positions=np.array([[0.5, 0.0], [10.0, 0.0]]),
            demands=np.array([1.0, 1.0]),
            stations=(st,),
        )
        sol = solve_sector_greedy(inst, EXACT)
        assert sol.assignment[1] == -1
        assert sol.value(inst) == 1.0

    def test_capacity_respected_per_antenna(self):
        st = one_station(radius=5.0, k=1, rho=TWO_PI, capacity=2.5)
        inst = SectorInstance(
            positions=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
            demands=np.array([1.0, 1.0, 1.0]),
            stations=(st,),
        )
        sol = solve_sector_greedy(inst, EXACT)
        sol.verify(inst)
        assert sol.value(inst) == pytest.approx(2.0)

    def test_splittable_certifies_greedy(self):
        inst = gen.grid_city(n=60, grid=2, seed=3)
        sol = solve_sector_greedy(inst, EXACT)
        _, ub = solve_sector_splittable(inst, sol.orientations)
        assert sol.value(inst) <= ub + 1e-6
        # greedy with exact oracle is a 1/2-approx of the optimum *at its own
        # orientations*, which the splittable value upper-bounds
        assert sol.value(inst) >= 0.5 * ub - 1e-6 or sol.value(inst) > 0


class TestUpperBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("family", ["towns", "metro", "scenario"])
    def test_poly_solvers_never_beat_upper_bound(self, family, seed):
        # The capacity/density bound perfbench's quality_ratio divides by
        # must be sound for every polynomial sector solver.
        inst = gen.SECTOR_FAMILIES[family](n=60, seed=seed)
        ub = _upper_bound(inst)
        for algorithm in ("greedy", "independent"):
            clear_caches()
            report = solve(SolveRequest(
                instance=inst, family="sector", algorithm=algorithm,
                eps=0.5, use_cache=False,
            ))
            assert 0.0 < report.value <= ub + 1e-9


class TestSectorIndependent:
    def test_feasible(self):
        inst = gen.clustered_towns(n=60, seed=4)
        sol = solve_sector_independent(inst, GREEDY)
        sol.verify(inst)

    def test_never_beats_greedy_badly(self):
        # independent drops cross-station arbitration; greedy should win or tie
        inst = gen.grid_city(n=80, grid=2, seed=5)
        indep = solve_sector_independent(inst, EXACT).value(inst)
        greedy = solve_sector_greedy(inst, EXACT).value(inst)
        assert greedy >= indep * 0.8 - 1e-9  # greedy can rarely lose a bit

    def test_single_station_matches_multi_greedy_shape(self):
        inst = gen.uniform_disk(n=40, k=2, seed=6)
        sol = solve_sector_independent(inst, EXACT)
        sol.verify(inst)
        assert sol.value(inst) > 0


class TestSectorSplittable:
    def test_profit_demand_flow_path(self):
        inst = gen.uniform_disk(n=30, k=2, seed=7)
        ori = np.zeros(inst.total_antennas)
        frac, val = solve_sector_splittable(inst, ori)
        assert frac.shape == (inst.n, inst.total_antennas)
        assert (frac >= 0).all() and (frac <= 1 + 1e-9).all()
        loads = (inst.demands[:, None] * frac).sum(axis=0)
        caps = [spec.capacity for _, _, spec in inst.antenna_table()]
        assert (loads <= np.asarray(caps) * (1 + 1e-6)).all()

    def test_general_profit_lp_path(self):
        rng = np.random.default_rng(8)
        st = one_station(radius=5.0, k=1, rho=TWO_PI, capacity=3.0)
        inst = SectorInstance(
            positions=rng.uniform(-2, 2, size=(6, 2)),
            demands=rng.uniform(0.5, 1.5, 6),
            profits=rng.uniform(1.0, 5.0, 6),
            stations=(st,),
        )
        frac, val = solve_sector_splittable(inst, np.zeros(1))
        assert val > 0
        assert (inst.demands * frac[:, 0]).sum() <= 3.0 * (1 + 1e-6)

    def test_upper_bounds_integral(self):
        inst = gen.clustered_towns(n=40, seed=9)
        sol = solve_sector_greedy(inst, EXACT)
        _, ub = solve_sector_splittable(inst, sol.orientations)
        assert ub >= sol.value(inst) - 1e-6

    def test_empty_orientation_mismatch(self):
        inst = gen.uniform_disk(n=5, seed=0)
        with pytest.raises(ValueError):
            solve_sector_splittable(inst, np.zeros(99))
