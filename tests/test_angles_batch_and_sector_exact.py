"""Tests for batch window membership and the single-station exact solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.angles import TWO_PI, angles_in_window, angles_in_windows
from repro.knapsack import get_solver
from repro.model.antenna import AntennaSpec
from repro.model.instance import SectorInstance, Station
from repro.model import generators as gen
from repro.packing.flow import covered_matrix
from repro.packing.sectors import (
    solve_exact_sector_single,
    solve_sector_greedy,
)

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")


class TestAnglesInWindows:
    @settings(max_examples=150)
    @given(
        st.lists(st.floats(min_value=0, max_value=TWO_PI - 1e-9), max_size=12),
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=TWO_PI - 1e-9),
                st.floats(min_value=0.0, max_value=TWO_PI),
            ),
            max_size=5,
        ),
    )
    def test_matches_scalar_predicate(self, thetas, windows):
        thetas = np.array(thetas)
        starts = np.array([s for s, _ in windows])
        widths = np.array([w for _, w in windows])
        got = angles_in_windows(thetas, starts, widths)
        assert got.shape == (thetas.size, starts.size)
        for j, (s, w) in enumerate(windows):
            expected = angles_in_window(thetas, s, w)
            assert (got[:, j] == expected).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            angles_in_windows(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_full_circle_column(self):
        got = angles_in_windows(
            np.array([0.0, 3.0]), np.array([1.0]), np.array([TWO_PI])
        )
        assert got.all()

    def test_covered_matrix_uses_batch_path(self):
        inst = gen.uniform_angles(n=25, k=3, seed=0)
        ori = np.array([0.0, 2.0, 4.0])
        m = covered_matrix(inst, ori)
        from repro.geometry.arcs import Arc

        for j in range(3):
            arc = Arc(float(ori[j]), inst.antennas[j].rho)
            assert (m[:, j] == arc.contains_angles(inst.thetas)).all()


class TestExactSectorSingle:
    def make(self, n=7, seed=0, radius=5.0, k=2):
        rng = np.random.default_rng(seed)
        r = radius * 1.2 * np.sqrt(rng.uniform(0, 1, n))
        t = rng.uniform(0, TWO_PI, n)
        positions = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        demands = rng.uniform(0.3, 1.5, n)
        st_ = Station(
            position=(0.0, 0.0),
            antennas=tuple(
                AntennaSpec(rho=1.5, capacity=0.4 * demands.sum(), radius=radius)
                for _ in range(k)
            ),
        )
        return SectorInstance(positions=positions, demands=demands, stations=(st_,))

    @pytest.mark.parametrize("seed", range(5))
    def test_dominates_greedy(self, seed):
        inst = self.make(seed=seed)
        opt = solve_exact_sector_single(inst)
        opt.verify(inst)
        greedy = solve_sector_greedy(inst, EXACT)
        assert opt.value(inst) >= greedy.value(inst) - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_certifies_greedy_half(self, seed):
        inst = self.make(seed=seed)
        opt = solve_exact_sector_single(inst).value(inst)
        greedy = solve_sector_greedy(inst, EXACT).value(inst)
        assert greedy >= 0.5 * opt - 1e-9

    def test_out_of_radius_never_served(self):
        inst = self.make(seed=1)
        sol = solve_exact_sector_single(inst)
        _, rs = inst.station_polar(0)
        served = sol.assignment >= 0
        assert (rs[served] <= 5.0 * (1 + 1e-9)).all()

    def test_disjoint_variant(self):
        inst = self.make(seed=2)
        sol = solve_exact_sector_single(inst, require_disjoint=True)
        sol.verify(inst)
        free = solve_exact_sector_single(inst)
        assert sol.value(inst) <= free.value(inst) + 1e-9

    def test_rejects_multi_station(self):
        inst = gen.grid_city(n=10, grid=2, seed=0)
        with pytest.raises(ValueError):
            solve_exact_sector_single(inst)

    def test_rejects_mixed_radii(self):
        inst = gen.macro_micro(n=10, seed=0)
        with pytest.raises(ValueError):
            solve_exact_sector_single(inst)


class TestExactSectorMultiStation:
    def make_two_stations(self, seed, n=8):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-6, 6, size=(n, 2))
        demands = rng.uniform(0.3, 1.2, n)
        st1 = Station((-3.0, 0.0), (AntennaSpec(rho=2.0, capacity=2.0, radius=5.0),))
        st2 = Station((3.0, 0.0), (AntennaSpec(rho=2.0, capacity=2.0, radius=5.0),))
        return SectorInstance(positions=positions, demands=demands, stations=(st1, st2))

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_single_station_reduction(self, seed):
        from repro.packing.sectors import solve_exact_sector

        inst = TestExactSectorSingle().make(seed=seed)
        a = solve_exact_sector(inst)
        a.verify(inst)
        b = solve_exact_sector_single(inst)
        assert a.value(inst) == pytest.approx(b.value(inst), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_certifies_greedy_on_two_stations(self, seed):
        from repro.packing.sectors import solve_exact_sector

        inst = self.make_two_stations(seed)
        opt = solve_exact_sector(inst)
        opt.verify(inst)
        greedy = solve_sector_greedy(inst, EXACT)
        assert greedy.value(inst) <= opt.value(inst) + 1e-9
        assert greedy.value(inst) >= 0.5 * opt.value(inst) - 1e-9

    def test_tuple_budget(self):
        from repro.packing.sectors import solve_exact_sector

        inst = gen.grid_city(n=60, grid=2, seed=0)
        with pytest.raises(RuntimeError):
            solve_exact_sector(inst, max_tuples=10)

    def test_empty_instance(self):
        from repro.packing.sectors import solve_exact_sector
        from repro.model.solution import SectorSolution

        st_ = Station((0, 0), (AntennaSpec(rho=1.0, capacity=1.0, radius=1.0),))
        inst = SectorInstance(
            positions=np.zeros((0, 2)), demands=np.zeros(0), stations=(st_,)
        )
        sol = solve_exact_sector(inst)
        assert isinstance(sol, SectorSolution)
        assert sol.value(inst) == 0.0
