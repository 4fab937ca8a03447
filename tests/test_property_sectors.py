"""Hypothesis property tests for the 2-D sector pipeline."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry.angles import TWO_PI
from repro.knapsack import get_solver
from repro.model.antenna import AntennaSpec
from repro.model.instance import SectorInstance, Station
from repro.packing.sectors import (
    improve_sector_solution,
    sector_covered_matrix,
    solve_sector_greedy,
    solve_sector_independent,
    solve_sector_splittable,
)

GREEDY = get_solver("greedy")

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def sector_instances(draw, max_n=12, max_stations=2):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_stations))
    coords = st.floats(min_value=-10.0, max_value=10.0)
    positions = np.array(
        [[draw(coords), draw(coords)] for _ in range(n)]
    )
    demands = np.array(
        [draw(st.floats(min_value=0.2, max_value=2.0)) for _ in range(n)]
    )
    stations = []
    for s in range(m):
        k = draw(st.integers(min_value=1, max_value=2))
        antennas = tuple(
            AntennaSpec(
                rho=draw(st.floats(min_value=0.3, max_value=TWO_PI)),
                capacity=draw(st.floats(min_value=0.5, max_value=5.0)),
                radius=draw(st.floats(min_value=2.0, max_value=15.0)),
            )
            for _ in range(k)
        )
        stations.append(
            Station(position=(draw(coords), draw(coords)), antennas=antennas)
        )
    return SectorInstance(
        positions=positions, demands=demands, stations=tuple(stations)
    )


class TestSectorProperties:
    @SLOW
    @given(sector_instances())
    def test_greedy_always_feasible(self, inst):
        sol = solve_sector_greedy(inst, GREEDY)
        assert sol.violations(inst) == []

    @SLOW
    @given(sector_instances())
    def test_baseline_always_feasible(self, inst):
        sol = solve_sector_independent(inst, GREEDY)
        assert sol.violations(inst) == []

    @SLOW
    @given(sector_instances())
    def test_local_search_monotone(self, inst):
        base = solve_sector_greedy(inst, GREEDY, adaptive=False)
        improved = improve_sector_solution(inst, base, GREEDY, max_rounds=2)
        assert improved.violations(inst) == []
        assert improved.value(inst) >= base.value(inst) - 1e-9

    @SLOW
    @given(sector_instances())
    def test_splittable_dominates_greedy(self, inst):
        sol = solve_sector_greedy(inst, GREEDY)
        _, ub = solve_sector_splittable(inst, sol.orientations)
        assert sol.value(inst) <= ub + 1e-6

    @SLOW
    @given(sector_instances())
    def test_covered_matrix_consistent_with_verifier(self, inst):
        """Assignment built directly from the coverage matrix verifies."""
        rng = np.random.default_rng(0)
        ori = rng.uniform(0, TWO_PI, inst.total_antennas)
        cover = sector_covered_matrix(inst, ori)
        # serve at most one cheapest-feasible customer per antenna
        from repro.model.solution import SectorSolution

        assignment = np.full(inst.n, -1, dtype=np.int64)
        caps = [spec.capacity for _, _, spec in inst.antenna_table()]
        for g in range(inst.total_antennas):
            eligible = np.flatnonzero(cover[:, g] & (assignment == -1))
            eligible = [i for i in eligible if inst.demands[i] <= caps[g]]
            if eligible:
                cheapest = min(eligible, key=lambda i: inst.demands[i])
                assignment[cheapest] = g
        sol = SectorSolution(orientations=ori, assignment=assignment)
        assert sol.violations(inst) == []

    @SLOW
    @given(sector_instances(max_stations=1))
    def test_station_angle_reduction_consistent(self, inst):
        """Customers in the reduced 1-D instance are exactly those within
        the station's minimum radius."""
        sub, idx = inst.station_angle_instance(0)
        _, rs = inst.station_polar(0)
        r_min = min(a.radius for a in inst.stations[0].antennas)
        expected = set(np.flatnonzero(rs <= r_min * (1 + 1e-12)).tolist())
        assert set(idx.tolist()) == expected
        assert sub.n == len(expected)
