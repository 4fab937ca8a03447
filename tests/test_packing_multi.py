"""Tests for multi-antenna solvers: greedy and the non-overlapping DP."""

import numpy as np
import pytest

from repro.geometry.angles import TWO_PI
from repro.knapsack import get_solver
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.model import generators as gen
from repro.packing.exact import solve_exact_angle
from repro.packing.multi import solve_greedy_multi, solve_non_overlapping_dp
from tests.helpers import brute_force_angle_opt

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")


def random_instance(rng, n=7, k=2, uniform=True):
    thetas = rng.uniform(0, TWO_PI, n)
    demands = rng.uniform(0.3, 2.0, n)
    cap = 0.4 * demands.sum()
    if uniform:
        rho = float(rng.uniform(0.3, 2.0))
        ant = tuple(AntennaSpec(rho=rho, capacity=cap) for _ in range(k))
    else:
        ant = tuple(
            AntennaSpec(rho=rng.uniform(0.3, 2.0), capacity=cap * rng.uniform(0.5, 1.5))
            for _ in range(k)
        )
    return AngleInstance(thetas=thetas, demands=demands, antennas=ant)


class TestGreedyMulti:
    def test_feasible_and_valued(self):
        inst = gen.uniform_angles(n=40, k=3, seed=0)
        sol = solve_greedy_multi(inst, GREEDY)
        sol.verify(inst)
        assert sol.value(inst) > 0

    def test_adaptive_at_least_first_round(self):
        inst = gen.clustered_angles(n=40, k=3, seed=1)
        plain = solve_greedy_multi(inst, EXACT)
        adaptive = solve_greedy_multi(inst, EXACT, adaptive=True)
        plain.verify(inst)
        adaptive.verify(inst)
        assert adaptive.value(inst) > 0
        assert plain.value(inst) > 0

    def test_antenna_order_validation(self):
        inst = gen.uniform_angles(n=10, k=2, seed=0)
        with pytest.raises(ValueError):
            solve_greedy_multi(inst, GREEDY, antenna_order=[0, 0])

    def test_explicit_order_respected(self):
        inst = gen.uniform_angles(n=10, k=2, seed=0)
        sol = solve_greedy_multi(inst, EXACT, antenna_order=[1, 0])
        sol.verify(inst)

    @pytest.mark.parametrize("seed", range(8))
    def test_half_guarantee_vs_exact(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=7, k=2)
        opt = solve_exact_angle(inst).value(inst)
        sol = solve_greedy_multi(inst, EXACT)
        sol.verify(inst)
        assert sol.value(inst) >= 0.5 * opt - 1e-9
        assert sol.value(inst) <= opt + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_oracle_third_guarantee(self, seed):
        # beta/(1+beta) with beta=1/2 -> 1/3
        rng = np.random.default_rng(100 + seed)
        inst = random_instance(rng, n=7, k=2, uniform=False)
        opt = solve_exact_angle(inst).value(inst)
        sol = solve_greedy_multi(inst, GREEDY)
        assert sol.value(inst) >= opt / 3.0 - 1e-9

    def test_empty_instance(self):
        inst = AngleInstance(
            thetas=np.empty(0),
            demands=np.empty(0),
            antennas=(AntennaSpec(rho=1.0, capacity=1.0),),
        )
        sol = solve_greedy_multi(inst, EXACT)
        assert sol.value(inst) == 0.0


class TestNonOverlappingDP:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exact_disjoint_uniform(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n=7, k=2)
        dp = solve_non_overlapping_dp(inst, EXACT)
        dp.verify(inst, require_disjoint=True)
        ref = solve_exact_angle(inst, require_disjoint=True).value(inst)
        assert dp.value(inst) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_heterogeneous_bitmask_path(self, seed):
        rng = np.random.default_rng(200 + seed)
        inst = random_instance(rng, n=6, k=2, uniform=False)
        dp = solve_non_overlapping_dp(inst, EXACT)
        dp.verify(inst, require_disjoint=True)
        ref = solve_exact_angle(inst, require_disjoint=True).value(inst)
        assert dp.value(inst) <= ref + 1e-9
        # bitmask DP over the heterogeneous grid is exact for k=2 stacking
        assert dp.value(inst) == pytest.approx(ref, abs=1e-9)

    def test_disjoint_at_most_general_opt(self):
        inst = gen.hotspot_angles(n=25, k=2, seed=3)
        dp = solve_non_overlapping_dp(inst, EXACT)
        greedy = solve_greedy_multi(inst, EXACT, adaptive=True)
        # on hotspot instances overlap usually helps, never hurts
        assert dp.value(inst) <= greedy.value(inst) + max(
            1e-9, 0.5 * greedy.value(inst)
        )

    def test_rejects_huge_k(self):
        inst = gen.uniform_angles(n=5, k=13, seed=0)
        with pytest.raises(ValueError):
            solve_non_overlapping_dp(inst, EXACT)

    def test_empty_instance(self):
        inst = AngleInstance(
            thetas=np.empty(0),
            demands=np.empty(0),
            antennas=(AntennaSpec(rho=1.0, capacity=1.0),),
        )
        sol = solve_non_overlapping_dp(inst, EXACT)
        assert sol.value(inst) == 0.0

    def test_single_antenna_dp_equals_single_rotation(self):
        inst = gen.uniform_angles(n=15, k=1, seed=4)
        from repro.packing.single import solve_single_antenna

        dp = solve_non_overlapping_dp(inst, EXACT)
        single = solve_single_antenna(inst, EXACT)
        assert dp.value(inst) == pytest.approx(single.value(inst), abs=1e-9)

    def test_wide_antennas_fallback(self):
        # k * rho > 2*pi: at most one wide arc can be active
        inst = AngleInstance(
            thetas=np.linspace(0, TWO_PI, 8, endpoint=False),
            demands=np.ones(8),
            antennas=tuple(
                AntennaSpec(rho=5.0, capacity=4.0) for _ in range(2)
            ),
        )
        sol = solve_non_overlapping_dp(inst, EXACT)
        sol.verify(inst, require_disjoint=True)
        assert sol.value(inst) == pytest.approx(4.0)


class TestBruteForceAgreement:
    """solve_exact_angle itself cross-checked against naive enumeration."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_vs_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        inst = random_instance(rng, n=5, k=2)
        fast = solve_exact_angle(inst).value(inst)
        ref = brute_force_angle_opt(inst)
        assert fast == pytest.approx(ref, abs=1e-9)
