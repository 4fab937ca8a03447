"""Tests for the knapsack engine.

Every solver is validated against an independent brute-force optimum on
random small instances, and each approximation guarantee is asserted as a
hard property (never merely observed).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.knapsack import (
    FractionalResult,
    KnapsackResult,
    get_solver,
    solve_branch_and_bound,
    solve_exact_auto,
    solve_exact_integer,
    solve_fptas,
    solve_fractional,
    solve_greedy,
)
from repro.knapsack.api import KNAPSACK_SOLVERS
from repro.knapsack.fractional import fractional_upper_bound
from repro.knapsack.greedy import solve_greedy_by_weight


def brute_force(weights, profits, capacity):
    """Reference optimum by subset enumeration (n <= ~16)."""
    n = len(weights)
    best = 0.0
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            wsum = sum(weights[i] for i in combo)
            if wsum <= capacity + 1e-12:
                best = max(best, sum(profits[i] for i in combo))
    return best


small_instances = st.builds(
    lambda ws, ps, cf: (
        ws,
        ps[: len(ws)] + [1.0] * max(0, len(ws) - len(ps)),
        cf * (sum(ws) if ws else 1.0),
    ),
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=0, max_size=10),
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=0, max_size=10),
    st.floats(min_value=0.0, max_value=1.2),
)

integer_instances = st.builds(
    lambda ws, cf: (ws, int(cf * sum(ws)) if ws else 0),
    st.lists(st.integers(min_value=1, max_value=30), min_size=0, max_size=12),
    st.floats(min_value=0.0, max_value=1.2),
)


class TestKnapsackResult:
    def test_empty(self):
        r = KnapsackResult.empty()
        assert r.value == 0.0 and r.weight == 0.0 and r.selected.size == 0

    def test_of_recomputes(self):
        r = KnapsackResult.of([0, 2], [1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
        assert r.value == 12.0
        assert r.weight == 4.0

    def test_selected_sorted(self):
        r = KnapsackResult.of([2, 0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert r.selected.tolist() == [0, 2]

    def test_verify_catches_overweight(self):
        r = KnapsackResult.of([0, 1], [3.0, 3.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            r.verify([3.0, 3.0], [1.0, 1.0], capacity=4.0)

    def test_verify_catches_bad_index(self):
        r = KnapsackResult(selected=np.array([5]), value=0.0, weight=0.0)
        with pytest.raises(ValueError):
            r.verify([1.0], [1.0], 10.0)

    def test_verify_catches_duplicates(self):
        r = KnapsackResult(selected=np.array([0, 0]), value=2.0, weight=2.0)
        with pytest.raises(ValueError):
            r.verify([1.0], [1.0], 10.0)

    def test_verify_catches_wrong_value(self):
        r = KnapsackResult(selected=np.array([0]), value=99.0, weight=1.0)
        with pytest.raises(ValueError):
            r.verify([1.0], [2.0], 10.0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            KnapsackResult.of([0], [1.0, 2.0], [1.0])


class TestExactInteger:
    def test_trivial(self):
        r = solve_exact_integer([], [], 10.0)
        assert r.value == 0.0

    def test_textbook(self):
        # classic: weights 1..4, profits 1,4,5,7, cap 7 -> take 2,3 (w=3+4) value 12? no:
        w, p, c = [1, 3, 4, 5], [1, 4, 5, 7], 7
        r = solve_exact_integer(w, p, c)
        assert r.value == brute_force(w, p, c) == 9.0

    def test_rejects_fractional_weights(self):
        with pytest.raises(ValueError):
            solve_exact_integer([1.5], [1.0], 2.0)

    def test_zero_capacity_takes_free_items(self):
        r = solve_exact_integer([0.0, 1.0], [5.0, 5.0], 0.0)
        assert r.value == 5.0
        assert r.selected.tolist() == [0]

    def test_zero_weight_items_always_taken(self):
        r = solve_exact_integer([0, 2], [3.0, 4.0], 2.0)
        assert r.value == 7.0

    @settings(max_examples=100, deadline=None)
    @given(integer_instances)
    def test_matches_brute_force(self, inst):
        ws, cap = inst
        ps = [float(x) for x in ws]  # profit = weight (the paper's objective)
        r = solve_exact_integer(ws, ps, cap)
        r.verify(ws, ps, cap)
        assert r.value == pytest.approx(brute_force(ws, ps, cap), abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(integer_instances, st.randoms(use_true_random=False))
    def test_matches_brute_force_general_profits(self, inst, rnd):
        ws, cap = inst
        ps = [rnd.uniform(0.5, 8.0) for _ in ws]
        r = solve_exact_integer(ws, ps, cap)
        r.verify(ws, ps, cap)
        assert r.value == pytest.approx(brute_force(ws, ps, cap), abs=1e-6)


class TestBranchAndBound:
    @settings(max_examples=100, deadline=None)
    @given(small_instances)
    def test_matches_brute_force(self, inst):
        ws, ps, cap = inst
        r = solve_branch_and_bound(ws, ps, cap)
        r.verify(ws, ps, cap)
        assert r.value == pytest.approx(brute_force(ws, ps, cap), abs=1e-6)

    def test_empty(self):
        assert solve_branch_and_bound([], [], 1.0).value == 0.0

    def test_nothing_fits(self):
        r = solve_branch_and_bound([5.0, 6.0], [1.0, 1.0], 2.0)
        assert r.value == 0.0

    def test_node_budget(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(1, 2, size=30)
        with pytest.raises(RuntimeError):
            solve_branch_and_bound(w, w, w.sum() / 2, max_nodes=5)

    def test_float_weights_exact(self):
        w = [1.1, 2.2, 3.3]
        p = [1.0, 2.0, 3.1]
        r = solve_branch_and_bound(w, p, 5.5)
        assert r.value == pytest.approx(brute_force(w, p, 5.5))


class TestExactAuto:
    def test_dispatches_integer(self):
        r = solve_exact_auto([1, 2, 3], [1.0, 2.0, 3.0], 4)
        assert r.value == 4.0

    def test_dispatches_float(self):
        r = solve_exact_auto([1.5, 2.5], [2.0, 3.0], 2.6)
        assert r.value == 3.0

    @settings(max_examples=60, deadline=None)
    @given(small_instances)
    def test_always_optimal(self, inst):
        ws, ps, cap = inst
        r = solve_exact_auto(ws, ps, cap)
        assert r.value == pytest.approx(brute_force(ws, ps, cap), abs=1e-6)

    def test_near_integral_profits_are_not_rounded(self):
        r = solve_exact_auto([1.5, 1.5], [0.99999, 1.0], 1.5)
        assert r.value == 1.0

    def test_near_integral_weights_are_not_rounded(self):
        ws, ps = [1.00001, 1.0], [2.0, 1.0]
        r = solve_exact_auto(ws, ps, 1.0)
        r.verify(ws, ps, 1.0)
        assert list(r.selected) == [1]


class TestGreedy:
    def test_half_guarantee_worst_case(self):
        # the classic adversarial case: greedy takes 1+eps, optimal is 2
        w = [1.01, 1.0, 1.0]
        r = solve_greedy(w, w, 2.0)
        assert r.value >= 0.5 * 2.0

    @settings(max_examples=150, deadline=None)
    @given(small_instances)
    def test_half_guarantee(self, inst):
        ws, ps, cap = inst
        opt = brute_force(ws, ps, cap)
        r = solve_greedy(ws, ps, cap)
        r.verify(ws, ps, cap)
        assert r.value >= 0.5 * opt - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(small_instances)
    def test_never_beats_optimum(self, inst):
        ws, ps, cap = inst
        assert solve_greedy(ws, ps, cap).value <= brute_force(ws, ps, cap) + 1e-9

    def test_empty(self):
        assert solve_greedy([], [], 3.0).value == 0.0

    def test_best_single_item_beats_prefix(self):
        # density greedy fills with small items; one huge-profit item wins
        w = [1.0, 1.0, 10.0]
        p = [2.0, 2.0, 15.0]
        r = solve_greedy(w, p, 10.0)
        assert r.value == 15.0

    def test_by_weight_variant_feasible(self):
        w = [3.0, 1.0, 2.0]
        r = solve_greedy_by_weight(w, w, 3.5)
        r.verify(w, w, 3.5)
        assert r.value == pytest.approx(3.0)  # takes 1 then 2


class TestFptas:
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1, 0.05])
    def test_guarantee_on_adversarial(self, eps):
        w = [1.01, 1.0, 1.0]
        r = solve_fptas(w, w, 2.0, eps=eps)
        assert r.value >= (1 - eps) * 2.0 - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(small_instances, st.sampled_from([0.5, 0.2, 0.1]))
    def test_guarantee(self, inst, eps):
        ws, ps, cap = inst
        opt = brute_force(ws, ps, cap)
        r = solve_fptas(ws, ps, cap, eps=eps)
        r.verify(ws, ps, cap)
        assert r.value >= (1 - eps) * opt - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(small_instances)
    def test_never_beats_optimum(self, inst):
        ws, ps, cap = inst
        opt = brute_force(ws, ps, cap)
        assert solve_fptas(ws, ps, cap, eps=0.3).value <= opt + 1e-9

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            solve_fptas([1.0], [1.0], 1.0, eps=0.0)
        with pytest.raises(ValueError):
            solve_fptas([1.0], [1.0], 1.0, eps=1.0)

    def test_empty(self):
        assert solve_fptas([], [], 1.0, eps=0.1).value == 0.0

    def test_small_eps_is_exact_on_small_instances(self):
        w = [3, 5, 7, 2]
        r = solve_fptas(w, w, 10, eps=0.01)
        assert r.value == pytest.approx(10.0)


class TestFractional:
    def test_fills_capacity_exactly(self):
        res = solve_fractional([4.0, 4.0], [4.0, 4.0], 6.0)
        assert res.weight == pytest.approx(6.0)
        assert res.value == pytest.approx(6.0)
        assert res.split_item is not None

    def test_at_most_one_split_item(self):
        res = solve_fractional([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0], 5.0)
        partial = ((res.fractions > 1e-12) & (res.fractions < 1 - 1e-12)).sum()
        assert partial <= 1

    def test_zero_weight_items_taken(self):
        res = solve_fractional([0.0, 1.0], [5.0, 1.0], 0.0)
        assert res.value == pytest.approx(5.0)
        assert res.integral_support.tolist() == [0]

    @settings(max_examples=100, deadline=None)
    @given(small_instances)
    def test_upper_bounds_integral_opt(self, inst):
        ws, ps, cap = inst
        opt = brute_force(ws, ps, cap)
        assert fractional_upper_bound(ws, ps, cap) >= opt - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(small_instances)
    def test_fractions_valid(self, inst):
        ws, ps, cap = inst
        res = solve_fractional(ws, ps, cap)
        assert (res.fractions >= -1e-12).all()
        assert (res.fractions <= 1 + 1e-12).all()
        heavy_weight = float(
            (np.asarray(ws) * res.fractions).sum()
        )
        assert heavy_weight <= cap + 1e-6 or np.isclose(res.fractions.max(), 0)

    def test_empty(self):
        res = solve_fractional([], [], 1.0)
        assert res.value == 0.0
        assert isinstance(res, FractionalResult)


class TestRegistry:
    def test_names(self):
        assert set(KNAPSACK_SOLVERS) == {"exact", "fptas", "greedy"}

    def test_get_solver(self):
        assert get_solver("exact").guarantee == 1.0
        assert get_solver("greedy").guarantee == 0.5
        assert get_solver("fptas", eps=0.2).guarantee == pytest.approx(0.8)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_solver("nope")

    def test_fptas_eps_validated(self):
        with pytest.raises(ValueError):
            get_solver("fptas", eps=2.0)

    @pytest.mark.parametrize("name", ["exact", "fptas", "greedy"])
    def test_solvers_run(self, name):
        s = get_solver(name)
        w = [1.0, 2.0, 3.0]
        r = s.solve(w, w, 4.0)
        r.verify(w, w, 4.0)
        assert r.value >= s.guarantee * 4.0 - 1e-9


class TestProfitDp:
    def test_basic(self):
        from repro.knapsack import solve_exact_by_profit

        w, p, c = [1.5, 2.5, 3.5], [2.0, 3.0, 4.0], 4.5
        r = solve_exact_by_profit(w, p, c)
        r.verify(w, p, c)
        assert r.value == pytest.approx(brute_force(w, p, c))

    def test_rejects_fractional_profits(self):
        from repro.knapsack import solve_exact_by_profit

        with pytest.raises(ValueError):
            solve_exact_by_profit([1.0], [1.5], 2.0)

    def test_empty_and_nothing_fits(self):
        from repro.knapsack import solve_exact_by_profit

        assert solve_exact_by_profit([], [], 1.0).value == 0.0
        assert solve_exact_by_profit([5.0], [1.0], 2.0).value == 0.0

    @settings(max_examples=80, deadline=None)
    @given(small_instances, st.randoms(use_true_random=False))
    def test_matches_brute_force(self, inst, rnd):
        from repro.knapsack import solve_exact_by_profit

        ws, _, cap = inst
        ps = [float(rnd.randint(1, 9)) for _ in ws]
        r = solve_exact_by_profit(ws, ps, cap)
        r.verify(ws, ps, cap)
        assert r.value == pytest.approx(brute_force(ws, ps, cap), abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(small_instances, st.randoms(use_true_random=False))
    def test_agrees_with_branch_and_bound(self, inst, rnd):
        from repro.knapsack import solve_exact_by_profit

        ws, _, cap = inst
        ps = [float(rnd.randint(1, 9)) for _ in ws]
        a = solve_exact_by_profit(ws, ps, cap).value
        b = solve_branch_and_bound(ws, ps, cap).value
        assert a == pytest.approx(b, abs=1e-6)

    def test_auto_dispatches_profit_dp(self):
        # float weights + integral profits: auto should still be exact
        w = [1.3, 2.7, 3.1, 0.9]
        p = [2.0, 3.0, 5.0, 1.0]
        r = solve_exact_auto(w, p, 4.1)
        assert r.value == pytest.approx(brute_force(w, p, 4.1))
