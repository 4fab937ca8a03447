"""Tier-1 tests for the resilience layer (repro.resilience).

Covers the contract of docs/RESILIENCE.md: cooperative budgets expire for
the right reason, anytime exact solves return certified brackets, the
fallback chain degrades stage by stage under injected faults (every path
exercised through the chaos harness), and the chaos harness itself is
deterministic by seed.
"""

import time

import numpy as np
import pytest

from repro.engine import SolveRequest, solve
from repro.model import generators as gen
from repro.model.solution import AngleSolution
from repro.obs.metrics import get_registry
from repro.packing.bounds import combined_upper_bound
from repro.packing.exact import exact_assignment, solve_exact_angle, solve_exact_anytime
from repro.packing.multi import solve_greedy_multi
from repro.knapsack import get_solver
from repro.resilience import (
    AnytimeOutcome,
    Budget,
    BudgetExpired,
    ChainResult,
    ChaosError,
    ChaosMonkey,
    ChaosPolicy,
    FallbackChain,
    FallbackExhausted,
    Stage,
    chaos_active,
    chaos_point,
    checkpoint,
    current_budget,
    default_angle_chain,
    tick_nodes,
)

GREEDY = get_solver("greedy")


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
class TestBudget:
    def test_node_limit(self):
        b = Budget(max_nodes=5)
        for _ in range(5):
            b.tick()
        with pytest.raises(BudgetExpired) as exc:
            b.tick()
        assert exc.value.reason == "node_limit"

    def test_oracle_limit(self):
        b = Budget(max_oracle_calls=2)
        b.tick_oracle()
        b.tick_oracle()
        with pytest.raises(BudgetExpired) as exc:
            b.tick_oracle()
        assert exc.value.reason == "oracle_limit"

    def test_deadline(self):
        b = Budget(wall_s=0.0)
        with pytest.raises(BudgetExpired) as exc:
            b.checkpoint()
        assert exc.value.reason == "deadline"

    def test_deadline_amortized_by_stride(self):
        # With a huge stride the clock is not consulted on plain ticks...
        b = Budget(wall_s=0.0, check_stride=10_000)
        for _ in range(100):
            b.tick()
        # ...but a checkpoint forces the clock and expires.
        with pytest.raises(BudgetExpired):
            b.checkpoint()

    def test_cancel(self):
        b = Budget()
        b.cancel()
        with pytest.raises(BudgetExpired) as exc:
            b.tick()
        assert exc.value.reason == "cancelled"

    def test_expired_budget_stays_expired(self):
        b = Budget(max_nodes=1)
        b.tick()
        with pytest.raises(BudgetExpired):
            b.tick()
        with pytest.raises(BudgetExpired) as exc:
            b.checkpoint()
        assert exc.value.reason == "node_limit"

    def test_remaining_and_describe(self):
        b = Budget(wall_s=100.0, max_nodes=10)
        assert 0 < b.remaining_s() <= 100.0
        assert "nodes=0/10" in b.describe()
        assert Budget().describe() == "unlimited"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Budget(wall_s=-1.0)
        with pytest.raises(ValueError):
            Budget(check_stride=0)

    def test_metrics_counted_once(self):
        reg = get_registry()
        reg.reset()
        b = Budget(max_nodes=1)
        b.tick()
        for _ in range(3):
            with pytest.raises(BudgetExpired):
                b.tick()
        assert reg.snapshot()["resilience.budget_expired"]["value"] == 1


class TestAmbientBudget:
    def test_activation_stacks_and_restores(self):
        assert current_budget() is None
        outer, inner = Budget(), Budget()
        with outer.activate():
            assert current_budget() is outer
            with inner.activate():
                assert current_budget() is inner
            assert current_budget() is outer
        assert current_budget() is None

    def test_module_helpers_noop_without_budget(self):
        checkpoint()
        tick_nodes(100)

    def test_module_helpers_enforce_active_budget(self):
        with Budget(max_nodes=3).activate():
            with pytest.raises(BudgetExpired):
                tick_nodes(10)

    def test_ambient_deadline_interrupts_greedy(self):
        inst = gen.uniform_angles(n=40, k=3, seed=0)
        with Budget(wall_s=0.0).activate():
            with pytest.raises(BudgetExpired):
                solve_greedy_multi(inst, GREEDY)

    def test_ambient_oracle_limit_interrupts_solvers(self):
        inst = gen.uniform_angles(n=40, k=3, seed=0)
        with Budget(max_oracle_calls=3).activate():
            with pytest.raises(BudgetExpired) as exc:
                solve_greedy_multi(inst, GREEDY)
        assert exc.value.reason == "oracle_limit"

    def test_partitioned_zero_deadline_is_budget_expired(self):
        # Parts solve under the parent request's ambient budget, so the
        # expiry surfaces as the part's own BudgetExpired (exit code 4),
        # not as a wrapped failure.
        request = SolveRequest(
            instance=gen.power_law_metro(n=4000, towns=8, seed=0),
            algorithm="greedy", partition="force", timeout_s=0,
        )
        with pytest.raises(BudgetExpired):
            solve(request)


# ----------------------------------------------------------------------
# Anytime exact solve
# ----------------------------------------------------------------------
class TestAnytimeExact:
    def test_complete_collapses_bracket(self):
        inst = gen.uniform_angles(n=10, k=2, seed=1)
        out = solve_exact_anytime(inst)
        assert out.optimal and out.reason == "complete"
        assert out.lower_bound == pytest.approx(out.upper_bound)
        assert out.gap() == pytest.approx(0.0)
        out.solution.verify(inst)

    def test_complete_matches_plain_exact(self):
        inst = gen.clustered_angles(n=9, k=2, seed=3)
        out = solve_exact_anytime(inst)
        exact = solve_exact_angle(inst)
        assert out.solution.value(inst) == pytest.approx(exact.value(inst))

    def test_expired_returns_incumbent_with_bracket(self):
        # A zero deadline expires at the very first checkpoint, so the
        # greedy-seeded incumbent is all the solver ever gets to certify.
        inst = gen.uniform_angles(n=16, k=2, seed=2)
        out = solve_exact_anytime(inst, budget=Budget(wall_s=0.0))
        assert not out.optimal
        assert out.reason == "deadline"
        assert out.lower_bound <= out.upper_bound + 1e-9
        out.solution.verify(inst)

    def test_exact_raises_with_incumbent_attached(self):
        inst = gen.uniform_angles(n=16, k=2, seed=2)
        with pytest.raises(BudgetExpired) as exc:
            solve_exact_angle(inst, budget=Budget(wall_s=0.0))
        # Partial work is never thrown away: the incumbent rides the error.
        assert exc.value.incumbent is None or isinstance(
            exc.value.incumbent, AngleSolution
        )

    @pytest.mark.parametrize("limit", [1, 100, 257])
    def test_node_limit_expires_on_the_next_node(self, limit):
        # The assignment B&B ticks its budget on every node, so a node
        # limit fires exactly one node past it, not at a stride boundary.
        rng = np.random.default_rng(0)
        n = 16
        budget = Budget(max_nodes=limit)
        with pytest.raises(BudgetExpired) as exc:
            exact_assignment(
                np.ones((n, 3), dtype=bool), rng.uniform(1.0, 5.0, n),
                rng.uniform(1.0, 5.0, n), np.full(3, 10.0), budget=budget,
            )
        assert exc.value.reason == "node_limit"
        assert budget.nodes == limit + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_property_bracket_and_greedy_floor(self, seed):
        """Budget-expired exact solves return a *certified* answer.

        For random instances and a tiny node budget: the incumbent is
        feasible, its value is within the [greedy, upper-bound] bracket,
        and the bracket itself is consistent.
        """
        inst = gen.uniform_angles(n=14, k=2, seed=seed)
        greedy_value = solve_greedy_multi(inst, GREEDY).value(inst)
        ub = combined_upper_bound(inst)
        out = solve_exact_anytime(inst, budget=Budget(max_nodes=30))
        out.solution.verify(inst)
        value = out.solution.value(inst)
        assert value == pytest.approx(out.lower_bound)
        assert out.lower_bound <= out.upper_bound + 1e-9
        assert value >= greedy_value - 1e-9  # seeded incumbent: never worse
        assert value <= ub * (1.0 + 1e-9) + 1e-9

    def test_one_second_budget_on_e2_scale_instance(self):
        """Acceptance: exact B&B under a 1 s budget answers on n=40, k=3."""
        inst = gen.uniform_angles(n=40, k=3, seed=0)
        t0 = time.perf_counter()
        out = solve_exact_anytime(inst, budget=Budget(wall_s=1.0))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0  # bounded: came back near the deadline
        out.solution.verify(inst)
        assert out.lower_bound <= out.upper_bound + 1e-9
        assert out.solution.value(inst) > 0

    def test_inverted_bracket_rejected(self):
        sol = AngleSolution(orientations=np.zeros(1), assignment=np.full(1, -1))
        with pytest.raises(ValueError):
            AnytimeOutcome(sol, lower_bound=2.0, upper_bound=1.0,
                           optimal=False, reason="deadline")


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------
class TestChaos:
    def test_policy_validates_rates(self):
        with pytest.raises(ValueError):
            ChaosPolicy(error_rate=1.5)
        with pytest.raises(ValueError):
            ChaosPolicy(delay_s=-1.0)

    def test_deterministic_by_seed(self):
        def observed(seed):
            monkey = ChaosMonkey(ChaosPolicy(seed=seed, error_rate=0.5))
            hits = []
            for i in range(40):
                try:
                    monkey.at("site")
                    hits.append(False)
                except ChaosError:
                    hits.append(True)
            return hits

        a, b, c = observed(7), observed(7), observed(8)
        assert a == b  # same seed, same faults
        assert a != c  # different seed, different faults
        assert any(a) and not all(a)

    def test_sites_independent(self):
        policy = ChaosPolicy(seed=0, error_rate=0.5)
        monkey = ChaosMonkey(policy)

        def site_pattern(site):
            out = []
            for _ in range(30):
                try:
                    monkey.at(site)
                    out.append(False)
                except ChaosError:
                    out.append(True)
            return out

        assert site_pattern("alpha") != site_pattern("beta")

    def test_chaos_point_noop_when_inactive(self):
        chaos_point("anywhere")  # must not raise

    def test_chaos_active_injects_and_restores(self):
        policy = ChaosPolicy(seed=1, error_rate=1.0)
        with chaos_active(policy):
            with pytest.raises(ChaosError):
                chaos_point("x")
        chaos_point("x")  # inactive again

    def test_injected_metrics(self):
        reg = get_registry()
        reg.reset()
        with chaos_active(ChaosPolicy(seed=1, error_rate=1.0)):
            with pytest.raises(ChaosError):
                chaos_point("m")
        assert reg.snapshot()["chaos.injected.errors"]["value"] == 1


# ----------------------------------------------------------------------
# Fallback chains
# ----------------------------------------------------------------------
class TestFallbackChain:
    def make_inst(self):
        return gen.uniform_angles(n=12, k=2, seed=4)

    def test_first_stage_answers(self):
        inst = self.make_inst()
        result = default_angle_chain(exact_timeout_s=30.0).run(inst)
        assert isinstance(result, ChainResult)
        assert result.stage == "exact"
        assert result.reason == "complete"
        assert not result.degraded
        result.solution.verify(inst)
        assert result.solution.meta["resilience"]["stage"] == "exact"

    def test_anytime_timeout_still_answers_from_exact(self):
        # An expiring exact stage is not abandoned: anytime semantics turn
        # the timeout into a degraded (incumbent) answer from stage one.
        inst = gen.uniform_angles(n=40, k=3, seed=0)
        result = default_angle_chain(exact_timeout_s=0.05).run(inst)
        assert result.stage == "exact"
        assert result.degraded
        assert result.reason.startswith("anytime:")
        assert result.lower_bound <= result.upper_bound + 1e-9

    def test_degrades_past_broken_stages(self):
        inst = self.make_inst()
        reg = get_registry()
        reg.reset()

        def broken(instance, budget):
            raise RuntimeError("boom")

        chain = FallbackChain(
            [
                Stage("exact", broken),
                Stage("fptas", broken),
                Stage("greedy",
                      lambda instance, budget: solve_greedy_multi(instance, GREEDY)),
            ]
        )
        result = chain.run(inst)
        assert result.stage == "greedy"
        assert result.degraded
        assert [a["stage"] for a in result.attempts] == ["exact", "fptas", "greedy"]
        assert reg.snapshot()["resilience.fallbacks"]["value"] == 2

    def test_timeout_falls_through_without_retry(self):
        inst = self.make_inst()
        reg = get_registry()
        reg.reset()
        calls = {"n": 0}

        def slow(instance, budget):
            calls["n"] += 1
            budget.checkpoint()
            time.sleep(0.05)
            budget.checkpoint()
            raise AssertionError("deadline should have fired")

        chain = FallbackChain(
            [
                Stage("slow", slow, timeout_s=0.01, retries=3),
                Stage("greedy",
                      lambda instance, budget: solve_greedy_multi(instance, GREEDY)),
            ]
        )
        result = chain.run(inst)
        assert result.stage == "greedy"
        assert calls["n"] == 1  # deadlines don't retry
        snap = reg.snapshot()
        assert snap["resilience.timeouts"]["value"] == 1
        assert snap["resilience.retries"]["value"] == 0

    def test_transient_faults_retried_with_backoff(self):
        inst = self.make_inst()
        reg = get_registry()
        reg.reset()
        sleeps = []
        attempts = {"n": 0}

        def flaky(instance, budget):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise ChaosError("transient")
            return solve_greedy_multi(instance, GREEDY)

        chain = FallbackChain(
            [Stage("flaky", flaky, retries=3, backoff_s=0.01)],
            sleep=sleeps.append,
        )
        result = chain.run(inst)
        assert result.stage == "flaky"
        assert attempts["n"] == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff
        assert reg.snapshot()["resilience.retries"]["value"] == 2

    def test_chaos_exercises_every_degradation_path(self):
        """Acceptance: chain demonstrably degrades exact -> fptas -> greedy.

        error_rate=1.0 at the stage entry chaos points (with zero
        retries) knocks out every stage in turn; the chain must walk the
        whole ladder and finally exhaust.
        """
        inst = self.make_inst()
        chain = default_angle_chain(retries=0)
        # Seedless full-rate injection kills stage 1 and 2; stage 3 answers
        # only if we stop injecting, so first prove total exhaustion...
        with chaos_active(ChaosPolicy(seed=0, error_rate=1.0)):
            with pytest.raises(FallbackExhausted) as exc:
                chain.run(inst)
        outcomes = [(a["stage"], a["outcome"]) for a in exc.value.attempts]
        assert [s for s, _ in outcomes] == ["exact", "fptas(eps=0.25)", "greedy"]
        assert all(o == "transient" for _, o in outcomes)

    def test_chaos_partial_injection_lands_on_greedy(self):
        inst = self.make_inst()
        chain = default_angle_chain(retries=0)

        class FirstTwo(ChaosPolicy):
            pass

        # Inject errors only at the exact and fptas sites; greedy runs clean.
        monkey_policy = ChaosPolicy(seed=0, error_rate=1.0)
        with chaos_active(monkey_policy) as monkey:
            original = monkey.at

            def selective(site):
                if site != "fallback.greedy":
                    original(site)

            monkey.at = selective
            result = chain.run(inst)
        assert result.stage == "greedy"
        assert result.degraded
        meta = result.solution.meta["resilience"]
        assert meta["stage"] == "greedy"
        assert [a["stage"] for a in meta["attempts"]][:2] == [
            "exact", "fptas(eps=0.25)",
        ]

    def test_chain_validates_stages(self):
        with pytest.raises(ValueError):
            FallbackChain([])
        stage = Stage("a", lambda i, b: None)
        with pytest.raises(ValueError):
            FallbackChain([stage, Stage("a", lambda i, b: None)])

    def test_delay_injection_trips_stage_deadline(self):
        # A chaos delay longer than the stage timeout turns into a timeout
        # at the stage's own budget checkpoint.
        inst = self.make_inst()

        def checked(instance, budget):
            budget.checkpoint()
            return solve_greedy_multi(instance, GREEDY)

        chain = FallbackChain(
            [
                Stage("slow", checked, timeout_s=0.01),
                Stage("greedy",
                      lambda instance, budget: solve_greedy_multi(instance, GREEDY)),
            ]
        )
        with chaos_active(ChaosPolicy(seed=0, delay_rate=1.0, delay_s=0.05)):
            result = chain.run(inst)
        assert result.stage == "greedy"
        assert result.attempts[0]["outcome"] == "timeout"
