"""E15 — incremental delta-resolve vs offline re-solve (extension).

A seeded stream of add/remove/update events hits a live instance; two
operators answer each event:

* **delta-resolve** — one :class:`repro.online.delta.DeltaCompiledInstance`
  absorbs the event into its next generation, then the engine solves
  that generation;
* **offline re-solve** — the from-scratch baseline: rebuild the instance
  arrays, recompile, solve.

Because the delta contract is bit-identity (``docs/ONLINE.md``), the
competitive ratio of delta-resolve is exactly 1.000 at every event
(asserted, not approximated — this is what separates the delta path from
the paper's online *admission* setting, where irrevocable decisions force
ratios below 1).  A churn experiment ties back to E12: admission policies
re-run after every event stay above the proven (1-δ)/(2-δ) floor even as
the customer population drifts under them.
"""

import numpy as np
import pytest

from repro.engine import SolveRequest, clear_caches
from repro.engine import solve as engine_solve
from repro.geometry.angles import TWO_PI
from repro.model import generators as gen
from repro.model.instance import AngleInstance
from repro.online import work_conserving_bound
from repro.online.delta import AddCustomer, DeltaCompiledInstance, RemoveCustomer, UpdateDemand


def _event_stream(rng, n_live, events):
    """The E15 seeded mix: 1/4 adds, 1/4 removes, 1/2 updates."""
    stream = []
    for i in range(events):
        if i % 4 == 0:
            stream.append(AddCustomer(demand=float(rng.uniform(0.5, 2.0)),
                                      theta=float(rng.uniform(0.0, TWO_PI))))
            n_live += 1
        elif i % 4 == 1:
            stream.append(RemoveCustomer(index=int(rng.integers(0, n_live))))
            n_live -= 1
        else:
            value = float(rng.uniform(0.5, 2.0))
            stream.append(UpdateDemand(index=int(rng.integers(0, n_live)),
                                       demand=value, profit=value))
    return stream


def _rebuild(instance, event):
    """Offline baseline step: patch raw arrays, construct from scratch."""
    thetas, demands = instance.thetas, instance.demands
    if isinstance(event, AddCustomer):
        thetas = np.append(thetas, event.theta)
        demands = np.append(demands, event.demand)
    elif isinstance(event, RemoveCustomer):
        thetas = np.delete(thetas, event.index)
        demands = np.delete(demands, event.index)
    else:
        demands = demands.copy()
        demands[event.index] = event.demand
    return AngleInstance(thetas=thetas, demands=demands,
                         antennas=instance.antennas)


def _solve_value(instance, algorithm="greedy"):
    # eps=0.5 routes the knapsack oracle to the FPTAS, as the bench suite
    # does: branch-and-bound can explode on continuous-weight demands.
    report = engine_solve(SolveRequest(instance=instance, family="angle",
                                       algorithm=algorithm, eps=0.5,
                                       use_cache=False))
    return report.value


def test_e15_competitive_ratio_is_exactly_one():
    """Delta-resolve value == offline re-solve value at every event."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        base = gen.uniform_angles(n=120, k=3, seed=seed)
        delta = DeltaCompiledInstance(base)
        offline = base
        for event in _event_stream(rng, base.n, events=12):
            delta.apply(event)
            delta.publish()
            offline = _rebuild(offline, event)
            delta_value = _solve_value(delta.instance)
            offline_value = _solve_value(offline)
            # Exact equality, not approx: the delta instance is
            # bit-identical to the rebuilt one, so the solver runs the
            # same arithmetic on both.
            assert delta_value == offline_value


def test_e15_admission_stays_above_floor_under_churn():
    """E12's floor survives population churn: re-run admission per epoch."""
    rng = np.random.default_rng(12)
    base = gen.uniform_angles(n=60, k=3, seed=12)
    delta = DeltaCompiledInstance(base)
    for epoch in range(4):
        for event in _event_stream(rng, delta.n, events=4):
            delta.apply(event)
        instance = delta.instance
        floor = work_conserving_bound(instance.antennas, instance.demands)
        report = engine_solve(SolveRequest(instance=instance, family="online",
                                           algorithm="first_fit", seed=epoch))
        assert report.extra["competitive"] >= floor - 1e-9


@pytest.mark.parametrize("events", [16, 64])
def test_e15_delta_resolve_runtime(benchmark, events):
    # n=600 keeps one FPTAS re-solve around 2s; the oracle's superlinear
    # cost dominates far earlier than the delta apply does.
    clear_caches()
    base = gen.uniform_angles(n=600, k=3, seed=3)
    rng = np.random.default_rng(events)
    stream = _event_stream(rng, base.n, events=events)

    def run():
        d = DeltaCompiledInstance(base)
        for event in stream:
            d.apply(event)
        d.publish()
        return _solve_value(d.instance)

    value = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["final_value"] = float(value)
    assert value > 0.0
