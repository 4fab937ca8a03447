"""Single-antenna solvers: the canonical sweep times a knapsack oracle.

The engine is :func:`best_rotation`: enumerate the canonical windows of a
:class:`~repro.geometry.sweep.CircularSweep`, solve the capacity-constrained
packing inside each window with a pluggable knapsack solver, and keep the
best.  By the rotation lemma (:mod:`repro.packing.canonical`) this is
exhaustive over orientations, so the approximation factor of the whole
solver equals that of the inner knapsack oracle:

* exact oracle        → optimal single-antenna solution,
* FPTAS oracle        → ``(1 - eps)``-approximation,
* greedy oracle       → ``1/2``-approximation,
* fractional oracle   → *exact* for the splittable variant.

Two performance devices (both are pure pruning — they never change the
result):

1. windows are visited in decreasing order of total covered profit, and the
   scan stops as soon as that total is no better than the incumbent (a
   knapsack value never exceeds its window's profit sum);
2. a window whose total covered *demand* already fits the capacity is
   solved in O(1) by taking everything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geometry.sweep import CircularSweep
from repro.knapsack.api import KnapsackSolver
from repro.knapsack.fractional import solve_fractional
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution, FractionalSolution
from repro.numerics import fits
from repro.obs import span
from repro.obs.metrics import get_registry

# Rotation-search telemetry (contract: docs/OBSERVABILITY.md).  Per-window
# work is aggregated locally and flushed once per search, so the inner
# loop carries no metric traffic.
_REG = get_registry()
_ROT_SEARCHES = _REG.counter("rotation.searches")
_ROT_CANDIDATES = _REG.counter("rotation.candidate_windows")
_ROT_VISITED = _REG.counter("rotation.windows_visited")
_ROT_PRUNED = _REG.counter("rotation.windows_pruned")
_ROT_FASTPATH = _REG.counter("rotation.windows_fastpath")
_ROT_TIMER = _REG.timer("phase.rotation")


@dataclass(frozen=True)
class RotationOutcome:
    """Result of a single-antenna rotation search.

    Attributes
    ----------
    alpha:
        Chosen window start angle.
    selected:
        Original customer indices served.
    value:
        Total profit served.
    demand:
        Total demand served (equals ``value`` for the paper's objective).
    """

    alpha: float
    selected: np.ndarray
    value: float
    demand: float

    @classmethod
    def empty(cls) -> "RotationOutcome":
        return cls(alpha=0.0, selected=np.empty(0, dtype=np.intp), value=0.0, demand=0.0)


def best_rotation(
    thetas: np.ndarray,
    demands: np.ndarray,
    profits: np.ndarray,
    spec: AntennaSpec,
    oracle: KnapsackSolver,
    sweep: Optional[CircularSweep] = None,
    demand_prefix: Optional[np.ndarray] = None,
    profit_prefix: Optional[np.ndarray] = None,
) -> RotationOutcome:
    """Best orientation + packing of one antenna over the given customers.

    Guarantee: ``value >= oracle.guarantee * OPT_single`` where
    ``OPT_single`` is the optimal single-antenna value on these customers.

    Complexity: ``O(n log n)`` for the sweep plus one oracle call per
    unique window that survives the profit-sum pruning.

    The compiled-instance fast path: callers holding a
    :class:`~repro.core.compiled.CompiledAngleInstance` pass the memoized
    ``sweep`` (which must be over exactly these ``thetas`` at width
    ``spec.rho``) and optionally the matching doubled prefix sums, skipping
    the per-call sort and cumulative sums.  Both paths produce bit-identical
    results.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    n = thetas.size
    if n == 0:
        return RotationOutcome.empty()
    t0 = time.perf_counter()
    with span("rotation.search", n=int(n)) as sp:
        if sweep is None:
            sweep = CircularSweep(thetas, spec.rho)
        profit_sums = (
            sweep.window_sums(profits)
            if profit_prefix is None
            else sweep.window_sums_from_prefix(profit_prefix)
        )
        demand_sums = (
            sweep.window_sums(demands)
            if demand_prefix is None
            else sweep.window_sums_from_prefix(demand_prefix)
        )
        ids = sweep.unique_window_ids()
        candidates = int(ids.size)

        best = RotationOutcome.empty()
        visited = 0
        fastpath = 0
        # Visit windows by decreasing profit potential.
        ids = ids[np.argsort(-profit_sums[ids], kind="stable")]
        for k in ids:
            potential = float(profit_sums[k])
            if potential <= best.value + 1e-15:
                break  # no later window can beat the incumbent
            visited += 1
            w = sweep.window(int(k))
            cov = w.indices
            if fits(float(demand_sums[k]), spec.capacity):
                # Everything fits: the window's full profit is achievable.
                fastpath += 1
                best = RotationOutcome(
                    alpha=w.start,
                    selected=cov.copy(),
                    value=potential,
                    demand=float(demand_sums[k]),
                )
                continue
            res = oracle.solve(demands[cov], profits[cov], spec.capacity)
            if res.value > best.value:
                best = RotationOutcome(
                    alpha=w.start,
                    selected=cov[res.selected],
                    value=res.value,
                    demand=res.weight,
                )
        _ROT_SEARCHES.inc()
        _ROT_CANDIDATES.inc(candidates)
        _ROT_VISITED.inc(visited)
        _ROT_PRUNED.inc(candidates - visited)
        _ROT_FASTPATH.inc(fastpath)
        _ROT_TIMER.observe(time.perf_counter() - t0)
        sp.set(windows=candidates, visited=visited, value=float(best.value))
    return best


def best_rotation_fractional(
    thetas: np.ndarray,
    demands: np.ndarray,
    profits: np.ndarray,
    spec: AntennaSpec,
) -> tuple[float, np.ndarray, float]:
    """Optimal *splittable* single-antenna rotation.

    Returns ``(alpha, fractions, value)`` where ``fractions`` is per-customer
    in ``[0, 1]``.  Exact: the rotation lemma still applies (a fractional
    solution's support is covered by a canonical window), and the in-window
    subproblem is fractional knapsack, solved optimally.

    Fast path: when profit equals demand the fractional optimum of a window
    is simply ``min(capacity, covered demand)``, so the best window is found
    with one vectorized pass and only one fractional solve is needed.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    n = thetas.size
    fractions = np.zeros(n, dtype=np.float64)
    if n == 0:
        return 0.0, fractions, 0.0
    _REG.counter("rotation.fractional_searches").inc()
    sweep = CircularSweep(thetas, spec.rho)
    demand_sums = sweep.window_sums(demands)
    if np.array_equal(demands, profits):
        values = np.minimum(demand_sums, spec.capacity)
        k = int(np.argmax(values))
        w = sweep.window(k)
        cov = w.indices
        res = solve_fractional(demands[cov], profits[cov], spec.capacity)
        fractions[cov] = res.fractions
        return w.start, fractions, float(res.value)
    # General profits: per-window fractional solves with profit-sum pruning.
    profit_sums = sweep.window_sums(profits)
    ids = sweep.unique_window_ids()
    ids = ids[np.argsort(-profit_sums[ids], kind="stable")]
    best_value = -1.0
    best_alpha = 0.0
    best_cov: Optional[np.ndarray] = None
    best_frac: Optional[np.ndarray] = None
    for k in ids:
        if profit_sums[k] <= best_value + 1e-15:
            break
        w = sweep.window(int(k))
        cov = w.indices
        res = solve_fractional(demands[cov], profits[cov], spec.capacity)
        if res.value > best_value:
            best_value = float(res.value)
            best_alpha = w.start
            best_cov = cov.copy()
            best_frac = res.fractions.copy()
    if best_cov is not None and best_frac is not None:
        fractions[best_cov] = best_frac
    return best_alpha, fractions, max(best_value, 0.0)


def solve_single_antenna(
    instance: AngleInstance,
    oracle: KnapsackSolver,
) -> AngleSolution:
    """Solve a ``k == 1`` instance with the given knapsack oracle.

    Raises ``ValueError`` when the instance has more than one antenna (use
    the multi-antenna solvers instead).  The sweep and prefix sums come
    from ``instance.compile()``.
    """
    if instance.k != 1:
        raise ValueError(f"solve_single_antenna needs k == 1, got k={instance.k}")
    compiled = instance.compile()
    spec = instance.antennas[0]
    out = best_rotation(
        instance.thetas,
        instance.demands,
        instance.profits,
        spec,
        oracle,
        sweep=compiled.sweep(spec.rho),
        demand_prefix=compiled.demand_prefix,
        profit_prefix=compiled.profit_prefix,
    )
    assignment = np.full(instance.n, -1, dtype=np.int64)
    assignment[out.selected] = 0
    return AngleSolution(orientations=np.array([out.alpha]), assignment=assignment)


def solve_single_antenna_fractional(instance: AngleInstance) -> FractionalSolution:
    """Exact splittable solution of a ``k == 1`` instance."""
    if instance.k != 1:
        raise ValueError(
            f"solve_single_antenna_fractional needs k == 1, got k={instance.k}"
        )
    alpha, fractions, _ = best_rotation_fractional(
        instance.thetas, instance.demands, instance.profits, instance.antennas[0]
    )
    return FractionalSolution(
        orientations=np.array([alpha]), fractions=fractions.reshape(-1, 1)
    )
