"""Shifted-cut scheme for the non-overlapping variant (identical antennas).

:func:`~repro.packing.multi.solve_non_overlapping_dp` is exact for the
variant but enumerates every candidate as the cyclic "first" window —
``O(|S|^2 k)``.  The shifting scheme (Hochbaum–Maass style) trades a small,
*quantified* loss for one linear DP per cut:

1. pick ``t`` evenly spaced cut positions on the circle;
2. for each cut, discard the canonical windows whose interior contains the
   cut, and solve the remaining *linear* weighted-window scheduling by DP
   (select up to ``k`` disjoint windows maximizing oracle profit);
3. return the best cut's solution.

**Loss bound.**  Fix the optimal disjoint solution ``W*``.  A cut position
``c`` destroys at most the one window of ``W*`` containing it (disjoint
windows!), so ``loss(c) <= v(w_c)``.  Each window of width ``rho`` contains
at most ``floor(rho * t / 2*pi) + 1`` of the ``t`` positions, hence::

    sum_c loss(c) <= OPT * (rho * t / (2*pi) + 1)
    min_c loss(c) <= OPT * (rho / (2*pi) + 1 / t)

so the best cut retains at least ``(1 - rho/(2*pi) - 1/t) * OPT`` — and the
oracle contributes its own factor multiplicatively.  Experiment E10
measures this loss against the exact DP as ``t`` grows.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.geometry.angles import TWO_PI, ccw_delta
from repro.knapsack.api import KnapsackSolver
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.numerics import fits
from repro.obs import span
from repro.obs.metrics import get_registry
from repro.resilience.budget import checkpoint as _budget_checkpoint
from repro.resilience.budget import tick_nodes as _budget_tick

# Solver-level telemetry (contract: docs/OBSERVABILITY.md).
_REG = get_registry()
_SH_TIMER = _REG.timer("solver.shifting")
_SH_PRECOMPUTE = _REG.timer("phase.shifting.window_precompute")
_SH_CUTS = _REG.timer("phase.shifting.cuts")
_SH_CUTS_TRIED = _REG.counter("solver.shifting.cuts_tried")


def solve_shifting(
    instance: AngleInstance,
    oracle: KnapsackSolver,
    t: int = 8,
    boundary_fill: bool = True,
) -> AngleSolution:
    """Best-of-``t``-cuts disjoint packing; requires identical antennas.

    Guarantee (vs. the non-overlapping optimum ``OPT_no``)::

        value >= oracle.guarantee * (1 - rho/(2*pi) - 1/t) * OPT_no

    Complexity: ``O(n)`` oracle calls once, plus ``t`` linear DPs of size
    ``O(n k)``.  The sweep and demand prefix come from
    ``instance.compile()``.
    """
    if t < 1:
        raise ValueError(f"need at least one cut, got t={t}")
    if not instance.has_uniform_antennas:
        raise ValueError("shifting scheme requires identical antennas")
    n, k = instance.n, instance.k
    if n == 0:
        return AngleSolution.empty(instance)
    compiled = instance.compile()
    spec = instance.antennas[0]
    rho = spec.rho

    t_solve = time.perf_counter()
    with span("solver.shifting", n=int(n), k=int(k), t=int(t)) as sp:
        t_pre = time.perf_counter()
        sweep = compiled.sweep(rho)
        demand_sums = sweep.window_sums_from_prefix(compiled.demand_prefix)
        ids = sweep.unique_window_ids()
        # Precompute oracle profit + selection per unique canonical window.
        starts = np.empty(ids.size, dtype=np.float64)
        values = np.empty(ids.size, dtype=np.float64)
        picks: List[np.ndarray] = []
        for a, wid in enumerate(ids):
            _budget_tick()  # amortized ambient-budget check
            w = sweep.window(int(wid))
            cov = w.indices
            starts[a] = w.start
            if fits(float(demand_sums[wid]), spec.capacity):
                values[a] = float(instance.profits[cov].sum())
                picks.append(cov.copy())
            else:
                res = oracle.solve(
                    instance.demands[cov], instance.profits[cov], spec.capacity
                )
                values[a] = res.value
                picks.append(cov[res.selected])
        _SH_PRECOMPUTE.observe(time.perf_counter() - t_pre)

        t_cuts = time.perf_counter()
        best_value = -1.0
        best_windows: List[int] = []
        for s in range(t):
            _budget_checkpoint()  # cooperative deadline (ambient budget)
            cut = s * TWO_PI / t
            # Linearize window starts after the cut; keep windows that end
            # before wrapping back past the cut.
            offs = np.array([ccw_delta(cut, float(a)) for a in starts])
            keep = offs + rho <= TWO_PI + 1e-12
            if not keep.any():
                continue
            kept = np.flatnonzero(keep)
            order = kept[np.argsort(offs[kept], kind="stable")]
            lin = offs[order]
            vals = values[order]
            m = order.size
            jump = np.searchsorted(lin, lin + rho - 1e-12, side="left")
            # dp[c][i]: best profit from windows >= i using <= c windows.
            dp = np.zeros((k + 1, m + 1), dtype=np.float64)
            for c in range(1, k + 1):
                for i in range(m - 1, -1, -1):
                    take = vals[i] + dp[c - 1, int(jump[i])] if vals[i] > 0 else -1.0
                    dp[c, i] = max(dp[c, i + 1], take)
            total = float(dp[k, 0])
            if total > best_value:
                best_value = total
                # Reconstruct.
                chosen: List[int] = []
                c, i = k, 0
                while c > 0 and i < m:
                    take = vals[i] + dp[c - 1, int(jump[i])] if vals[i] > 0 else -1.0
                    if take >= dp[c, i + 1] and take == dp[c, i]:
                        chosen.append(int(order[i]))
                        i = int(jump[i])
                        c -= 1
                    else:
                        i += 1
                best_windows = chosen

        _SH_CUTS.observe(time.perf_counter() - t_cuts)
        _SH_CUTS_TRIED.inc(t)

        assignment = np.full(n, -1, dtype=np.int64)
        orientations = np.zeros(k, dtype=np.float64)
        taken = np.zeros(n, dtype=bool)
        for j, a in enumerate(best_windows):
            sel = picks[a]
            fresh = sel[~taken[sel]]
            assignment[fresh] = j
            taken[fresh] = True
            orientations[j] = starts[a]
        if boundary_fill:
            from repro.packing.local_search import fill_active_antennas

            fill_active_antennas(instance, orientations, assignment)
        _SH_TIMER.observe(time.perf_counter() - t_solve)
        sp.set(windows=int(ids.size), value=float(best_value))
    return AngleSolution(orientations=orientations, assignment=assignment)
