"""Greedy insertion heuristic for the non-overlapping variant.

The third point in the speed/quality space alongside the exact circular
DP (:func:`~repro.packing.multi.solve_non_overlapping_dp`) and the
shifting scheme (:func:`~repro.packing.shifting.solve_shifting`):

1. score every canonical window once with the knapsack oracle;
2. walk windows in decreasing score, placing each whose arc is
   interior-disjoint from everything placed so far
   (:class:`~repro.geometry.interval_set.CircularIntervalSet` answers the
   freeness query), until ``k`` antennas are placed;
3. deduplicate boundary customers during assembly.

**Quality.**  A charging argument sketches a constant factor: map every
window of the disjoint optimum to a canonical window covering its served
set (rotation lemma; score >= oracle factor times its value).  Each such
canonical window is either chosen, or out-scored by all k chosen windows,
or conflicts with an earlier-chosen window of no smaller score — and one
chosen arc of width ``rho`` can conflict with canonical images of at most
3 disjoint optimal arcs (their starts are customers inside disjoint
``rho``-arcs meeting a ``2*rho`` window).  This bounds the loss by a
small constant, up to boundary-customer deduplication; we do not assert a
tight constant as a theorem, and instead measure the heuristic against
the exact DP (ablation A4), where it tracks closely at a fraction of the
cost.

Complexity: ``O(n)`` oracle calls + ``O(n log n + n k)`` bookkeeping —
the same order as shifting, without choosing ``t``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry.arcs import Arc
from repro.geometry.interval_set import CircularIntervalSet
from repro.knapsack.api import KnapsackSolver
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.numerics import fits


def solve_insertion(
    instance: AngleInstance,
    oracle: KnapsackSolver,
    boundary_fill: bool = True,
) -> AngleSolution:
    """Non-overlapping packing by conflict-greedy window insertion.

    Identical antennas only (the score table is shared); the returned
    solution satisfies ``verify(instance, require_disjoint=True)``.
    Sweeps and prefix sums come from ``instance.compile()``.
    """
    if not instance.has_uniform_antennas:
        raise ValueError("insertion heuristic requires identical antennas")
    n, k = instance.n, instance.k
    if n == 0:
        return AngleSolution.empty(instance)
    compiled = instance.compile()
    spec = instance.antennas[0]

    sweep = compiled.sweep(spec.rho)
    demand_sums = sweep.window_sums_from_prefix(compiled.demand_prefix)
    ids = sweep.unique_window_ids()
    starts = np.empty(ids.size)
    values = np.empty(ids.size)
    picks: List[np.ndarray] = []
    for a, wid in enumerate(ids):
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

    occupied = CircularIntervalSet()
    chosen: List[int] = []
    for a in np.argsort(-values, kind="stable"):
        if len(chosen) >= k:
            break
        if values[a] <= 0:
            break
        arc = Arc(float(starts[a]), spec.rho)
        if occupied.is_free(arc):
            occupied.add(arc)
            chosen.append(int(a))

    assignment = np.full(n, -1, dtype=np.int64)
    orientations = np.zeros(k, dtype=np.float64)
    taken = np.zeros(n, dtype=bool)
    for j, a in enumerate(chosen):
        sel = picks[a]
        fresh = sel[~taken[sel]]
        assignment[fresh] = j
        taken[fresh] = True
        orientations[j] = float(starts[a])
    if boundary_fill:
        from repro.packing.local_search import fill_active_antennas

        fill_active_antennas(instance, orientations, assignment)
    return AngleSolution(orientations=orientations, assignment=assignment)
