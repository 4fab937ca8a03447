"""Multi-antenna solvers for packing to angles.

Two complementary algorithms:

**Greedy multi-knapsack** (:func:`solve_greedy_multi`).  Antennas are
processed one at a time; each solves a single-antenna rotation search
(:func:`~repro.packing.single.best_rotation`) over the *remaining*
customers and keeps what it packs.  This is the greedy algorithm for
separable assignment problems (Fleischer–Goemans–Mirrokni–Sviridenko):
with a ``beta``-approximate single-antenna oracle the result is a
``beta / (1 + beta)``-approximation of the overall optimum — ``1/2`` with
an exact oracle, ``(1-eps)/(2-eps)`` with the FPTAS.  The *adaptive*
variant re-evaluates every unused antenna each round and commits the best
(never worse in practice, same guarantee).

**Non-overlapping circular DP** (:func:`solve_non_overlapping_dp`).  For
the variant where active arcs must be pairwise interior-disjoint.  Window
profits over the enriched candidate grid
(:func:`~repro.packing.canonical.rotation_candidates`) are precomputed
with the knapsack oracle over *half-open* windows ``[s, s + rho)`` — so
stacked windows sharing a boundary never both claim a boundary customer —
and a cyclic DP then selects the best feasible set of (window, antenna)
placements.  Because chosen arcs are disjoint and coverages half-open,
the per-window packings compose exactly, so the DP is optimal *for this
variant* up to the oracle's factor (the only loss is the measure-zero
case of a customer exactly ``rho`` past a window start that no other
window can serve).  For identical antennas the DP runs in ``O(|S|^2 k)``; for
heterogeneous antennas it tracks a bitmask of used antennas
(``O(|S|^2 2^k k)``, small ``k`` only).
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.angles import TWO_PI, ccw_delta
from repro.knapsack.api import KnapsackSolver
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.numerics import fits
from repro.obs import span
from repro.obs.metrics import get_registry
from repro.packing.single import best_rotation
from repro.resilience.budget import checkpoint as _budget_checkpoint
from repro.resilience.budget import tick_nodes as _budget_tick

# Solver-level telemetry (contract: docs/OBSERVABILITY.md).
_REG = get_registry()
_GM_TIMER = _REG.timer("solver.greedy_multi")
_GM_ROUNDS = _REG.counter("solver.greedy_multi.rounds")
_DP_TIMER = _REG.timer("solver.non_overlapping_dp")
_DP_TABLES = _REG.timer("phase.dp.profit_tables")
_DP_SEARCH = _REG.timer("phase.dp.search")
_DP_ASSEMBLE = _REG.timer("phase.dp.assemble")


def solve_greedy_multi(
    instance: AngleInstance,
    oracle: KnapsackSolver,
    adaptive: bool = False,
    antenna_order: Optional[Sequence[int]] = None,
) -> AngleSolution:
    """Greedy multi-antenna packing; ``beta/(1+beta)``-approximation.

    Parameters
    ----------
    instance:
        The 1-D instance.
    oracle:
        Inner knapsack solver (its ``guarantee`` is ``beta``).
    adaptive:
        When true, every round evaluates *all* unused antennas and commits
        the best (k x more oracle work).  When false, antennas are
        processed in ``antenna_order`` (default: decreasing capacity).
    antenna_order:
        Explicit processing order for the non-adaptive mode.

    The first round reuses the full-instance sweeps and prefix sums of
    ``instance.compile()``; later rounds derive subset sweeps from it
    without re-sorting.
    """
    n, k = instance.n, instance.k
    t0 = time.perf_counter()
    compiled = instance.compile()
    assignment = np.full(n, -1, dtype=np.int64)
    orientations = np.zeros(k, dtype=np.float64)
    remaining = np.ones(n, dtype=bool)

    if antenna_order is None:
        antenna_order = list(np.argsort([-a.capacity for a in instance.antennas]))
    else:
        antenna_order = list(antenna_order)
        if sorted(antenna_order) != list(range(k)):
            raise ValueError("antenna_order must be a permutation of range(k)")

    def run_rotation(j: int):
        spec = instance.antennas[j]
        idx = np.flatnonzero(remaining)
        if idx.size == n:
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
        else:
            out = best_rotation(
                instance.thetas[idx],
                instance.demands[idx],
                instance.profits[idx],
                spec,
                oracle,
                sweep=compiled.subset_sweep(idx, spec.rho),
            )
        return out, idx

    rounds = 0
    with span("solver.greedy_multi", n=int(n), k=int(k),
              adaptive=bool(adaptive)) as sp:
        if not adaptive:
            for j in antenna_order:
                _budget_checkpoint()  # cooperative deadline (ambient budget)
                out, idx = run_rotation(j)
                rounds += 1
                chosen = idx[out.selected]
                assignment[chosen] = j
                orientations[j] = out.alpha
                remaining[chosen] = False
        else:
            unused = set(range(k))
            while unused:
                best_j, best_out, best_idx = -1, None, None
                for j in sorted(unused):
                    _budget_checkpoint()  # cooperative deadline (ambient budget)
                    out, idx = run_rotation(j)
                    if best_out is None or out.value > best_out.value:
                        best_j, best_out, best_idx = j, out, idx
                assert best_out is not None and best_idx is not None
                rounds += 1
                if best_out.value <= 0.0:
                    break  # nothing left worth serving
                chosen = best_idx[best_out.selected]
                assignment[chosen] = best_j
                orientations[best_j] = best_out.alpha
                remaining[chosen] = False
                unused.discard(best_j)
        sp.set(rounds=rounds)
    _GM_ROUNDS.inc(rounds)
    _GM_TIMER.observe(time.perf_counter() - t0)
    return AngleSolution(orientations=orientations, assignment=assignment)


# ----------------------------------------------------------------------
# Non-overlapping circular DP
# ----------------------------------------------------------------------
def _window_profit_tables(
    instance: AngleInstance,
    candidates: np.ndarray,
    oracle: KnapsackSolver,
) -> Tuple[dict, dict]:
    """Oracle value for every (distinct antenna spec, candidate start).

    Returns ``(profits, picks)`` keyed by ``(rho, capacity)``: arrays of
    window values and per-window oracle selections (original indices).
    Identical specs share one table; sweeps come from ``instance.compile()``.
    """
    compiled = instance.compile()
    profits: dict = {}
    picks: dict = {}
    for spec in instance.antennas:
        key = (spec.rho, spec.capacity)
        if key in profits:
            continue
        sweep = compiled.sweep(spec.rho)
        vals = np.zeros(candidates.size, dtype=np.float64)
        sels: List[np.ndarray] = []
        for c_id, s in enumerate(candidates):
            _budget_tick()  # amortized ambient-budget check
            # Half-open windows: stacked windows sharing a boundary must not
            # both count a customer sitting exactly on it (the DP sums
            # window profits, so closed ends would double-count).
            w = sweep.window_at(float(s), closed_end=False)
            cov = w.indices
            if cov.size == 0:
                sels.append(np.empty(0, dtype=np.intp))
                continue
            total_dem = float(instance.demands[cov].sum())
            if fits(total_dem, spec.capacity):
                vals[c_id] = float(instance.profits[cov].sum())
                sels.append(cov.copy())
            else:
                res = oracle.solve(
                    instance.demands[cov], instance.profits[cov], spec.capacity
                )
                vals[c_id] = res.value
                sels.append(cov[res.selected])
        profits[key] = vals
        picks[key] = sels
    return profits, picks


def solve_non_overlapping_dp(
    instance: AngleInstance,
    oracle: KnapsackSolver,
    candidates: Optional[np.ndarray] = None,
    max_mask_antennas: int = 12,
    boundary_fill: bool = True,
) -> AngleSolution:
    """Optimal non-overlapping rotation (up to the oracle's factor).

    The returned solution satisfies the disjointness constraint
    (``verify(instance, require_disjoint=True)`` passes) and its value is
    at least ``oracle.guarantee`` times the optimal *non-overlapping*
    value.  Note this variant's optimum can be strictly below the general
    optimum (overlapping arcs help on hotspots); see experiment E5.
    The default candidate grid is the memoized one of ``instance.compile()``.
    """
    n, k = instance.n, instance.k
    if n == 0:
        return AngleSolution.empty(instance)
    if k > max_mask_antennas:
        raise ValueError(
            f"non-overlapping DP tracks an antenna bitmask; k={k} too large"
        )
    if candidates is None:
        candidates = instance.compile().candidates()
    candidates = np.sort(np.asarray(candidates, dtype=np.float64))
    widths = [a.rho for a in instance.antennas]
    m = candidates.size
    t_solve = time.perf_counter()
    with span("solver.non_overlapping_dp", n=int(n), k=int(k),
              candidates=int(m)) as sp:
        with _DP_TABLES.time():
            prof_tab, pick_tab = _window_profit_tables(
                instance, candidates, oracle
            )
        keys = [(a.rho, a.capacity) for a in instance.antennas]
        uniform = len(set(keys)) == 1
        t_search = time.perf_counter()

        # Group antennas by spec: the DP only needs *how many* of each spec are
        # still available, but for simplicity (and small k) we use a bitmask in
        # the heterogeneous case and a counter in the uniform case.
        best_total = -1.0
        best_placements: List[Tuple[float, int]] = []  # (start, antenna)

        for f in range(m):
            _budget_checkpoint()  # cooperative deadline (ambient budget)
            s0 = float(candidates[f])
            # Linearize: offsets of every candidate from s0, ascending.
            offs = np.array([ccw_delta(s0, float(c)) for c in candidates])
            order = np.argsort(offs, kind="stable")
            lin_starts = offs[order]  # lin_starts[0] == 0 (candidate f itself)
            lin_ids = order

            if uniform:
                placements, total = _dp_uniform(
                    lin_starts, lin_ids, prof_tab[keys[0]], widths[0], k
                )
                if total > best_total and placements:
                    best_total = total
                    best_placements = [
                        (float(candidates[cid]), j)
                        for j, (pos, cid) in enumerate(placements)
                    ]
            else:
                placements, total = _dp_bitmask(
                    lin_starts, lin_ids, prof_tab, keys, widths
                )
                if total > best_total and placements:
                    best_total = total
                    best_placements = [
                        (float(candidates[cid]), ant) for cid, ant in placements
                    ]

        _DP_SEARCH.observe(time.perf_counter() - t_search)
        t_assemble = time.perf_counter()
        # Assemble the final assignment, deduplicating boundary customers.
        assignment = np.full(n, -1, dtype=np.int64)
        orientations = np.zeros(k, dtype=np.float64)
        used_antennas = set()
        taken = np.zeros(n, dtype=bool)
        for start, j in best_placements:
            spec = instance.antennas[j]
            key = (spec.rho, spec.capacity)
            c_id = int(np.searchsorted(candidates, start))
            # float-safe lookup of the candidate id
            if c_id >= m or not np.isclose(candidates[c_id], start, atol=1e-12):
                c_id = int(np.argmin(np.abs(candidates - start)))
            sel = pick_tab[key][c_id]
            fresh = sel[~taken[sel]]
            assignment[fresh] = j
            taken[fresh] = True
            orientations[j] = start
            used_antennas.add(j)
        if boundary_fill:
            # Recover customers on the closed ends of active arcs that the
            # half-open profit tables deliberately excluded (module docstring).
            from repro.packing.local_search import fill_active_antennas

            fill_active_antennas(instance, orientations, assignment)
        _DP_ASSEMBLE.observe(time.perf_counter() - t_assemble)
        _DP_TIMER.observe(time.perf_counter() - t_solve)
        sp.set(value=float(best_total), placements=len(best_placements))
    return AngleSolution(orientations=orientations, assignment=assignment)


def _dp_uniform(
    lin_starts: np.ndarray,
    lin_ids: np.ndarray,
    profits: np.ndarray,
    rho: float,
    k: int,
) -> Tuple[List[Tuple[int, int]], float]:
    """Linear DP for identical antennas, first window fixed at position 0.

    ``lin_starts`` are candidate offsets from the first window's start
    (ascending, ``lin_starts[0] == 0``); the first window *must* be taken.
    Returns ``(placements, total)`` where placements are
    ``(linear position, candidate id)`` pairs; total is ``-inf``-like
    (negative) when even the first window violates the wrap constraint.
    """
    m = lin_starts.size
    horizon = TWO_PI - rho  # last start must satisfy start + rho <= 2*pi
    if horizon < -1e-12:
        return [], -1.0
    # jump[i] = first position with start >= lin_starts[i] + rho
    jump = np.searchsorted(lin_starts, lin_starts + rho - 1e-12, side="left")
    # valid[i]: window at i fits before wrapping into the first window
    valid = lin_starts <= horizon + 1e-12
    pvals = profits[lin_ids]

    NEG = -np.inf
    # dp[t][i] = best additional profit from positions >= i using <= t windows
    dp = np.zeros((k + 1, m + 1), dtype=np.float64)
    choice = np.zeros((k + 1, m), dtype=bool)
    for t in range(1, k + 1):
        for i in range(m - 1, -1, -1):
            skip = dp[t, i + 1]
            take = NEG
            if valid[i] and pvals[i] > 0:
                nxt = int(jump[i])
                take = pvals[i] + dp[t - 1, nxt]
            if take > skip:
                dp[t, i] = take
                choice[t, i] = True
            else:
                dp[t, i] = skip
    # First window is forced at position 0.
    if not valid[0]:
        return [], -1.0
    total = pvals[0] + dp[k - 1, int(jump[0])]
    placements = [(0, int(lin_ids[0]))]
    t, i = k - 1, int(jump[0])
    while t > 0 and i < m:
        if choice[t, i]:
            placements.append((i, int(lin_ids[i])))
            i = int(jump[i])
            t -= 1
        else:
            i += 1
    return placements, float(total)


def _dp_bitmask(
    lin_starts: np.ndarray,
    lin_ids: np.ndarray,
    prof_tab: dict,
    keys: List[Tuple[float, float]],
    widths: List[float],
) -> Tuple[List[Tuple[int, int]], float]:
    """Bitmask DP for heterogeneous antennas; first placement at position 0.

    Tries every antenna as the first (position-0) placement.  Returns
    placements as ``(candidate id, antenna)`` pairs.
    """
    k = len(keys)
    m = lin_starts.size
    from functools import lru_cache

    jumps = {
        j: np.searchsorted(lin_starts, lin_starts + widths[j] - 1e-12, side="left")
        for j in range(k)
    }
    horizons = {j: TWO_PI - widths[j] for j in range(k)}
    pvals = {j: prof_tab[keys[j]][lin_ids] for j in range(k)}

    @lru_cache(maxsize=None)
    def rec(i: int, mask: int) -> float:
        if i >= m or mask == (1 << k) - 1:
            return 0.0
        best = rec(i + 1, mask)
        for j in range(k):
            if mask & (1 << j):
                continue
            if lin_starts[i] > horizons[j] + 1e-12:
                continue
            v = pvals[j][i]
            if v <= 0:
                continue
            cand = v + rec(int(jumps[j][i]), mask | (1 << j))
            if cand > best:
                best = cand
        return best

    best_total = -1.0
    best_placements: List[Tuple[int, int]] = []
    for first in range(k):
        if lin_starts[0] > horizons[first] + 1e-12:
            continue
        v0 = float(pvals[first][0])
        total = v0 + rec(int(jumps[first][0]), 1 << first)
        if total > best_total:
            best_total = total
            # Reconstruct greedily by replaying decisions.
            placements = [(int(lin_ids[0]), first)]
            i, mask = int(jumps[first][0]), 1 << first
            while i < m and mask != (1 << k) - 1:
                target = rec(i, mask)
                if np.isclose(rec(i + 1, mask), target):
                    i += 1
                    continue
                placed = False
                for j in range(k):
                    if mask & (1 << j):
                        continue
                    if lin_starts[i] > horizons[j] + 1e-12:
                        continue
                    v = pvals[j][i]
                    if v <= 0:
                        continue
                    if np.isclose(v + rec(int(jumps[j][i]), mask | (1 << j)), target):
                        placements.append((int(lin_ids[i]), j))
                        i, mask = int(jumps[j][i]), mask | (1 << j)
                        placed = True
                        break
                if not placed:  # numerical tie fallback
                    i += 1
            best_placements = placements
    rec.cache_clear()
    return best_placements, best_total
