"""Exact 0/1 knapsack: integer-weight DP and an auto-dispatching front end.

``solve_exact_integer`` is the textbook ``O(n * C)`` dynamic program over
capacities, vectorized so the inner relaxation is a single NumPy ``maximum``
over a shifted view of the DP row (no Python loop over capacities — the
HPC-guide idiom).  Reconstruction uses one bit per (item, capacity) cell.

``solve_exact_auto`` dispatches: integral weights and a small enough DP
table go to the DP; everything else goes to branch & bound, which is exact
for arbitrary float weights.
"""

from __future__ import annotations

import numpy as np

from repro.knapsack.api import KnapsackResult, _as_arrays
from repro.obs.metrics import get_registry
from repro.resilience.budget import tick_nodes as _budget_tick

#: Refuse DP tables bigger than this many cells; fall back to B&B instead.
_MAX_DP_CELLS = 50_000_000

# Dispatch telemetry: which backend actually solved each exact call
# (contract: docs/OBSERVABILITY.md).
_REG = get_registry()
_DISPATCH_INT_DP = _REG.counter("oracle.dispatch.integer_dp")
_DISPATCH_PROFIT_DP = _REG.counter("oracle.dispatch.profit_dp")
_DISPATCH_BB = _REG.counter("oracle.dispatch.branch_bound")


def _is_integral(arr: np.ndarray) -> bool:
    return bool(np.allclose(arr, np.round(arr), rtol=0.0, atol=1e-9))


def solve_exact_integer(weights, profits, capacity: float) -> KnapsackResult:
    """Optimal solution for integral weights via capacity DP.

    ``weights`` must be (numerically) integral and ``capacity`` is floored
    to an integer — for integral weights the usable capacity is ``floor(C)``.

    Complexity ``O(n * C)`` time, ``O(n * C / 8)`` bytes for the choice
    bitmap.  Raises ``ValueError`` on non-integral weights or a table above
    the safety cap.
    """
    w, p = _as_arrays(weights, profits)
    if not _is_integral(w):
        raise ValueError("solve_exact_integer requires integral weights")
    cap = int(np.floor(capacity + 1e-9))
    n = w.size
    if n == 0 or cap <= 0:
        # items of weight 0 still fit when cap == 0
        free = np.flatnonzero((w <= 1e-9) & (p > 0))
        return KnapsackResult.of(free, w, p)
    wi = np.round(w).astype(np.int64)
    if (n + 1) * (cap + 1) > _MAX_DP_CELLS:
        raise ValueError(
            f"DP table {n} x {cap} exceeds cap; use branch & bound instead"
        )
    # dp[c] = best profit using a prefix of items within capacity c.
    dp = np.zeros(cap + 1, dtype=np.float64)
    take = np.zeros((n, cap + 1), dtype=bool)
    for i in range(n):
        _budget_tick()  # amortized ambient-budget check per DP row
        wt = int(wi[i])
        if wt > cap:
            continue
        if wt == 0:
            if p[i] > 0:
                dp += p[i]
                take[i, :] = True
            continue
        cand = dp[: cap + 1 - wt] + p[i]
        improved = cand > dp[wt:]
        take[i, wt:] = improved
        np.maximum(dp[wt:], cand, out=dp[wt:])
    # Reconstruct.
    c = cap
    chosen = []
    for i in range(n - 1, -1, -1):
        if take[i, c]:
            chosen.append(i)
            c -= int(wi[i])
    return KnapsackResult.of(np.array(chosen[::-1], dtype=np.intp), w, p)


def solve_exact_auto(weights, profits, capacity: float) -> KnapsackResult:
    """Optimal solution for arbitrary inputs.

    Dispatch chain: integral weights with an affordable DP table use
    :func:`solve_exact_integer`; else integral profits use the profit DP
    (:func:`repro.knapsack.profit_dp.solve_exact_by_profit`); else the
    float branch & bound (exact, but exponential in the worst case —
    intended for the instance sizes the ground-truth experiments use).
    """
    w, p = _as_arrays(weights, profits)
    cap_int = int(np.floor(capacity + 1e-9))
    if (
        w.size
        and _is_integral(w)
        and (w.size + 1) * (cap_int + 1) <= _MAX_DP_CELLS
    ):
        _DISPATCH_INT_DP.inc()
        return solve_exact_integer(w, p, capacity)
    if w.size and _is_integral(p):
        from repro.knapsack.profit_dp import _MAX_DP_CELLS as _P_CELLS
        from repro.knapsack.profit_dp import solve_exact_by_profit

        P = int(np.round(p).sum())
        if (P + 1) * (w.size + 1) <= _P_CELLS:
            _DISPATCH_PROFIT_DP.inc()
            return solve_exact_by_profit(w, p, capacity)
    from repro.knapsack.branch_bound import solve_branch_and_bound

    _DISPATCH_BB.inc()
    return solve_branch_and_bound(w, p, capacity)
