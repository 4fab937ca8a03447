"""Exact 0/1 knapsack by min-weight-per-profit DP (integral profits).

The complement of :func:`repro.knapsack.exact.solve_exact_integer`: that DP
is ``O(n * C)`` over integral *weights*; this one is ``O(n * P)`` over
integral *profits* (``P`` = total profit) and handles arbitrary float
weights.  Its core, :func:`min_weight_dp`, is the one DP the FPTAS
(:mod:`repro.knapsack.fptas`) also runs on its scaled profits; with the
paper's profit-equals-demand objective on integer demands either exact DP
applies.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.knapsack.api import KnapsackResult, _as_arrays
from repro.knapsack.exact import _is_integral
from repro.resilience.budget import tick_nodes as _budget_tick

#: Safety cap on DP cells (items x profit columns).
_MAX_DP_CELLS = 50_000_000


def min_weight_dp(weights: np.ndarray, profits: np.ndarray,
                  capacity: float) -> List[int]:
    """Positions of a max-profit subset within ``capacity``, ascending.

    ``profits`` are non-negative integers.  ``dp[q]`` is the minimum weight
    achieving profit exactly ``q``; the answer is the largest ``q`` with
    ``dp[q] <= capacity``, reconstructed from the per-item choice bitmap.
    Vectorized over the profit axis (one shifted ``minimum`` per item,
    zero-profit items skipped); ticks the ambient budget once per item row.
    The caller bounds the table size.
    """
    m = int(profits.size)
    total = int(profits.sum())
    dp = np.full(total + 1, np.inf)
    dp[0] = 0.0
    take = np.zeros((m, total + 1), dtype=bool)
    for j in range(m):
        _budget_tick()
        q = int(profits[j])
        if q == 0:
            continue
        cand = dp[: total + 1 - q] + weights[j]
        improved = cand < dp[q:]
        take[j, q:] = improved
        np.minimum(dp[q:], cand, out=dp[q:])
    q = int(np.flatnonzero(dp <= capacity * (1.0 + 1e-12)).max())
    chosen = []
    for j in range(m - 1, -1, -1):
        if q >= 0 and take[j, q]:
            chosen.append(j)
            q -= int(profits[j])
    return chosen[::-1]


def solve_exact_by_profit(weights, profits, capacity: float) -> KnapsackResult:
    """Optimal solution for integral profits via min-weight DP.

    ``dp[q]`` is the minimum weight achieving profit exactly ``q``; the
    answer is the largest ``q`` with ``dp[q] <= capacity``.  Vectorized
    over the profit axis (one shifted ``minimum`` per item).  Raises
    ``ValueError`` on non-integral profits or an oversized table.
    """
    w, p = _as_arrays(weights, profits)
    if not _is_integral(p):
        raise ValueError("solve_exact_by_profit requires integral profits")
    cap = max(0.0, float(capacity))
    n = w.size
    if n == 0:
        return KnapsackResult.empty()
    fits = (w <= cap * (1.0 + 1e-12)) & (p > 0)
    idx = np.flatnonzero(fits)
    # zero-profit items never help; unfitting items never legal
    if idx.size == 0:
        return KnapsackResult.empty()
    pf = np.round(p[idx]).astype(np.int64)
    m = idx.size
    P = int(pf.sum())
    if (P + 1) * (m + 1) > _MAX_DP_CELLS:
        raise ValueError(
            f"profit DP table {m} x {P} exceeds cap; use branch & bound"
        )
    chosen = idx[min_weight_dp(w[idx], pf, cap)]
    return KnapsackResult.of(np.asarray(chosen, dtype=np.intp), w, p)
