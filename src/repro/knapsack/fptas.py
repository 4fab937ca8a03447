"""Profit-scaling FPTAS for 0/1 knapsack: ``value >= (1 - eps) * OPT``.

Standard construction (Ibarra–Kim style).  Let ``P`` be the largest profit
of any item that fits alone and ``mu = eps * P / n``.  Scale every profit to
``floor(p_i / mu)`` and run the exact min-weight-per-scaled-profit dynamic
program (:func:`repro.knapsack.profit_dp.min_weight_dp`, the core of the
exact profit DP), whose table has at most ``n^2 / eps + n`` columns.  For
the optimal set ``S*``::

    q(S*) >= sum_i (p_i/mu - 1) >= OPT/mu - n

The DP returns a feasible set ``S`` with ``q(S) >= q(S*)``, hence::

    value(S) >= mu * q(S) >= OPT - n*mu = OPT - eps*P >= (1 - eps) * OPT

using ``P <= OPT`` (the best single fitting item is itself feasible).

Items whose scaled profit is zero contribute ``< mu`` each, so the DP
skips them at a total cost of at most ``eps * P`` (accounted for above).
"""

from __future__ import annotations

import numpy as np

from repro.knapsack.api import KnapsackResult, _as_arrays
from repro.knapsack.profit_dp import min_weight_dp
from repro.obs.metrics import get_registry

#: Safety cap on DP cells (columns x items for the choice bitmap).
_MAX_DP_CELLS = 80_000_000

# FPTAS telemetry: scaled-table pressure and the best-single-item rescue
# (contract: docs/OBSERVABILITY.md).
_REG = get_registry()
_DP_CELLS = _REG.counter("fptas.dp_cells")
_SINGLE_FALLBACK = _REG.counter("fptas.single_item_fallback")


def solve_fptas(weights, profits, capacity: float, eps: float = 0.1) -> KnapsackResult:
    """(1 - eps)-approximate 0/1 knapsack in ``O(n^3 / eps)`` worst case.

    Raises ``ValueError`` for ``eps`` outside ``(0, 1)`` or when the scaled
    DP table would exceed the safety cap (pick a larger ``eps``).
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    w, p = _as_arrays(weights, profits)
    cap = max(0.0, float(capacity))
    n = w.size
    if n == 0:
        return KnapsackResult.empty()

    fits = (w <= cap * (1.0 + 1e-12)) & (p > 0)
    idx = np.flatnonzero(fits)
    if idx.size == 0:
        return KnapsackResult.empty()
    wf, pf = w[idx], p[idx]
    m = idx.size

    P = float(pf.max())
    mu = eps * P / m
    scaled = np.floor(pf / mu + 1e-12).astype(np.int64)
    Q = int(scaled.sum())
    if (Q + 1) * (m + 1) > _MAX_DP_CELLS:
        raise ValueError(
            f"FPTAS table {m} x {Q} exceeds cap; increase eps (got {eps})"
        )
    _DP_CELLS.inc((Q + 1) * (m + 1))

    chosen = idx[min_weight_dp(wf, scaled, cap)]
    result = KnapsackResult.of(np.asarray(chosen, dtype=np.intp), w, p)
    # The scaled optimum can be beaten by the best single item when
    # everything scales to zero; never return worse than that.
    best_single = idx[int(np.argmax(pf))]
    if p[best_single] > result.value:
        _SINGLE_FALLBACK.inc()
        return KnapsackResult.of(np.array([best_single], dtype=np.intp), w, p)
    return result
