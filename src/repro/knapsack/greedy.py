"""Greedy 1/2-approximation for 0/1 knapsack.

Algorithm: take items in decreasing profit-density order while they fit
(the "extended greedy" that keeps scanning past the first misfit), then
return the better of that packing and the single most profitable fitting
item.

Guarantee (classical): let item ``b`` be the first density-order item that
does not fit when reached by the *plain* prefix greedy.  The prefix value
``G`` plus ``p_b`` is at least the fractional optimum, which is at least
OPT.  Since the best single item is at least ``p_b``,
``max(G, best_single) >= (G + p_b) / 2 >= OPT / 2``.  The extended scan and
the full-prefix case only improve on ``G``.
"""

from __future__ import annotations

import numpy as np

from repro.core.backend import greedy_prefix_mask
from repro.knapsack.api import KnapsackResult, _as_arrays, _fits


def solve_greedy(weights, profits, capacity: float) -> KnapsackResult:
    """Density greedy + best single item; ``value >= OPT / 2``; ``O(n log n)``.

    The acceptance scan ("take while it fits, keep scanning past
    misfits") runs as the vectorized
    :func:`repro.core.backend.greedy_prefix_mask` (cumulative sums in a
    few rounds).  Same visit order and admission rule as the sequential
    loop; summation order differs by at most the one-ulp slack that
    :func:`repro.numerics.fits` is documented to absorb.
    """
    w, p = _as_arrays(weights, profits)
    n = w.size
    cap = max(0.0, float(capacity))
    if n == 0:
        return KnapsackResult.empty()

    fits = w <= cap * (1.0 + 1e-12)
    useful = fits & (p > 0)
    if not useful.any():
        return KnapsackResult.empty()
    idx = np.flatnonzero(useful)

    dens = np.where(w[idx] > 1e-12, p[idx] / np.maximum(w[idx], 1e-300), np.inf)
    order = idx[np.argsort(-dens, kind="stable")]

    greedy_sel = np.asarray(order[greedy_prefix_mask(w[order], cap)],
                            dtype=np.intp)
    greedy_value = float(p[greedy_sel].sum())

    best_single = idx[int(np.argmax(p[idx]))]
    if p[best_single] > greedy_value:
        return KnapsackResult.of(np.array([best_single], dtype=np.intp), w, p)
    return KnapsackResult.of(greedy_sel, w, p)


def solve_greedy_by_weight(weights, profits, capacity: float) -> KnapsackResult:
    """Baseline variant: smallest-weight-first greedy (no guarantee for
    general profits; for profit == weight it is the worst-case-1/2 packing
    that maximizes the number of served customers).  Used by the baseline
    comparisons in the benchmarks.
    """
    w, p = _as_arrays(weights, profits)
    cap = max(0.0, float(capacity))
    if w.size == 0:
        return KnapsackResult.empty()
    idx = np.flatnonzero((w <= cap * (1.0 + 1e-12)) & (p > 0))
    order = idx[np.argsort(w[idx], kind="stable")]
    chosen = []
    remaining = cap
    for i in order:
        if _fits(w[i], remaining):
            chosen.append(i)
            remaining -= w[i]
    return KnapsackResult.of(np.array(chosen, dtype=np.intp), w, p)
