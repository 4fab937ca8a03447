"""Splittable assignment for *fixed* orientations: exact in polynomial time.

With orientations frozen, the splittable variant is a transportation
problem.  For the paper's profit-equals-demand objective it is exactly a
maximum flow::

    source --d_i--> customer i --d_i--> antenna j (if covered) --c_j--> sink

whose value equals the maximum splittable served demand.  For general
profits it is a small LP (variables ``x[i, j]`` over covered pairs),
solved with ``scipy.optimize.linprog`` (HiGHS).

Either way the result upper-bounds the *unsplittable* optimum for the same
orientations — the bound used by the exact branch & bound and by
experiment E6 (splittable-vs-unsplittable gap).
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.model.instance import AngleInstance
from repro.model.solution import FractionalSolution


def covered_matrix(
    instance: AngleInstance, orientations: Sequence[float] | np.ndarray
) -> np.ndarray:
    """Boolean ``(n, k)`` matrix: customer ``i`` inside antenna ``j``'s arc.

    One vectorized ``(n, k)`` broadcast (no Python loop over antennas).
    """
    from repro.geometry.angles import angles_in_windows

    ori = np.asarray(orientations, dtype=np.float64).reshape(-1)
    if ori.shape != (instance.k,):
        raise ValueError(
            f"orientations must have shape ({instance.k},), got {ori.shape}"
        )
    return angles_in_windows(instance.thetas, ori, instance.widths)


def _solve_maxflow(
    instance: AngleInstance, cover: np.ndarray
) -> np.ndarray:
    """Fractions via max-flow (profit == demand fast path)."""
    n, k = instance.n, instance.k
    g = nx.DiGraph()
    src, snk = "s", "t"
    for i in range(n):
        d = float(instance.demands[i])
        g.add_edge(src, ("c", i), capacity=d)
        for j in np.flatnonzero(cover[i]):
            g.add_edge(("c", i), ("a", int(j)), capacity=d)
    for j in range(k):
        g.add_edge(("a", j), snk, capacity=float(instance.antennas[j].capacity))
    if src not in g or snk not in g:
        return np.zeros((n, k), dtype=np.float64)
    _, flow = nx.maximum_flow(g, src, snk)
    fractions = np.zeros((n, k), dtype=np.float64)
    for i in range(n):
        node = ("c", i)
        if node not in flow:
            continue
        for tgt, f in flow[node].items():
            if f > 0:
                fractions[i, tgt[1]] = f / float(instance.demands[i])
    return np.clip(fractions, 0.0, 1.0)


def _solve_lp(
    instance: AngleInstance, cover: np.ndarray
) -> np.ndarray:
    """Fractions via LP (general profits)."""
    n, k = instance.n, instance.k
    pairs = np.argwhere(cover)
    nv = pairs.shape[0]
    fractions = np.zeros((n, k), dtype=np.float64)
    if nv == 0:
        return fractions
    c = -instance.profits[pairs[:, 0]]
    rows, cols, vals = [], [], []
    # per-customer rows: sum_j x_ij <= 1
    for v, (i, j) in enumerate(pairs):
        rows.append(int(i))
        cols.append(v)
        vals.append(1.0)
    # per-antenna rows: sum_i d_i x_ij <= c_j
    for v, (i, j) in enumerate(pairs):
        rows.append(n + int(j))
        cols.append(v)
        vals.append(float(instance.demands[i]))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n + k, nv))
    b = np.concatenate([np.ones(n), instance.capacities])
    res = linprog(c, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
    if not res.success:  # pragma: no cover - HiGHS is robust on these LPs
        raise RuntimeError(f"splittable LP failed: {res.message}")
    fractions[pairs[:, 0], pairs[:, 1]] = np.clip(res.x, 0.0, 1.0)
    return fractions


def solve_splittable(
    instance: AngleInstance,
    orientations: Sequence[float] | np.ndarray,
    force_lp: bool = False,
) -> FractionalSolution:
    """Exact splittable optimum for the given orientations.

    Dispatches to max-flow when profit equals demand (``force_lp=False``),
    else to the LP.  The returned solution verifies against the instance.
    """
    ori = np.asarray(orientations, dtype=np.float64).reshape(-1)
    cover = covered_matrix(instance, ori)
    if instance.n == 0:
        return FractionalSolution(
            orientations=ori, fractions=np.zeros((0, instance.k))
        )
    if instance.profit_equals_demand and not force_lp:
        fractions = _solve_maxflow(instance, cover)
    else:
        fractions = _solve_lp(instance, cover)
    # Numerical safety: renormalize rows that exceed 1 by float noise.
    row = fractions.sum(axis=1)
    over = row > 1.0
    if over.any():
        fractions[over] /= row[over, None]
    return FractionalSolution(orientations=ori, fractions=fractions)


def splittable_value(
    instance: AngleInstance, orientations: Sequence[float] | np.ndarray
) -> float:
    """Value of the splittable optimum (upper bound for unsplittable)."""
    return solve_splittable(instance, orientations).value(instance)


def solve_unit_demand_fixed(
    instance: AngleInstance, orientations: Sequence[float] | np.ndarray
):
    """Exact *unsplittable* assignment for unit demands, in polynomial time.

    With every demand equal to 1 (and profit == demand) the fixed-
    orientation assignment is a bipartite b-matching: max-flow with the
    integer capacities ``floor(c_j)`` is integral (flow integrality on
    integer networks), so rounding the splittable flow *is* the optimal
    integral assignment — the integrality gap of E6 vanishes entirely.

    Requires ``demands == 1`` and ``profit == demand``; raises
    ``ValueError`` otherwise.  Returns an :class:`AngleSolution`.
    """
    from repro.model.solution import AngleSolution

    ori = np.asarray(orientations, dtype=np.float64).reshape(-1)
    if instance.n and not np.allclose(instance.demands, 1.0):
        raise ValueError("solve_unit_demand_fixed requires unit demands")
    if not instance.profit_equals_demand:
        raise ValueError("solve_unit_demand_fixed requires profit == demand")
    cover = covered_matrix(instance, ori)
    n, k = instance.n, instance.k
    assignment = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return AngleSolution(orientations=ori, assignment=assignment)
    g = nx.DiGraph()
    for i in range(n):
        covering = np.flatnonzero(cover[i])
        if covering.size == 0:
            continue
        g.add_edge("s", ("c", i), capacity=1)
        for j in covering:
            g.add_edge(("c", i), ("a", int(j)), capacity=1)
    for j in range(k):
        g.add_edge(("a", j), "t", capacity=int(np.floor(instance.antennas[j].capacity + 1e-9)))
    if "s" in g and "t" in g:
        _, flow = nx.maximum_flow(g, "s", "t")
        for i in range(n):
            node = ("c", i)
            if node in flow:
                for tgt, f in flow[node].items():
                    if f >= 1:  # integral flow on integer network
                        assignment[i] = tgt[1]
                        break
    return AngleSolution(orientations=ori, assignment=assignment)
