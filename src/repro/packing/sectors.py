"""The 2-D pipeline: packing to sectors.

The sector problem reduces per antenna to an angle problem: customer ``i``
is *eligible* for antenna ``(station s, spec a)`` iff ``dist(p_i, b_s) <=
R_a``, and within the eligible set only the relative angle matters.  The
solvers here lift the 1-D machinery through that reduction:

* :func:`solve_sector_greedy` -- the main solver: global greedy over all
  antennas of all stations; each round runs a single-antenna rotation
  search on the remaining eligible customers and commits the best antenna.
  Same separable-assignment analysis as the 1-D greedy: with a
  ``beta``-approximate knapsack oracle the result is ``beta/(1+beta)``
  of the 2-D optimum.
* :func:`solve_sector_independent` -- baseline: each customer is tied to
  its nearest reachable station, stations then solve independent 1-D
  instances (no cross-station arbitration; measurably worse when coverage
  regions overlap — experiment E9).
* :func:`solve_sector_splittable` -- exact splittable optimum for fixed
  orientations via max-flow / LP over the global eligibility graph; the
  upper bound used to certify the greedy.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.geometry.angles import angles_in_window
from repro.knapsack.api import KnapsackSolver
from repro.model.instance import AngleInstance, SectorInstance
from repro.model.solution import SectorSolution
from repro.obs import span as obs_span
from repro.obs.metrics import get_registry
from repro.packing.multi import solve_greedy_multi
from repro.packing.single import best_rotation

# Solver-level telemetry (contract: docs/OBSERVABILITY.md).
_REG = get_registry()
_SG_TIMER = _REG.timer("solver.sector_greedy")
_SG_ROUNDS = _REG.counter("solver.sector_greedy.rounds")
_SI_TIMER = _REG.timer("solver.sector_independent")


def sector_covered_matrix(
    instance: SectorInstance,
    orientations: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Boolean ``(n, K)``: customer inside antenna ``g``'s oriented sector."""
    ori = np.asarray(orientations, dtype=np.float64).reshape(-1)
    K = instance.total_antennas
    if ori.shape != (K,):
        raise ValueError(f"orientations must have shape ({K},), got {ori.shape}")
    masks, thetas_per, _ = instance.compile().eligibility()
    out = np.zeros((instance.n, K), dtype=bool)
    for g, s_id, spec in instance.antenna_table():
        ang = angles_in_window(thetas_per[g], float(ori[g]), spec.rho)
        out[:, g] = masks[g] & ang
    return out


def solve_exact_sector_single(
    instance: SectorInstance,
    station_id: int = 0,
    require_disjoint: bool = False,
    **exact_kwargs,
) -> "SectorSolution":
    """Exact solution for a *single-station* instance with equal radii.

    Reduces to the 1-D problem (filter by the compiled eligibility mask,
    use relative angles) and runs
    :func:`~repro.packing.exact.solve_exact_angle`.  The reduction is
    lossless when the instance has one station whose antennas share a
    radius — the canonical ground-truth path for certifying the 2-D
    heuristics against true optima (not just the splittable bound).

    The eligible set comes from
    :meth:`~repro.core.compiled.CompiledSectorInstance.eligibility` — the
    same triple every other sector solver consumes (this used to be the
    last private reach recomputation, via ``station_angle_instance``) —
    so constraint masks (``docs/SCENARIOS.md``) restrict the exact solve
    exactly as they restrict the heuristics, and the equal-radius mask is
    bit-identical to the old minimum-radius filter.

    Raises ``ValueError`` for multi-station instances or mixed radii.
    """
    from repro.packing.exact import solve_exact_angle

    if instance.m != 1:
        raise ValueError("exact sector solver supports a single station only")
    st = instance.stations[station_id]
    radii = {a.radius for a in st.antennas}
    if len(radii) != 1:
        raise ValueError("exact sector solver requires equal antenna radii")
    masks, thetas_per, _ = instance.compile().eligibility()
    g0 = next(g for g, s_id, _ in instance.antenna_table() if s_id == station_id)
    idx = np.flatnonzero(masks[g0])
    sub = AngleInstance(
        thetas=thetas_per[g0][idx],
        demands=instance.demands[idx],
        profits=instance.profits[idx],
        antennas=st.antennas,
    )
    sol = solve_exact_angle(sub, require_disjoint=require_disjoint, **exact_kwargs)
    assignment = np.full(instance.n, -1, dtype=np.int64)
    served = sol.assignment >= 0
    assignment[idx[served]] = sol.assignment[served]
    return SectorSolution(
        orientations=sol.orientations.copy(), assignment=assignment
    )


def solve_exact_sector(
    instance: SectorInstance,
    max_tuples: int = 200_000,
    max_nodes_per_tuple: int = 500_000,
) -> "SectorSolution":
    """Globally optimal 2-D solution for *small* instances (any stations).

    Enumerates, per global antenna, the canonical orientations over its
    eligible customers' relative angles (deduplicated by coverage), and
    runs the shared exact assignment branch & bound
    (:func:`repro.packing.exact.exact_assignment`) on every orientation
    tuple, with a cheap union-coverage bound pruning dominated tuples.
    Exponential — intended for certifying the 2-D heuristics at
    ``n <= ~12`` with a handful of antennas; raises ``RuntimeError`` when
    the enumeration exceeds ``max_tuples``.
    """
    import itertools

    from repro.packing.exact import exact_assignment

    n = instance.n
    K = instance.total_antennas
    if n == 0:
        return SectorSolution.empty(instance)
    compiled = instance.compile()
    masks, thetas_per, _ = compiled.eligibility()
    table = instance.antenna_table()

    # Candidate orientations + their coverage columns, per antenna.
    cand_starts: List[List[float]] = []
    cand_cols: List[List[np.ndarray]] = []
    total = 1
    for g, s_id, spec in table:
        idx = np.flatnonzero(masks[g])
        starts: List[float] = []
        cols: List[np.ndarray] = []
        if idx.size:
            sweep = compiled.station(s_id).subset_sweep(idx, spec.rho)
            seen: set = set()
            for wid in sweep.unique_window_ids():
                w = sweep.window(int(wid))
                covered = idx[w.indices]
                key = frozenset(covered.tolist())
                if key in seen:
                    continue
                seen.add(key)
                col = np.zeros(n, dtype=bool)
                col[covered] = True
                starts.append(w.start)
                cols.append(col)
        if not starts:
            starts.append(0.0)
            cols.append(np.zeros(n, dtype=bool))
        cand_starts.append(starts)
        cand_cols.append(cols)
        total *= len(starts)
        if total > max_tuples:
            raise RuntimeError(
                f"sector orientation enumeration exceeds {max_tuples} tuples"
            )

    caps = np.array([spec.capacity for _, _, spec in table])
    best_value = -1.0
    best: Optional[SectorSolution] = None
    for choice in itertools.product(*(range(len(c)) for c in cand_starts)):
        cover = np.stack(
            [cand_cols[g][choice[g]] for g in range(K)], axis=1
        )
        union = cover.any(axis=1)
        if float(instance.profits[union].sum()) <= best_value + 1e-12:
            continue
        assignment = exact_assignment(
            cover,
            instance.demands,
            instance.profits,
            caps,
            max_nodes=max_nodes_per_tuple,
        )
        value = float(instance.profits[assignment >= 0].sum())
        if value > best_value:
            best_value = value
            best = SectorSolution(
                orientations=np.array(
                    [cand_starts[g][choice[g]] for g in range(K)]
                ),
                assignment=assignment,
            )
    assert best is not None
    return best


def solve_sector_greedy(
    instance: SectorInstance,
    oracle: KnapsackSolver,
    adaptive: bool = True,
) -> SectorSolution:
    """Global greedy over every antenna of every station.

    ``adaptive=True`` re-evaluates all unused antennas each round and
    commits the single best (the separable-assignment greedy);
    ``adaptive=False`` processes antennas once in decreasing capacity
    order (k× fewer oracle calls, same guarantee).  The per-round
    rotation searches derive their subset sweeps from the per-station
    sorted angles of ``instance.compile()`` instead of re-sorting.
    """
    n = instance.n
    K = instance.total_antennas
    t0 = time.perf_counter()
    compiled = instance.compile()
    assignment = np.full(n, -1, dtype=np.int64)
    orientations = np.zeros(K, dtype=np.float64)
    remaining = np.ones(n, dtype=bool)
    masks, thetas_per, _ = compiled.eligibility()
    table = instance.antenna_table()

    def run_rotation(g: int):
        s_id, spec = table[g][1], table[g][2]
        avail = remaining & masks[g]
        idx = np.flatnonzero(avail)
        out = best_rotation(
            thetas_per[g][idx],
            instance.demands[idx],
            instance.profits[idx],
            spec,
            oracle,
            sweep=compiled.station(s_id).subset_sweep(idx, spec.rho),
        )
        return out, idx

    rounds = 0
    with obs_span("solver.sector_greedy", n=int(n), antennas=int(K),
                  adaptive=bool(adaptive)) as sp:
        if adaptive:
            unused = set(range(K))
            while unused:
                best_g, best_out, best_idx = -1, None, None
                for g in sorted(unused):
                    out, idx = run_rotation(g)
                    if best_out is None or out.value > best_out.value:
                        best_g, best_out, best_idx = g, out, idx
                assert best_out is not None and best_idx is not None
                rounds += 1
                if best_out.value <= 0.0:
                    break
                chosen = best_idx[best_out.selected]
                assignment[chosen] = best_g
                orientations[best_g] = best_out.alpha
                remaining[chosen] = False
                unused.discard(best_g)
        else:
            order = sorted(range(K), key=lambda g: -table[g][2].capacity)
            for g in order:
                out, idx = run_rotation(g)
                rounds += 1
                chosen = idx[out.selected]
                assignment[chosen] = g
                orientations[g] = out.alpha
                remaining[chosen] = False
        sp.set(rounds=rounds)
    _SG_ROUNDS.inc(rounds)
    _SG_TIMER.observe(time.perf_counter() - t0)
    return SectorSolution(orientations=orientations, assignment=assignment)


def solve_sector_independent(
    instance: SectorInstance,
    oracle: KnapsackSolver,
) -> SectorSolution:
    """Baseline: nearest-station partition, then independent 1-D solves.

    Each customer is tied to the nearest station whose maximum antenna
    radius reaches it (unreachable customers are dropped).  Stations then
    run the 1-D greedy multi solver on their private customers.  No
    cross-station arbitration — the measured gap to
    :func:`solve_sector_greedy` is experiment E9's headline.  Constraint
    masks (``docs/SCENARIOS.md``) restrict the homing step: a customer is
    tied to its nearest *effective* station, never to one a constraint
    masks out.
    """
    n = instance.n
    K = instance.total_antennas
    t0 = time.perf_counter()
    compiled = instance.compile()
    assignment = np.full(n, -1, dtype=np.int64)
    orientations = np.zeros(K, dtype=np.float64)
    # Station of each customer: nearest effective reaching station or -1.
    max_radii = np.array(
        [st.max_radius for st in instance.stations], dtype=np.float64
    )
    cmasks = compiled.constraint_masks()
    dist = np.full((n, instance.m), np.inf)
    for s_id in range(instance.m):
        rs = compiled.station(s_id).rs
        reach = rs <= max_radii[s_id] * (1.0 + 1e-12)
        if cmasks is not None:
            reach = reach & cmasks[s_id]
        dist[reach, s_id] = rs[reach]
    home = np.where(np.isfinite(dist.min(axis=1)), dist.argmin(axis=1), -1)

    # Global antenna id of each station's local antennas.
    g_of: dict = {}
    for g, s_id, _ in instance.antenna_table():
        g_of.setdefault(s_id, []).append(g)

    for s_id in range(instance.m):
        mine = np.flatnonzero(home == s_id)
        if mine.size == 0:
            continue
        st = instance.stations[s_id]
        station = compiled.station(s_id)
        thetas, rs = station.thetas, station.rs
        # Per-station 1-D instance over the customers within the *minimum*
        # antenna radius (conservative for mixed radii, exact when equal).
        r_min = min(a.radius for a in st.antennas)
        ok = mine[rs[mine] <= r_min * (1.0 + 1e-12)]
        if ok.size == 0:
            continue
        sub = AngleInstance(
            thetas=thetas[ok],
            demands=instance.demands[ok],
            profits=instance.profits[ok],
            antennas=st.antennas,
        )
        sol = solve_greedy_multi(sub, oracle)
        for local_j, g in enumerate(g_of[s_id]):
            orientations[g] = sol.orientations[local_j]
        served = sol.assignment >= 0
        assignment[ok[served]] = np.array(
            [g_of[s_id][int(j)] for j in sol.assignment[served]], dtype=np.int64
        )
    _SI_TIMER.observe(time.perf_counter() - t0)
    return SectorSolution(orientations=orientations, assignment=assignment)


def improve_sector_solution(
    instance: SectorInstance,
    solution: "SectorSolution",
    oracle: KnapsackSolver,
    max_rounds: int = 5,
) -> "SectorSolution":
    """Monotone local search on a 2-D solution (the sector analogue of
    :func:`repro.packing.local_search.improve_solution`).

    One move: free a single antenna, re-run its rotation search over every
    customer not served by the *other* antennas (restricted to its own
    eligibility disk), and keep the better of old/new.  Value never
    decreases; terminates at a fixed point or after ``max_rounds`` passes.
    """
    assignment = solution.assignment.copy()
    orientations = solution.orientations.copy()
    compiled = instance.compile()
    masks, thetas_per, _ = compiled.eligibility()
    table = instance.antenna_table()
    K = instance.total_antennas

    for _ in range(max_rounds):
        improved = False
        for g in range(K):
            s_id, spec = table[g][1], table[g][2]
            available = ((assignment == -1) | (assignment == g)) & masks[g]
            idx = np.flatnonzero(available)
            if idx.size == 0:
                continue
            out = best_rotation(
                thetas_per[g][idx],
                instance.demands[idx],
                instance.profits[idx],
                spec,
                oracle,
                sweep=compiled.station(s_id).subset_sweep(idx, spec.rho),
            )
            current = float(instance.profits[assignment == g].sum())
            if out.value > current + 1e-12:
                assignment[assignment == g] = -1
                chosen = idx[out.selected]
                assignment[chosen] = g
                orientations[g] = out.alpha
                improved = True
        if not improved:
            break
    return SectorSolution(orientations=orientations, assignment=assignment)


def solve_sector_splittable(
    instance: SectorInstance,
    orientations: Sequence[float] | np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Exact splittable optimum for fixed orientations.

    Returns ``(fractions, value)`` with ``fractions`` of shape ``(n, K)``.
    Max-flow fast path when profit equals demand, LP otherwise.  The value
    upper-bounds every unsplittable solution at these orientations.
    """
    ori = np.asarray(orientations, dtype=np.float64).reshape(-1)
    cover = sector_covered_matrix(instance, ori)
    n, K = instance.n, instance.total_antennas
    caps = np.array([spec.capacity for _, _, spec in instance.antenna_table()])
    fractions = np.zeros((n, K), dtype=np.float64)
    if n == 0:
        return fractions, 0.0
    if bool(np.array_equal(instance.profits, instance.demands)):
        g = nx.DiGraph()
        for i in range(n):
            d = float(instance.demands[i])
            covering = np.flatnonzero(cover[i])
            if covering.size == 0:
                continue
            g.add_edge("s", ("c", i), capacity=d)
            for j in covering:
                g.add_edge(("c", i), ("a", int(j)), capacity=d)
        for j in range(K):
            g.add_edge(("a", j), "t", capacity=float(caps[j]))
        if "s" in g and "t" in g:
            _, flow = nx.maximum_flow(g, "s", "t")
            for i in range(n):
                node = ("c", i)
                if node in flow:
                    for tgt, f in flow[node].items():
                        if f > 0:
                            fractions[i, tgt[1]] = f / float(instance.demands[i])
    else:
        pairs = np.argwhere(cover)
        nv = pairs.shape[0]
        if nv:
            c = -instance.profits[pairs[:, 0]]
            rows, cols, vals = [], [], []
            for v, (i, j) in enumerate(pairs):
                rows.append(int(i)); cols.append(v); vals.append(1.0)
                rows.append(n + int(j)); cols.append(v)
                vals.append(float(instance.demands[i]))
            A = sp.csr_matrix((vals, (rows, cols)), shape=(n + K, nv))
            b = np.concatenate([np.ones(n), caps])
            res = linprog(c, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
            if not res.success:  # pragma: no cover
                raise RuntimeError(f"sector splittable LP failed: {res.message}")
            fractions[pairs[:, 0], pairs[:, 1]] = np.clip(res.x, 0.0, 1.0)
    np.clip(fractions, 0.0, 1.0, out=fractions)
    value = float((instance.profits * fractions.sum(axis=1)).sum())
    return fractions, value
