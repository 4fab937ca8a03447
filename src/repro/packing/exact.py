"""Exponential exact solvers: the ground truth for ratio certification.

Two layers:

* :func:`solve_exact_fixed_orientations` -- optimal *assignment* for frozen
  orientations (a coverage-restricted multiple knapsack), by depth-first
  branch & bound over customers with a fractional relaxation bound.
* :func:`solve_exact_angle` -- optimal solution overall, by enumerating
  canonical orientation tuples (deduplicated by coverage, symmetric tuples
  collapsed for identical antennas) and running the assignment B&B on each
  surviving tuple after cheap-bound pruning.

Intended for small instances (roughly ``n <= 20``, ``k <= 3``); both
functions guard their search budget and raise ``RuntimeError`` rather than
run away.  Every experiment that reports an approximation *ratio* against
OPT uses these solvers as the denominator.

For larger instances, :func:`solve_exact_anytime` runs the same search
under a cooperative :class:`~repro.resilience.budget.Budget` and returns
an :class:`~repro.resilience.anytime.AnytimeOutcome` — the best incumbent
found plus a *certified* lower/upper bound — instead of hanging or dying
(the resilience contract, ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.arcs import Arc, arcs_pairwise_disjoint
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.numerics import fits
from repro.obs.metrics import get_registry
from repro.packing.flow import covered_matrix
from repro.resilience.anytime import AnytimeOutcome
from repro.resilience.budget import Budget, BudgetExpired, current_budget

# Anytime-solve telemetry (contract: docs/RESILIENCE.md).
_REG = get_registry()
_ANYTIME_SOLVES = _REG.counter("resilience.anytime_solves")
_ANYTIME_GAP = _REG.gauge("resilience.anytime_gap")


def exact_assignment(
    cover: np.ndarray,
    demands: np.ndarray,
    profits: np.ndarray,
    capacities: np.ndarray,
    max_nodes: int = 2_000_000,
    budget: Optional[Budget] = None,
) -> np.ndarray:
    """Optimal coverage-restricted multiple-knapsack assignment by B&B.

    The geometry-agnostic core shared by the 1-D and 2-D exact solvers:
    ``cover`` is the boolean eligibility matrix (customer x bin), and the
    return is an ``(n,)`` bin index array (``-1`` = rejected).  Customers
    are branched in decreasing demand order; the pruning bound is the
    fractional optimum of the remaining customers into the pooled
    remaining capacity.  Raises ``RuntimeError`` past ``max_nodes``.

    Under a ``budget`` (explicit, falling back to the thread's ambient
    one) every node ticks it (the budget itself reads the clock only every
``check_stride`` ticks); on expiry
    it raises :class:`BudgetExpired` with the best incumbent so far and
    the root fractional bound attached (``exc.incumbent`` /
    ``exc.incumbent_value`` / ``exc.upper_bound``).
    """
    if budget is None:
        budget = current_budget()
    n = cover.shape[0]
    assignment = np.full(n, -1, dtype=np.int64)
    coverable = np.flatnonzero(cover.any(axis=1))
    if coverable.size == 0:
        return assignment

    # Branch order: decreasing demand (big rocks first).
    order = coverable[np.argsort(-demands[coverable], kind="stable")]
    d = demands[order]
    p = profits[order]
    cov = cover[order]
    m = order.size

    # For the fractional suffix bound: items sorted by density once.
    dens_order_global = np.argsort(-(p / d), kind="stable")

    def suffix_fractional(t: int, cap_total: float) -> float:
        """Fractional optimum of items t.. into pooled capacity."""
        bound = 0.0
        rem = cap_total
        for idx in dens_order_global:
            if idx < t:
                continue
            if rem <= 1e-15:
                break
            if d[idx] <= rem:
                bound += p[idx]
                rem -= d[idx]
            else:
                bound += p[idx] * (rem / d[idx])
                rem = 0.0
        return bound

    caps0 = np.asarray(capacities, dtype=np.float64)
    best_value = -1.0
    best_assign = np.full(m, -1, dtype=np.int64)
    nodes = 0
    cur = np.full(m, -1, dtype=np.int64)

    def dfs(t: int, caps: np.ndarray, value: float) -> None:
        nonlocal best_value, best_assign, nodes
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(
                f"exact assignment exceeded {max_nodes} nodes; instance too large"
            )
        if budget is not None:
            budget.tick()
        if value > best_value:
            best_value = value
            best_assign = cur.copy()
        if t >= m:
            return
        if value + suffix_fractional(t, float(caps.sum())) <= best_value + 1e-12:
            return
        # assign branches (most room first), then reject
        for j in np.argsort(-caps, kind="stable"):
            if cov[t, j] and fits(d[t], caps[j]):
                caps[j] -= d[t]
                cur[t] = j
                dfs(t + 1, caps, value + p[t])
                cur[t] = -1
                caps[j] += d[t]
        dfs(t + 1, caps, value)

    try:
        dfs(0, caps0.copy(), 0.0)
    except BudgetExpired as exc:
        # Anytime semantics: hand the caller the incumbent + a certified
        # upper bound (the root fractional relaxation) along with the
        # expiry, so partial work is never thrown away.
        partial = assignment.copy()
        partial[order] = best_assign
        exc.incumbent = partial
        exc.incumbent_value = max(best_value, 0.0)
        exc.upper_bound = suffix_fractional(0, float(caps0.sum()))
        raise
    assignment[order] = best_assign
    return assignment


def solve_exact_fixed_orientations(
    instance: AngleInstance,
    orientations: Sequence[float] | np.ndarray,
    max_nodes: int = 2_000_000,
    disabled: Optional[Sequence[int]] = None,
    budget: Optional[Budget] = None,
) -> AngleSolution:
    """Optimal assignment for frozen orientations by branch & bound.

    The 1-D front end of :func:`exact_assignment`: builds the arc coverage
    matrix, masks ``disabled`` antennas (used by the non-overlapping
    enumeration to model switched-off beams), and runs the shared B&B.
    """
    ori = np.asarray(orientations, dtype=np.float64).reshape(-1)
    cover = covered_matrix(instance, ori)
    if disabled is not None:
        for j in disabled:
            cover[:, int(j)] = False
    assignment = exact_assignment(
        cover,
        instance.demands,
        instance.profits,
        instance.capacities,
        max_nodes,
        budget=budget,
    )
    return AngleSolution(orientations=ori, assignment=assignment)


def _orientation_candidates(
    instance: AngleInstance, require_disjoint: bool
) -> List[List[float]]:
    """Candidate orientations per antenna, deduplicated by coverage."""
    compiled = instance.compile()
    grid = compiled.candidates() if require_disjoint else None
    out: List[List[float]] = []
    for spec in instance.antennas:
        sweep = compiled.sweep(spec.rho)
        starts: List[float] = []
        seen: set = set()
        if grid is None:
            ids = sweep.unique_window_ids()
            windows = [sweep.window(int(i)) for i in ids]
        else:
            windows = [sweep.window_at(float(s)) for s in grid]
        for w in windows:
            key = (w.lo % max(sweep.n, 1), w.hi - w.lo) if grid is None else (
                round(w.start, 12),
            )
            if key in seen:
                continue
            seen.add(key)
            starts.append(w.start)
        if not starts:
            starts.append(0.0)
        out.append(starts)
    return out


def _enumerate_exact(
    instance: AngleInstance,
    require_disjoint: bool,
    max_tuples: Optional[int],
    max_nodes_per_tuple: int,
    budget: Optional[Budget],
    seed: Optional[AngleSolution],
    seed_value: float,
) -> Tuple[Optional[AngleSolution], float, int]:
    """Shared enumeration core of the exact and anytime front ends.

    Walks the (lazy) tuple enumeration, keeping the best solution seen,
    starting from an optional incumbent ``seed``.  Returns ``(best,
    best_value, tuples_solved)`` on completion.  On budget expiry it
    raises :class:`BudgetExpired` with the overall incumbent attached
    (``exc.incumbent`` is an :class:`AngleSolution` or ``None``), after
    folding in any partial assignment the interrupted inner B&B produced.
    ``max_tuples=None`` disables the enumeration-size guard (only valid
    together with a budget).
    """
    n, k = instance.n, instance.k
    compiled = instance.compile()
    cand = _orientation_candidates(instance, require_disjoint)
    # In the disjoint variant an antenna may be switched OFF (idle beams do
    # not radiate), represented by candidate ``None``.
    if require_disjoint:
        cand = [c + [None] for c in cand]

    identical = instance.has_uniform_antennas
    sizes = [len(c) for c in cand]
    if identical:
        total = 1
        for t in range(k):
            total = total * (sizes[0] + t) // (t + 1)  # C(s + k - 1, k)
    else:
        total = int(np.prod([float(s) for s in sizes]))
    if max_tuples is not None and total > max_tuples:
        raise RuntimeError(
            f"orientation enumeration needs {total} tuples > cap {max_tuples}"
        )

    if identical:
        tuples = itertools.combinations_with_replacement(cand[0], k)
    else:
        tuples = itertools.product(*cand)

    best: Optional[AngleSolution] = seed
    best_value = seed_value
    solved = 0
    # Cheap per-tuple bound pieces (memoized per width on the compiled view).
    sweeps = {spec.rho: compiled.sweep(spec.rho) for spec in instance.antennas}

    for tup in tuples:
        off = [j for j, t in enumerate(tup) if t is None]
        ori = np.asarray(
            [0.0 if t is None else float(t) for t in tup], dtype=np.float64
        )
        active = [j for j in range(k) if j not in off]
        arcs = [Arc(float(ori[j]), instance.antennas[j].rho) for j in active]
        if require_disjoint and not arcs_pairwise_disjoint(arcs):
            continue
        # Cheap upper bound: per-antenna min(capacity * best density,
        # covered profit), and globally the profit of the covered union.
        union_mask = np.zeros(n, dtype=bool)
        per_antenna = 0.0
        for j in active:
            w = sweeps[instance.antennas[j].rho].window_at(float(ori[j]))
            covered = w.indices
            union_mask[covered] = True
            if covered.size:
                dens = float(
                    (instance.profits[covered] / instance.demands[covered]).max()
                )
                per_antenna += min(
                    float(instance.profits[covered].sum()),
                    dens * instance.antennas[j].capacity,
                )
        bound = min(per_antenna, float(instance.profits[union_mask].sum()))
        if bound <= best_value + 1e-12:
            continue
        try:
            if budget is not None:
                budget.checkpoint()
            sol = solve_exact_fixed_orientations(
                instance,
                ori,
                max_nodes=max_nodes_per_tuple,
                disabled=off or None,
                budget=budget,
            )
        except BudgetExpired as exc:
            # The interrupted inner B&B respects the coverage mask, so its
            # partial assignment is feasible for this tuple — fold it in.
            if exc.incumbent is not None:
                partial = AngleSolution(orientations=ori, assignment=exc.incumbent)
                v = partial.value(instance)
                if v > best_value:
                    best, best_value = partial, v
            exc.incumbent = best
            exc.incumbent_value = max(best_value, 0.0)
            exc.upper_bound = None
            raise
        solved += 1
        v = sol.value(instance)
        if v > best_value:
            best, best_value = sol, v
    return best, best_value, solved


def solve_exact_angle(
    instance: AngleInstance,
    require_disjoint: bool = False,
    max_tuples: int = 500_000,
    max_nodes_per_tuple: int = 500_000,
    budget: Optional[Budget] = None,
) -> AngleSolution:
    """Globally optimal solution by orientation enumeration + exact assignment.

    ``require_disjoint=True`` solves the non-overlapping variant exactly
    (enumerating over the enriched candidate grid and discarding
    overlapping tuples).  Raises ``RuntimeError`` when the enumeration
    exceeds ``max_tuples``, and :class:`BudgetExpired` (with the incumbent
    attached) when the explicit or ambient budget runs out — callers that
    want a *result* under a budget use :func:`solve_exact_anytime`.
    """
    if instance.n == 0:
        return AngleSolution.empty(instance)
    if budget is None:
        budget = current_budget()
    best, _, _ = _enumerate_exact(
        instance,
        require_disjoint,
        max_tuples,
        max_nodes_per_tuple,
        budget,
        seed=None,
        seed_value=-1.0,
    )
    assert best is not None
    return best


def solve_exact_anytime(
    instance: AngleInstance,
    budget: Optional[Budget] = None,
    require_disjoint: bool = False,
    max_nodes_per_tuple: int = 500_000,
    max_tuples: Optional[int] = 500_000,
) -> AnytimeOutcome:
    """Budget-bounded exact solve with certified bounds (never hangs).

    Runs the same enumeration as :func:`solve_exact_angle` under
    ``budget`` (explicit, else the thread's ambient one) and *always*
    returns an :class:`AnytimeOutcome`:

    * the incumbent is seeded with the greedy multi-knapsack solution, so
      the returned value is never below the greedy lower bound;
    * ``upper_bound`` is the certified cheap bound
      (:func:`~repro.packing.bounds.combined_upper_bound`), tightened to
      the exact value when the search completes;
    * on expiry the best incumbent found so far is returned with
      ``optimal=False`` and the expiry reason.

    With a budget the ``max_tuples`` guard is lifted (pass a budget on
    anything beyond toy sizes; the deadline bounds the work instead).
    """
    from repro.knapsack import get_solver
    from repro.packing.bounds import combined_upper_bound
    from repro.packing.multi import solve_greedy_multi

    t0 = time.perf_counter()
    _ANYTIME_SOLVES.inc()
    if budget is None:
        budget = current_budget()
    if instance.n == 0:
        empty = AngleSolution.empty(instance)
        return AnytimeOutcome(empty, 0.0, 0.0, True, "complete", {"tuples": 0})

    ub = float(combined_upper_bound(instance))
    # Greedy seed: a feasible incumbent before any exact work happens (for
    # the disjoint variant greedy arcs may overlap, so start empty there).
    if require_disjoint:
        seed: AngleSolution = AngleSolution.empty(instance)
    else:
        seed = solve_greedy_multi(instance, get_solver("greedy"))
    seed_value = seed.value(instance)

    reason, optimal = "complete", True
    solved = 0
    try:
        best, value, solved = _enumerate_exact(
            instance,
            require_disjoint,
            None if budget is not None else max_tuples,
            max_nodes_per_tuple,
            budget,
            seed=seed,
            seed_value=seed_value,
        )
    except BudgetExpired as exc:
        best = exc.incumbent if exc.incumbent is not None else seed
        value = float(exc.incumbent_value or seed_value)
        reason, optimal = exc.reason, False
    assert best is not None
    if optimal:
        # The search certified OPT: collapse the bracket onto the value.
        ub = value
    lower = min(float(value), ub)
    _ANYTIME_GAP.set((ub - lower) / ub if ub > 0 else 0.0)
    return AnytimeOutcome(
        solution=best,
        lower_bound=lower,
        upper_bound=ub,
        optimal=optimal,
        reason=reason,
        stats={"tuples": int(solved), "seconds": time.perf_counter() - t0},
    )
