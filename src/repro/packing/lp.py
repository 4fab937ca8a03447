"""LP relaxation of orientation + assignment, and randomized rounding.

The relaxation.  For antenna ``j`` let ``A_j`` be its canonical
orientations (unique windows).  Variables::

    y[j, a] in [0, 1]   -- antenna j uses orientation a
    x[i, j, a] in [0, 1] -- fraction of customer i served by (j, a)
                            (only created when the window covers i)

    max   sum profits_i * x[i, j, a]
    s.t.  sum_a y[j, a] <= 1                      for every antenna j
          sum_{j,a} x[i, j, a] <= 1               for every customer i
          sum_i demands_i x[i, j, a] <= c_j y[j, a]  for every (j, a)
          (optional tightening)  x[i, j, a] <= y[j, a]

Every integral solution maps to a feasible LP point (set the chosen
orientation's ``y`` to 1 — by the rotation lemma a canonical orientation
serving a superset exists), so the LP optimum is an **upper bound on
OPT**.  :func:`lp_upper_bound` must therefore use the *full* canonical
candidate set; :func:`solve_lp_rounding` may subsample candidates (the
rounded solution stays feasible, only the bound property is lost).

Rounding: independently per antenna, pick orientation ``a`` with
probability ``y[j, a]`` (off otherwise), then run the greedy fixed-
orientation assignment.  The best of ``rounds`` samples (plus the
deterministic argmax-``y`` profile) is returned.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.knapsack.api import KnapsackSolver
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.obs import span
from repro.obs.metrics import get_registry
from repro.packing.assignment import greedy_assignment_fixed

# Solver-level telemetry (contract: docs/OBSERVABILITY.md).
_REG = get_registry()
_LP_TIMER = _REG.timer("solver.lp_rounding")
_LP_CANDS = _REG.timer("phase.lp.candidates")
_LP_BUILD = _REG.timer("phase.lp.build")
_LP_SOLVE = _REG.timer("phase.lp.solve")
_LP_ROUND = _REG.timer("phase.lp.rounding")
_LP_VARS = _REG.gauge("lp.variables")
_LP_ROWS = _REG.gauge("lp.rows")
_LP_SAMPLES = _REG.counter("lp.rounding_samples")


def _candidates(
    instance: AngleInstance,
    max_candidates: Optional[int] = None,
) -> List[List[Tuple[float, np.ndarray]]]:
    """Per-antenna list of ``(alpha, covered original indices)``.

    Sweeps come from the compiled view (shared between antennas of equal
    width and with every other solver).  ``max_candidates`` keeps only the
    windows with the largest covered profit (for rounding use only — see
    module docstring).
    """
    compiled = instance.compile()
    out: List[List[Tuple[float, np.ndarray]]] = []
    for spec in instance.antennas:
        sweep = compiled.sweep(spec.rho)
        ids = sweep.unique_window_ids()
        if max_candidates is not None and ids.size > max_candidates:
            sums = sweep.window_sums_from_prefix(compiled.profit_prefix)
            ids = ids[np.argsort(-sums[ids], kind="stable")[:max_candidates]]
        cands = []
        for k in ids:
            w = sweep.window(int(k))
            cands.append((w.start, w.indices.copy()))
        if not cands:
            cands.append((0.0, np.empty(0, dtype=np.intp)))
        out.append(cands)
    return out


def solve_lp_relaxation(
    instance: AngleInstance,
    max_candidates: Optional[int] = None,
    tighten: bool = False,
) -> Tuple[float, List[np.ndarray], List[List[Tuple[float, np.ndarray]]]]:
    """Solve the relaxation; returns ``(value, y_per_antenna, candidates)``.

    ``y_per_antenna[j][a]`` is the LP weight of candidate ``a`` of antenna
    ``j``.  ``tighten=True`` adds the ``x <= y`` rows (smaller LP value,
    slower); the untightened LP is already a valid upper bound.
    """
    n, k = instance.n, instance.k
    with _LP_CANDS.time():
        cands = _candidates(instance, max_candidates)
    if n == 0:
        return 0.0, [np.zeros(len(c)) for c in cands], cands

    t_build = time.perf_counter()
    # Variable layout: all y first, then all x.
    y_offset: List[int] = []
    nv_y = 0
    for j in range(k):
        y_offset.append(nv_y)
        nv_y += len(cands[j])
    x_index: List[Tuple[int, int, int]] = []  # (i, j, a)
    for j in range(k):
        for a, (_, cov) in enumerate(cands[j]):
            for i in cov:
                x_index.append((int(i), j, a))
    nv = nv_y + len(x_index)

    c_obj = np.zeros(nv)
    for v, (i, _, _) in enumerate(x_index):
        c_obj[nv_y + v] = -instance.profits[i]

    rows, cols, vals = [], [], []
    b: List[float] = []
    row_id = 0
    # sum_a y[j,a] <= 1
    for j in range(k):
        for a in range(len(cands[j])):
            rows.append(row_id)
            cols.append(y_offset[j] + a)
            vals.append(1.0)
        b.append(1.0)
        row_id += 1
    # sum_{j,a} x[i,j,a] <= 1
    cust_row = {i: row_id + i for i in range(n)}
    b.extend([1.0] * n)
    row_id += n
    for v, (i, _, _) in enumerate(x_index):
        rows.append(cust_row[i])
        cols.append(nv_y + v)
        vals.append(1.0)
    # capacity: sum_i d_i x[i,j,a] - c_j y[j,a] <= 0
    cap_row = {}
    for j in range(k):
        for a in range(len(cands[j])):
            cap_row[(j, a)] = row_id
            rows.append(row_id)
            cols.append(y_offset[j] + a)
            vals.append(-float(instance.antennas[j].capacity))
            b.append(0.0)
            row_id += 1
    for v, (i, j, a) in enumerate(x_index):
        rows.append(cap_row[(j, a)])
        cols.append(nv_y + v)
        vals.append(float(instance.demands[i]))
    # optional x <= y rows
    if tighten:
        for v, (i, j, a) in enumerate(x_index):
            rows.append(row_id)
            cols.append(nv_y + v)
            vals.append(1.0)
            rows.append(row_id)
            cols.append(y_offset[j] + a)
            vals.append(-1.0)
            b.append(0.0)
            row_id += 1

    A = sp.csr_matrix((vals, (rows, cols)), shape=(row_id, nv))
    _LP_BUILD.observe(time.perf_counter() - t_build)
    _LP_VARS.set(nv)
    _LP_ROWS.set(row_id)
    with _LP_SOLVE.time():
        res = linprog(
            c_obj, A_ub=A, b_ub=np.asarray(b), bounds=(0.0, 1.0), method="highs"
        )
    if not res.success:  # pragma: no cover - HiGHS is robust on these LPs
        raise RuntimeError(f"orientation LP failed: {res.message}")
    y = [
        np.clip(res.x[y_offset[j] : y_offset[j] + len(cands[j])], 0.0, 1.0)
        for j in range(k)
    ]
    return float(-res.fun), y, cands


def lp_upper_bound(instance: AngleInstance, tighten: bool = False) -> float:
    """The LP optimum over the full canonical candidate set (>= OPT)."""
    value, _, _ = solve_lp_relaxation(instance, max_candidates=None, tighten=tighten)
    return value


def solve_lp_rounding(
    instance: AngleInstance,
    oracle: KnapsackSolver,
    rounds: int = 20,
    seed: int = 0,
    max_candidates: Optional[int] = None,
    tighten: bool = False,
) -> AngleSolution:
    """Randomized rounding of the LP: best of ``rounds`` sampled profiles.

    Each sample draws an orientation per antenna from its ``y``
    distribution and assigns customers with the greedy fixed-orientation
    packer.  The deterministic argmax-``y`` profile is always evaluated
    too, so the result never depends solely on luck.
    """
    t0 = time.perf_counter()
    with span("solver.lp_rounding", n=int(instance.n), k=int(instance.k),
              rounds=int(rounds)) as spn:
        _, y, cands = solve_lp_relaxation(instance, max_candidates, tighten)
        rng = np.random.default_rng(seed)
        k = instance.k

        def profile_to_solution(choice: List[int]) -> AngleSolution:
            orientations = np.array(
                [cands[j][choice[j]][0] for j in range(k)], dtype=np.float64
            )
            return greedy_assignment_fixed(instance, orientations, oracle)

        t_round = time.perf_counter()
        best = profile_to_solution(
            [int(np.argmax(yj)) if yj.size else 0 for yj in y]
        )
        best_value = best.value(instance)
        for _ in range(rounds):
            choice = []
            for j in range(k):
                yj = y[j]
                if yj.size == 0:
                    choice.append(0)
                    continue
                total = float(yj.sum())
                if total <= 1e-12:
                    choice.append(int(rng.integers(len(yj))))
                    continue
                probs = yj / total
                choice.append(int(rng.choice(len(yj), p=probs)))
            sol = profile_to_solution(choice)
            v = sol.value(instance)
            if v > best_value:
                best, best_value = sol, v
        _LP_ROUND.observe(time.perf_counter() - t_round)
        _LP_SAMPLES.inc(rounds)
        spn.set(value=float(best_value))
    _LP_TIMER.observe(time.perf_counter() - t0)
    return best
