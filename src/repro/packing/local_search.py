"""Local search improvement for multi-antenna solutions.

Moves (all value-monotone; the result never gets worse):

* **fill** -- scan unserved customers and pack any that fit an antenna's
  remaining slack and arc (cheap, always run).
* **re-rotate** -- free one antenna entirely, re-run the single-antenna
  rotation search over every customer not served by the *other* antennas,
  and keep the better of old/new.

Rounds alternate the moves until a fixed point or ``max_rounds``.  Used
both as a standalone heuristic and as the polish pass after greedy / LP
rounding (experiment E5 measures its contribution).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.arcs import Arc
from repro.knapsack.api import KnapsackSolver
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.numerics import fits
from repro.packing.single import best_rotation


def _fill_pass(
    instance: AngleInstance,
    orientations: np.ndarray,
    assignment: np.ndarray,
) -> bool:
    """Insert unserved customers into any covering antenna with slack.

    Customers are tried in decreasing profit density (profit per unit
    demand) so the slack is spent where it pays most.  Returns True if
    anything changed.
    """
    changed = False
    loads = np.zeros(instance.k)
    served = assignment >= 0
    np.add.at(loads, assignment[served], instance.demands[served])
    arcs = [
        Arc(float(orientations[j]), instance.antennas[j].rho)
        for j in range(instance.k)
    ]
    unserved = np.flatnonzero(~served)
    density = instance.profits[unserved] / instance.demands[unserved]
    for i in unserved[np.argsort(-density, kind="stable")]:
        for j in range(instance.k):
            cap = instance.antennas[j].capacity
            if (
                fits(loads[j] + instance.demands[i], cap)
                and arcs[j].contains(float(instance.thetas[i]))
            ):
                assignment[i] = j
                loads[j] += instance.demands[i]
                changed = True
                break
    return changed


def fill_active_antennas(
    instance: AngleInstance,
    orientations: np.ndarray,
    assignment: np.ndarray,
) -> None:
    """Fill pass restricted to antennas already serving somebody.

    Used by the disjoint-variant solvers after assembly: their profit
    tables use half-open windows (to avoid double counting across abutting
    windows), so a customer sitting exactly at an active arc's closed end
    may be left unserved even though serving it is feasible.  Filling only
    *active* antennas keeps the disjointness invariant intact (idle parked
    arcs never start radiating).  In-place, value-monotone.
    """
    active = np.zeros(instance.k, dtype=bool)
    served = assignment >= 0
    active[np.unique(assignment[served])] = True
    if not active.any():
        return
    loads = np.zeros(instance.k)
    np.add.at(loads, assignment[served], instance.demands[served])
    arcs = {
        j: Arc(float(orientations[j]), instance.antennas[j].rho)
        for j in np.flatnonzero(active)
    }
    unserved = np.flatnonzero(~served)
    density = instance.profits[unserved] / instance.demands[unserved]
    for i in unserved[np.argsort(-density, kind="stable")]:
        for j, arc in arcs.items():
            cap = instance.antennas[j].capacity
            if (
                fits(loads[j] + instance.demands[i], cap)
                and arc.contains(float(instance.thetas[i]))
            ):
                assignment[i] = j
                loads[j] += instance.demands[i]
                break


def improve_solution(
    instance: AngleInstance,
    solution: AngleSolution,
    oracle: KnapsackSolver,
    max_rounds: int = 10,
) -> AngleSolution:
    """Monotone local search: returns a solution with value >= the input's.

    ``oracle`` drives the re-rotation move's inner knapsack.  Terminates
    after ``max_rounds`` full passes or at the first pass with no
    improvement.  The re-rotation move derives its subset sweeps from
    ``instance.compile()`` instead of re-sorting per candidate antenna.
    """
    compiled = instance.compile()
    orientations = solution.orientations.copy()
    assignment = solution.assignment.copy()
    best_value = float(instance.profits[assignment >= 0].sum())

    for _ in range(max_rounds):
        improved = False
        if _fill_pass(instance, orientations, assignment):
            new_value = float(instance.profits[assignment >= 0].sum())
            improved = new_value > best_value + 1e-12
            best_value = max(best_value, new_value)
        for j in range(instance.k):
            # Customers available to antenna j: unserved ones + its own.
            available = (assignment == -1) | (assignment == j)
            idx = np.flatnonzero(available)
            if idx.size == 0:
                continue
            spec = instance.antennas[j]
            out = best_rotation(
                instance.thetas[idx],
                instance.demands[idx],
                instance.profits[idx],
                spec,
                oracle,
                sweep=compiled.subset_sweep(idx, spec.rho),
            )
            current_j_value = float(instance.profits[assignment == j].sum())
            if out.value > current_j_value + 1e-12:
                assignment[assignment == j] = -1
                chosen = idx[out.selected]
                assignment[chosen] = j
                orientations[j] = out.alpha
                best_value += out.value - current_j_value
                improved = True
        if not improved:
            break
    return AngleSolution(orientations=orientations, assignment=assignment)
