"""The dual covering problem: serve *everyone* with few antennas.

The paper maximizes served demand with a fixed antenna budget.  The
natural dual (its "future work" direction, and the planning question an
operator asks first) is: **how many antennas of a given spec are needed to
serve all customers?**

:func:`greedy_cover` answers with the classic greedy-set-cover strategy,
where the "sets" are single-antenna packings produced by the rotation
search: repeatedly place one more antenna serving the maximum remaining
demand until nothing is left.

**Guarantee.**  Let ``OPT`` be the minimum number of antennas that can
serve all demand ``D``.  Each greedy round, with a ``beta``-approximate
rotation oracle, serves at least ``beta / OPT`` of the remaining demand
(the best remaining single-antenna haul is at least ``remaining / OPT``,
because OPT antennas cover the remainder).  After
``t = ceil(OPT/beta * ln(D/d_min))`` rounds the remaining demand is below
the smallest single demand ``d_min``, i.e. zero — the familiar
``O(OPT * log(D/d_min))`` bound (``ln n + 1``-style for unit demands).
A customer whose demand exceeds the antenna capacity makes the cover
infeasible; this is detected up front.

:func:`cover_lower_bound` provides the certificate
``ceil(total demand / capacity)`` (and a geometric refinement), so every
result is reported together with an instance-specific optimality gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.geometry.angles import TWO_PI
from repro.geometry.sweep import CircularSweep
from repro.knapsack.api import KnapsackSolver
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.model.solution import AngleSolution
from repro.numerics import ceil_units, fits, overloads
from repro.packing.single import best_rotation


class InfeasibleCoverError(ValueError):
    """Raised when no antenna count can serve every customer."""


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a covering run.

    Attributes
    ----------
    orientations:
        One start angle per placed antenna (length = antennas used).
    assignment:
        ``(n,)`` antenna index per customer (no ``-1``: the cover is full).
    antennas_used:
        ``len(orientations)``.
    lower_bound:
        Instance-specific lower bound on the optimal count.
    """

    orientations: np.ndarray
    assignment: np.ndarray
    antennas_used: int
    lower_bound: int

    def as_solution(self, spec: AntennaSpec, n: int) -> AngleSolution:
        """View as an :class:`AngleSolution` of an instance with
        ``antennas_used`` copies of ``spec`` (for verification)."""
        return AngleSolution(
            orientations=self.orientations.copy(),
            assignment=self.assignment.copy(),
        )

    def gap(self) -> float:
        """``antennas_used / lower_bound`` (1.0 = certified optimal)."""
        return self.antennas_used / max(self.lower_bound, 1)


def cover_lower_bound(
    thetas: np.ndarray, demands: np.ndarray, spec: AntennaSpec
) -> int:
    """Certified lower bound on the number of antennas needed.

    Two arguments, take the max:

    * **capacity**: ``ceil(total demand / capacity)``;
    * **geometry**: any single antenna covers an arc of width ``rho``, so
      at least ``ceil(D_w / capacity)`` antennas *intersect* any window
      ``w``... simplified to the strongest single-window form: for the
      window of maximum demand ``D_w`` reachable by one orientation, all
      of it must still be served, but customers *outside* every rotation
      of one antenna need their own.  We use the robust pair:
      ``ceil(total/capacity)`` and ``ceil(2*pi / rho)`` when every
      customer angle class is occupied (full-circle spread needs at least
      that many arcs to merely touch everyone).
    """
    demands = np.asarray(demands, dtype=np.float64)
    if demands.size == 0:
        return 0
    cap_bound = ceil_units(float(demands.sum()), spec.capacity)
    geo_bound = 0
    if spec.rho < TWO_PI:
        # count how many arcs of width rho are needed just to touch all
        # angles: greedy interval covering on the circle is optimal; we
        # compute it exactly (it is cheap) as a valid lower bound.
        geo_bound = _min_arcs_to_touch(np.asarray(thetas, dtype=np.float64), spec.rho)
    return max(1, cap_bound, geo_bound)


def _min_arcs_to_touch(thetas: np.ndarray, rho: float) -> int:
    """Minimum number of width-``rho`` arcs covering all angles (no
    capacities).  Exact: fix a canonical first arc at each distinct angle,
    then greedy-stab the rest; take the best.  ``O(u^2)`` for ``u``
    distinct angles — fine for instance sizes here."""
    uniq = np.unique(np.mod(thetas, TWO_PI))
    u = uniq.size
    if u == 0:
        return 0
    best = u  # one arc per angle always works
    for f in range(u):
        start = uniq[f]
        # offsets of all angles from this arc's start, ascending
        offs = np.sort(np.mod(uniq - start, TWO_PI))
        count = 1
        reach = rho
        i = 0
        while i < u and offs[i] <= reach + 1e-12:
            i += 1
        while i < u:
            count += 1
            reach = offs[i] + rho
            while i < u and offs[i] <= reach + 1e-12:
                i += 1
        best = min(best, count)
    return best


def greedy_cover(
    thetas: np.ndarray,
    demands: np.ndarray,
    spec: AntennaSpec,
    oracle: KnapsackSolver,
    max_antennas: Optional[int] = None,
) -> CoverResult:
    """Serve every customer using greedy max-remaining-demand placements.

    Raises :class:`InfeasibleCoverError` when some demand exceeds the
    capacity, and ``RuntimeError`` if ``max_antennas`` (default
    ``4 * n``) placements do not finish — which cannot happen for a
    feasible instance, since every round serves at least one customer.
    """
    return _greedy_cover(thetas, demands, spec, oracle, max_antennas,
                         subset_sweep=lambda idx: None)


def _greedy_cover(
    thetas: np.ndarray,
    demands: np.ndarray,
    spec: AntennaSpec,
    oracle: KnapsackSolver,
    max_antennas: Optional[int],
    subset_sweep: Callable[[np.ndarray], Optional[CircularSweep]],
) -> CoverResult:
    """The cover loop; ``subset_sweep(idx)`` supplies each round's sweep
    over ``thetas[idx]`` at width ``spec.rho`` (``None`` = sort afresh)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    n = thetas.size
    if n == 0:
        return CoverResult(
            orientations=np.empty(0),
            assignment=np.empty(0, dtype=np.int64),
            antennas_used=0,
            lower_bound=0,
        )
    if (~fits(demands, spec.capacity)).any():
        bad = int(np.argmax(demands))
        raise InfeasibleCoverError(
            f"customer {bad} demands {demands[bad]} > capacity {spec.capacity}"
        )
    if max_antennas is None:
        max_antennas = 4 * n

    assignment = np.full(n, -1, dtype=np.int64)
    orientations: List[float] = []
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        if len(orientations) >= max_antennas:
            raise RuntimeError(
                f"cover did not finish within {max_antennas} antennas"
            )
        idx = np.flatnonzero(remaining)
        out = best_rotation(
            thetas[idx],
            demands[idx],
            demands[idx],
            spec,
            oracle,
            sweep=subset_sweep(idx),
        )
        if out.selected.size == 0:
            # Cannot happen when every demand fits capacity: the window at
            # any remaining customer packs at least that customer.
            raise RuntimeError("rotation search returned empty packing")
        chosen = idx[out.selected]
        assignment[chosen] = len(orientations)
        orientations.append(out.alpha)
        remaining[chosen] = False

    return CoverResult(
        orientations=np.asarray(orientations, dtype=np.float64),
        assignment=assignment,
        antennas_used=len(orientations),
        lower_bound=cover_lower_bound(thetas, demands, spec),
    )


def cover_instance(
    instance: AngleInstance,
    oracle: KnapsackSolver,
    max_antennas: Optional[int] = None,
) -> CoverResult:
    """Cover all customers of an instance with copies of its first antenna.

    Uses ``instance.antennas[0]`` as the repeatable spec (the covering
    question is posed for one antenna type); each round derives its
    subset sweep from ``instance.compile()`` instead of re-sorting.
    """
    spec = instance.antennas[0]
    compiled = instance.compile()
    return _greedy_cover(
        instance.thetas, instance.demands, spec, oracle, max_antennas,
        subset_sweep=lambda idx: compiled.subset_sweep(idx, spec.rho),
    )


def verify_cover(
    thetas: np.ndarray,
    demands: np.ndarray,
    spec: AntennaSpec,
    result: CoverResult,
) -> None:
    """Independent check: everyone served, capacities and coverage hold."""
    thetas = np.asarray(thetas, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    n = thetas.size
    if result.assignment.shape != (n,):
        raise ValueError("assignment shape mismatch")
    if n and (result.assignment < 0).any():
        raise ValueError("cover leaves customers unserved")
    if result.antennas_used != result.orientations.shape[0]:
        raise ValueError("antennas_used inconsistent with orientations")
    from repro.geometry.arcs import Arc

    for j in range(result.antennas_used):
        members = np.flatnonzero(result.assignment == j)
        arc = Arc(float(result.orientations[j]), spec.rho)
        if members.size:
            if not arc.contains_angles(thetas[members]).all():
                raise ValueError(f"antenna {j} assigned customers outside its arc")
            load = float(demands[members].sum())
            if overloads(load, spec.capacity):
                raise ValueError(f"antenna {j} overloaded: {load} > {spec.capacity}")
