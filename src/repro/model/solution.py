"""Solutions and independent feasibility verification.

Solvers *return* these objects; they never certify them.  Verification is
performed here, from first principles (arc containment, capacity sums,
sector membership), so that a solver bug surfaces as a
:class:`FeasibilityError` in tests instead of a silently wrong benchmark
number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.geometry.arcs import Arc, arcs_pairwise_disjoint
from repro.model.instance import AngleInstance, SectorInstance

#: Relative tolerance for capacity checks (absorbs float summation noise).
_CAP_TOL = 1e-9


class FeasibilityError(ValueError):
    """Raised when a solution violates the instance's constraints.

    Attributes
    ----------
    violations:
        Human-readable list of every violated constraint found.
    """

    def __init__(self, violations: List[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


def _check_assignment_array(assignment: np.ndarray, n: int, k: int) -> List[str]:
    problems = []
    if assignment.shape != (n,):
        problems.append(
            f"assignment must have shape ({n},), got {assignment.shape}"
        )
        return problems
    if assignment.size and (assignment < -1).any():
        problems.append("assignment contains values below -1")
    if assignment.size and (assignment >= k).any():
        problems.append(f"assignment references antenna >= k={k}")
    return problems


@dataclass(frozen=True)
class AngleSolution:
    """Integral solution of a 1-D instance.

    Parameters
    ----------
    orientations:
        ``(k,)`` start angles, one per antenna of the instance.
    assignment:
        ``(n,)`` integer array: ``assignment[i]`` is the antenna serving
        customer ``i`` or ``-1`` when the customer is rejected.
    meta:
        Optional provenance dict (never affects feasibility or value).
        The resilience layer records the fallback stage / degradation
        reason here (``meta["resilience"]``, contract:
        ``docs/RESILIENCE.md``).
    """

    orientations: np.ndarray
    assignment: np.ndarray
    meta: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        ori = np.asarray(self.orientations, dtype=np.float64).reshape(-1)
        asg = np.asarray(self.assignment, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "orientations", ori)
        object.__setattr__(self, "assignment", asg)

    @classmethod
    def empty(cls, instance: AngleInstance) -> "AngleSolution":
        """The all-rejected solution (orientations at 0)."""
        return cls(
            orientations=np.zeros(instance.k),
            assignment=np.full(instance.n, -1, dtype=np.int64),
        )

    def with_meta(self, **entries: Any) -> "AngleSolution":
        """A copy with ``entries`` merged into :attr:`meta`."""
        merged = dict(self.meta or {})
        merged.update(entries)
        return AngleSolution(
            orientations=self.orientations, assignment=self.assignment, meta=merged
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def value(self, instance: AngleInstance) -> float:
        """Total profit of served customers."""
        served = self.assignment >= 0
        return float(instance.profits[served].sum())

    def served_demand(self, instance: AngleInstance) -> float:
        served = self.assignment >= 0
        return float(instance.demands[served].sum())

    def served_count(self) -> int:
        return int((self.assignment >= 0).sum())

    def loads(self, instance: AngleInstance) -> np.ndarray:
        """``(k,)`` vector of demand loads per antenna."""
        loads = np.zeros(instance.k)
        served = self.assignment >= 0
        np.add.at(loads, self.assignment[served], instance.demands[served])
        return loads

    def arcs(self, instance: AngleInstance) -> List[Arc]:
        """The oriented angular footprints of the antennas."""
        return [
            Arc(float(self.orientations[j]), instance.antennas[j].rho)
            for j in range(instance.k)
        ]

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def violations(
        self, instance: AngleInstance, require_disjoint: bool = False
    ) -> List[str]:
        """All constraint violations (empty list == feasible)."""
        problems: List[str] = []
        if self.orientations.shape != (instance.k,):
            problems.append(
                f"orientations must have shape ({instance.k},), "
                f"got {self.orientations.shape}"
            )
            return problems
        problems += _check_assignment_array(self.assignment, instance.n, instance.k)
        if problems:
            return problems
        arcs = self.arcs(instance)
        for j, arc in enumerate(arcs):
            members = np.flatnonzero(self.assignment == j)
            if members.size == 0:
                continue
            covered = arc.contains_angles(instance.thetas[members])
            for i in members[~covered]:
                problems.append(
                    f"customer {i} assigned to antenna {j} but angle "
                    f"{instance.thetas[i]:.6f} not in arc {arc}"
                )
            load = float(instance.demands[members].sum())
            cap = instance.antennas[j].capacity
            if load > cap * (1.0 + _CAP_TOL):
                problems.append(
                    f"antenna {j} overloaded: load {load:.6f} > capacity {cap:.6f}"
                )
        if require_disjoint:
            # Only antennas actually serving customers count: an idle
            # antenna is switched off and radiates no beam.
            active = [
                arcs[j]
                for j in range(instance.k)
                if (self.assignment == j).any()
            ]
            if not arcs_pairwise_disjoint(active):
                problems.append(
                    "active arcs overlap but the non-overlapping variant "
                    "was requested"
                )
        return problems

    def verify(
        self, instance: AngleInstance, require_disjoint: bool = False
    ) -> "AngleSolution":
        """Raise :class:`FeasibilityError` on any violation; else return self."""
        problems = self.violations(instance, require_disjoint=require_disjoint)
        if problems:
            raise FeasibilityError(problems)
        return self


@dataclass(frozen=True)
class FractionalSolution:
    """Splittable solution: customer ``i`` sends fraction ``x[i, j]`` to antenna ``j``.

    The objective credits profit proportionally to the served fraction:
    ``value = sum_i profits[i] * sum_j x[i, j]``.
    """

    orientations: np.ndarray
    fractions: np.ndarray

    def __post_init__(self) -> None:
        ori = np.asarray(self.orientations, dtype=np.float64).reshape(-1)
        frac = np.asarray(self.fractions, dtype=np.float64)
        object.__setattr__(self, "orientations", ori)
        object.__setattr__(self, "fractions", frac)

    def value(self, instance: AngleInstance) -> float:
        served_fraction = self.fractions.sum(axis=1)
        return float((instance.profits * served_fraction).sum())

    def served_demand(self, instance: AngleInstance) -> float:
        served_fraction = self.fractions.sum(axis=1)
        return float((instance.demands * served_fraction).sum())

    def loads(self, instance: AngleInstance) -> np.ndarray:
        return np.asarray(
            (instance.demands[:, None] * self.fractions).sum(axis=0)
        )

    def violations(self, instance: AngleInstance) -> List[str]:
        problems: List[str] = []
        if self.orientations.shape != (instance.k,):
            problems.append(
                f"orientations must have shape ({instance.k},), "
                f"got {self.orientations.shape}"
            )
            return problems
        if self.fractions.shape != (instance.n, instance.k):
            problems.append(
                f"fractions must have shape ({instance.n}, {instance.k}), "
                f"got {self.fractions.shape}"
            )
            return problems
        if instance.n == 0:
            return problems
        if (self.fractions < -1e-12).any():
            problems.append("negative assignment fraction")
        row = self.fractions.sum(axis=1)
        over = np.flatnonzero(row > 1.0 + 1e-9)
        for i in over:
            problems.append(f"customer {i} served at fraction {row[i]:.9f} > 1")
        for j in range(instance.k):
            arc = Arc(float(self.orientations[j]), instance.antennas[j].rho)
            support = np.flatnonzero(self.fractions[:, j] > 1e-12)
            if support.size:
                covered = arc.contains_angles(instance.thetas[support])
                for i in support[~covered]:
                    problems.append(
                        f"customer {i} fractionally assigned to antenna {j} "
                        f"outside its arc"
                    )
            load = float((instance.demands * self.fractions[:, j]).sum())
            cap = instance.antennas[j].capacity
            if load > cap * (1.0 + _CAP_TOL):
                problems.append(
                    f"antenna {j} overloaded: load {load:.6f} > capacity {cap:.6f}"
                )
        return problems

    def verify(self, instance: AngleInstance) -> "FractionalSolution":
        problems = self.violations(instance)
        if problems:
            raise FeasibilityError(problems)
        return self

    def round_to_integral(self, instance: AngleInstance) -> AngleSolution:
        """Greedy rounding: commit each customer to its largest fraction if it fits.

        Customers are processed in decreasing served fraction; a customer is
        assigned to the covering antenna with the largest fraction that still
        has room.  Always feasible; used as a baseline rounding.
        """
        order = np.argsort(-self.fractions.sum(axis=1), kind="stable")
        remaining = np.array(
            [instance.antennas[j].capacity for j in range(instance.k)]
        )
        arcs = [
            Arc(float(self.orientations[j]), instance.antennas[j].rho)
            for j in range(instance.k)
        ]
        assignment = np.full(instance.n, -1, dtype=np.int64)
        for i in order:
            if self.fractions[i].sum() <= 1e-12:
                continue
            for j in np.argsort(-self.fractions[i], kind="stable"):
                if self.fractions[i, j] <= 1e-12:
                    break
                if instance.demands[i] <= remaining[j] * (1 + _CAP_TOL) and arcs[
                    j
                ].contains(float(instance.thetas[i])):
                    assignment[i] = j
                    remaining[j] -= instance.demands[i]
                    break
        return AngleSolution(orientations=self.orientations.copy(), assignment=assignment)


@dataclass(frozen=True)
class SectorSolution:
    """Integral solution of a 2-D sector instance.

    ``orientations`` and ``assignment`` index the *global* antenna table of
    the instance (see :meth:`SectorInstance.antenna_table`).  ``meta`` is
    optional provenance (resilience records the fallback path there).
    """

    orientations: np.ndarray
    assignment: np.ndarray
    meta: Optional[Dict[str, Any]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        ori = np.asarray(self.orientations, dtype=np.float64).reshape(-1)
        asg = np.asarray(self.assignment, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "orientations", ori)
        object.__setattr__(self, "assignment", asg)

    @classmethod
    def empty(cls, instance: SectorInstance) -> "SectorSolution":
        return cls(
            orientations=np.zeros(instance.total_antennas),
            assignment=np.full(instance.n, -1, dtype=np.int64),
        )

    def with_meta(self, **entries: Any) -> "SectorSolution":
        """A copy with ``entries`` merged into :attr:`meta`."""
        merged = dict(self.meta or {})
        merged.update(entries)
        return SectorSolution(
            orientations=self.orientations, assignment=self.assignment, meta=merged
        )

    def value(self, instance: SectorInstance) -> float:
        served = self.assignment >= 0
        return float(instance.profits[served].sum())

    def served_demand(self, instance: SectorInstance) -> float:
        served = self.assignment >= 0
        return float(instance.demands[served].sum())

    def loads(self, instance: SectorInstance) -> np.ndarray:
        loads = np.zeros(instance.total_antennas)
        served = self.assignment >= 0
        np.add.at(loads, self.assignment[served], instance.demands[served])
        return loads

    def violations(self, instance: SectorInstance) -> List[str]:
        problems: List[str] = []
        K = instance.total_antennas
        if self.orientations.shape != (K,):
            problems.append(
                f"orientations must have shape ({K},), got {self.orientations.shape}"
            )
            return problems
        problems += _check_assignment_array(self.assignment, instance.n, K)
        if problems:
            return problems
        from repro.geometry.sectors import Sector  # local import avoids cycle

        # Customers grouped by antenna in one stable sort: groups[g] lists
        # antenna g's customers in increasing order (the unserved -1s
        # form the dropped leading group).
        order = np.argsort(self.assignment, kind="stable")
        bounds = np.searchsorted(self.assignment[order], np.arange(K))
        groups = np.split(order, bounds)[1:]
        for g, s_id, spec in instance.antenna_table():
            members = groups[g]
            if members.size == 0:
                continue
            sector = Sector(
                apex=instance.stations[s_id].position,
                arc=Arc(float(self.orientations[g]), spec.rho),
                radius=spec.radius,
            )
            inside = sector.contains_points(instance.positions[members])
            for i in members[~inside]:
                problems.append(
                    f"customer {i} assigned to antenna {g} (station {s_id}) "
                    f"but lies outside its sector"
                )
            load = float(instance.demands[members].sum())
            if load > spec.capacity * (1.0 + _CAP_TOL):
                problems.append(
                    f"antenna {g} overloaded: load {load:.6f} > "
                    f"capacity {spec.capacity:.6f}"
                )
        if instance.constraints:
            # Constraint feasibility (docs/SCENARIOS.md): every served
            # (customer, station) pair must pass the composed masks.
            cmasks = instance.compile().constraint_masks()
            if cmasks is not None:
                for g, s_id, _spec in instance.antenna_table():
                    members = groups[g]
                    for i in members[~cmasks[s_id][members]]:
                        problems.append(
                            f"customer {i} assigned to antenna {g} "
                            f"(station {s_id}) but an eligibility "
                            f"constraint masks the pair out"
                        )
        return problems

    def verify(self, instance: SectorInstance) -> "SectorSolution":
        problems = self.violations(instance)
        if problems:
            raise FeasibilityError(problems)
        return self
