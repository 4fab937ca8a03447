"""Partition–solve–merge: spatial decomposition of large sector instances.

The paper's 2-D→1-D reduction makes every unit of work *local to a
station*: a customer only ever interacts with stations whose reach disk
contains it.  This module exploits that locality to cut one huge
:class:`~repro.model.instance.SectorInstance` into independent
sub-instances that are solved separately (in the calling process) and
merged back losslessly:

**Partition rule.**  Two stations *overlap* when their reach disks can
share a customer, i.e. ``dist(s, t) <= R_s + R_t`` (``R`` the station's
max antenna radius).  The partition is the set of connected components of
that overlap graph.  If a customer is reachable from stations ``s`` and
``t`` then ``dist(s, t) <= R_s + R_t`` by the triangle inequality, so
*all* stations that can serve a given customer lie in one component —
assigning each reachable customer to (any of) its reaching stations'
component is therefore well defined, and **no feasible assignment ever
crosses components**.  Customers out of reach of every station are
dropped (no solution can serve them).

**Constraints stay exact.**  When the instance carries eligibility
constraints (``docs/SCENARIOS.md``), customers are assigned to components
through their *effective* eligibility — raw reach ANDed with the composed
constraint masks.  Effective eligibility is a subset of raw reach, so the
component argument above still covers it (the station graph itself stays
raw-reach: conservative, never wrong), customers every constraint masks
out everywhere are dropped exactly as a monolithic solve would leave them
unserved, and the constraint specs pass to each sub-instance verbatim —
global ``los_blockage`` segments mask the same pairs either way, and a
``max_assignments`` top-``k`` computed inside a component equals the
global one because *all* of a customer's reaching stations live in its
component and the local station order preserves the global id order.

**Merge bound.**  Solving each component with a heuristic and
concatenating gives value ``V_part = Σ_p V_p``.  Per component the cheap
capacity/profit bound ``UB_p = min(total_profit_p, max_density_p × Σ
capacities_p)`` certifies ``OPT_p <= UB_p``; because the decomposition is
exact, ``OPT = Σ_p OPT_p <= Σ_p UB_p``.  The *certified merge bound*
reported with every partitioned solve is ``merge_bound = Σ_p UB_p -
V_part >= 0``, and for any monolithic solve value ``V_mono <= OPT`` it
guarantees ``V_mono <= V_part + merge_bound`` — the inequality
``tests/test_partition.py`` asserts (tier-1 sizes and the ``slow``
``TestScale`` cases).

**Views, not copies.**  The partitioner permutes the parent
struct-of-arrays once so each component's customers are contiguous; the
per-part sub-instances are then built from read-only *slices* of the
permuted arrays (adopted uncopied by instance construction, see
``repro.model.instance``).  The parent never gets station views on
this path — per-station angle sorts happen inside each sub-solve over
that component's customers only, which is where the large-``n`` speedup
comes from (``docs/SCALE.md``).  A constrained parent is compiled only
to its station distances and composed constraint masks, once per plan:
the partitioner reads them to place customers and the engine's verify
of the merged solution reads them again from the same memo.

Engine integration: :func:`repro.engine.planner.plan_partition` decides
monolithic vs. partitioned per request, and
:mod:`repro.engine.core` dispatches to :func:`solve_partitioned` behind
its strategy seam.  Telemetry: ``engine.partition.parts`` /
``engine.partition.unreachable`` counters and the ``phase.partition``
timer (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.model.instance import SectorInstance
from repro.model.solution import SectorSolution
from repro.obs.metrics import get_registry

__all__ = [
    "Part",
    "PartitionPlan",
    "reach_components",
    "partition_instance",
    "merge_partial_solutions",
    "solve_partitioned",
]

_REG = get_registry()
_PARTS = _REG.counter("engine.partition.parts")
_UNREACHABLE = _REG.counter("engine.partition.unreachable")
_PARTITION_TIMER = _REG.timer("phase.partition")

#: Same relative slack the instance reach predicates use, so the
#: partition agrees with :meth:`SectorInstance.reachable_mask` at radius
#: boundaries.
_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class Part:
    """One independent sub-problem of a partitioned sector instance.

    ``customer_index[j]`` is the parent index of the sub-instance's
    ``j``-th customer; ``antenna_ids[a]`` is the parent *global* antenna
    id of the sub-instance's local antenna ``a`` — the two arrays are the
    merge's remapping tables.  ``upper_bound`` certifies ``OPT_part <=
    upper_bound`` (capacity/profit bound, see the module doc).
    """

    component: int
    station_ids: Tuple[int, ...]
    customer_index: np.ndarray
    antenna_ids: np.ndarray
    sub: SectorInstance
    upper_bound: float


@dataclass(frozen=True)
class PartitionPlan:
    """The full decomposition of one instance into independent parts."""

    instance: SectorInstance
    station_components: np.ndarray
    parts: Tuple[Part, ...]
    unreachable: int

    @property
    def upper_bound(self) -> float:
        """Certified bound on the optimum: ``OPT <= Σ_p UB_p``."""
        return float(sum(p.upper_bound for p in self.parts))


def reach_components(instance: SectorInstance) -> np.ndarray:
    """Connected components of the station reach-overlap graph.

    Returns a ``(m,)`` int array mapping each station to its component id
    (0-based, dense).  Stations ``s``/``t`` are adjacent when
    ``dist(s, t) <= R_s + R_t``, the necessary condition for any customer
    to be reachable from both.
    """
    m = instance.m
    pos = np.array([s.position for s in instance.stations], dtype=np.float64)
    radii = np.array([s.max_radius for s in instance.stations], dtype=np.float64)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    adjacent = dist <= (radii[:, None] + radii[None, :]) * _SLACK
    comp = np.full(m, -1, dtype=np.int64)
    next_id = 0
    for s in range(m):
        if comp[s] >= 0:
            continue
        comp[s] = next_id
        stack = [s]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adjacent[u]):
                if comp[v] < 0:
                    comp[v] = next_id
                    stack.append(int(v))
        next_id += 1
    return comp


def _part_upper_bound(sub: SectorInstance) -> float:
    """Capacity/profit upper bound on one part's optimum."""
    if sub.n == 0:
        return 0.0
    density = float((sub.profits / sub.demands).max())
    caps = float(sum(spec.capacity for _, _, spec in sub.antenna_table()))
    return min(float(sub.total_profit), density * caps)


def partition_instance(instance: SectorInstance) -> PartitionPlan:
    """Decompose ``instance`` into independent reach-component parts.

    Customer→component assignment is a streamed O(m·n) pass (one
    distance vector per station, discarded immediately), so peak memory
    on an unconstrained instance stays a few float arrays of length
    ``n`` and the parent is never compiled.  A constrained instance
    computes one :func:`repro.core.backend.station_distances` pass and
    reads it twice: for the reach test, and to compose the parent's
    constraint masks into its compile memo (distances and masks only, no
    station views), which the later verify reads.  That pass holds one
    transient ``(m, n)`` float64 distance matrix during partitioning,
    and the ``(m, n)`` boolean masks stay in the memo.  The customer
    struct-of-arrays is then permuted once so every part is a
    contiguous read-only slice — sub-instance construction adopts those
    slices as views without copying.
    """
    with _PARTITION_TIMER.time():
        comp = reach_components(instance)
        n = instance.n
        comp_of = np.full(n, -1, dtype=np.int64)
        xs = instance.positions[:, 0]
        ys = instance.positions[:, 1]
        # Effective eligibility: raw reach ANDed with the composed
        # constraint masks.  One distance pass feeds both the reach test
        # and the masks, which land in the parent's compile memo so the
        # engine's later verify reads them instead of composing again.
        rs_all = cmasks = None
        if instance.constraints:
            from repro.core.backend import station_distances

            rs_all = station_distances(instance)
            cmasks = instance.compile()._masks_from_distances(rs_all)
        for s_id, st in enumerate(instance.stations):
            if rs_all is not None:
                rs = rs_all[s_id]
            else:
                # The row of station_distances, streamed.
                px, py = st.position
                rs = np.hypot(xs - px, ys - py)
            reach = rs <= st.max_radius * _SLACK
            if cmasks is not None:
                reach &= cmasks[s_id]
            # All stations reaching a customer share one component
            # (module doc), so overwrites are consistent by construction.
            comp_of[reach] = comp[s_id]

        order = np.argsort(comp_of, kind="stable")
        comp_sorted = comp_of[order]
        positions = instance.positions[order]
        demands = instance.demands[order]
        profits = instance.profits[order]
        for arr in (positions, demands, profits):
            arr.flags.writeable = False

        station_gids: List[List[int]] = [[] for _ in range(instance.m)]
        for g, s_id, _spec in instance.antenna_table():
            station_gids[s_id].append(g)

        n_components = int(comp.max()) + 1 if instance.m else 0
        unreachable = int(np.searchsorted(comp_sorted, 0, side="left"))
        parts: List[Part] = []
        for c in range(n_components):
            a = int(np.searchsorted(comp_sorted, c, side="left"))
            b = int(np.searchsorted(comp_sorted, c, side="right"))
            station_ids = tuple(int(s) for s in np.flatnonzero(comp == c))
            if a == b:
                continue  # no reachable customers: nothing to solve
            sub = SectorInstance(
                positions=positions[a:b],
                demands=demands[a:b],
                profits=profits[a:b],
                stations=tuple(instance.stations[s] for s in station_ids),
                constraints=instance.constraints,
            )
            antenna_ids = np.array(
                [g for s in station_ids for g in station_gids[s]],
                dtype=np.int64,
            )
            parts.append(Part(
                component=c,
                station_ids=station_ids,
                customer_index=order[a:b],
                antenna_ids=antenna_ids,
                sub=sub,
                upper_bound=_part_upper_bound(sub),
            ))
    _PARTS.inc(len(parts))
    _UNREACHABLE.inc(unreachable)
    return PartitionPlan(
        instance=instance,
        station_components=comp,
        parts=tuple(parts),
        unreachable=unreachable,
    )


def merge_partial_solutions(
    plan: PartitionPlan, solutions: Sequence[SectorSolution]
) -> SectorSolution:
    """Concatenate per-part solutions into one parent solution.

    Lossless by the partition rule: parts share no customers and no
    antennas, so per-antenna loads and per-customer assignments transfer
    verbatim through the remapping tables.  Antennas of parts with no
    reachable customers keep orientation 0; unreachable customers stay
    unassigned.
    """
    if len(solutions) != len(plan.parts):
        raise ValueError(
            f"got {len(solutions)} partial solutions for {len(plan.parts)} parts"
        )
    orientations = np.zeros(plan.instance.total_antennas)
    assignment = np.full(plan.instance.n, -1, dtype=np.int64)
    for part, sol in zip(plan.parts, solutions):
        orientations[part.antenna_ids] = sol.orientations
        served = sol.assignment >= 0
        assignment[part.customer_index[served]] = (
            part.antenna_ids[sol.assignment[served]]
        )
    return SectorSolution(orientations=orientations, assignment=assignment)


def solve_partitioned(
    request: Any, algorithm: str
) -> Tuple[SectorSolution, Dict[str, Any]]:
    """Partition, solve the parts, merge: the engine's partitioned strategy.

    Every part becomes a child :class:`~repro.engine.core.SolveRequest`
    pinned to the *resolved* ``algorithm`` with ``partition="never"``
    (no recursion) and ``use_cache=False`` (sub-solutions are fragments
    of this solve, not canonical answers for their sub-instances), and
    solved in the calling process through
    :func:`repro.engine.core.solve_many`.  Every part runs under the
    parent request's ambient budget, so an expired deadline raises
    :class:`~repro.resilience.budget.BudgetExpired` from the part that
    sees it; any other part failure also propagates as its own
    exception.

    Returns ``(solution, extra)`` where ``extra`` carries the certificate:
    ``partitions``, ``unreachable``, ``partition_upper_bound`` and
    ``merge_bound`` with ``V_mono <= value + merge_bound`` guaranteed for
    any monolithic solve of the same instance (module doc).
    """
    from dataclasses import replace

    from repro.engine import core

    plan = partition_instance(request.instance)
    child_requests = [
        replace(
            request,
            instance=part.sub,
            family="sector",
            algorithm=algorithm,
            partition="never",
            use_cache=False,
            timeout_s=None,
            label=f"{request.label}#part{part.component}",
        )
        for part in plan.parts
    ]
    reports = core.solve_many(child_requests, allow_partial=False)
    merged = merge_partial_solutions(plan, [r.solution for r in reports])
    value = merged.value(plan.instance)
    upper = plan.upper_bound
    extra: Dict[str, Any] = {
        "strategy": "partitioned",
        "partitions": len(plan.parts),
        "unreachable": plan.unreachable,
        "partition_upper_bound": upper,
        "merge_bound": max(0.0, upper - value),
    }
    return merged, extra
