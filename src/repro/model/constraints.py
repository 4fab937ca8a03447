"""Composable eligibility constraints: the pluggable mask pipeline.

The paper's eligibility predicate is pure reach — customer ``i`` is
servable by antenna ``(station s, spec a)`` iff ``dist(p_i, b_s) <=
R_a``.  Real directional-antenna deployments add structure on top:
line-of-sight occlusion by buildings or terrain, and deployment rules
limiting how many candidate stations a customer may attach to.  This
module makes "eligible" a *pipeline* instead of a hardcoded predicate:

* a :class:`Constraint` is a small frozen spec (serializable, hashable,
  fingerprintable) attached to a
  :class:`~repro.model.instance.SectorInstance` via its optional
  ``constraints`` field;
* each constraint *compiles* to one boolean mask per (station, customer)
  pair; :func:`compose_station_masks` ANDs them into the per-station
  **effective mask**;
* the compiled core
  (:meth:`repro.core.compiled.CompiledSectorInstance.eligibility`) ANDs
  the effective mask into the per-antenna fitting-radius masks **once at
  compile time**, so every downstream solver — greedy, independent,
  exact, splittable, local search — honors the constraints without
  knowing they exist.

Registered kinds (grammar and composition semantics: ``docs/SCENARIOS.md``):

``reach``
    The base predicate (current behavior, the default).  Compiles to the
    all-pass mask: reach is already enforced by the per-antenna
    fitting-radius masks, so listing it is purely declarative and an
    instance with ``constraints=(Reach(),)`` solves bit-identically to
    one with no constraints at all.

``los_blockage``
    Polygon/segment occlusion: a set of blockage segments (walls,
    ridgelines).  A within-reach (station, customer) pair is blocked iff
    the open line of sight between them *properly crosses* any blockage
    segment (strict orientation tests — touching an endpoint or running
    collinear does not block, so the predicate is ulp-deterministic).
    Out-of-reach pairs are left unmasked: the fitting-radius masks
    already exclude them, so skipping the crossing tests there changes
    no eligible pair and keeps composition cost proportional to the
    pairs that can actually be served.

``max_assignments``
    Per-customer deployment rule: a customer may only attach to its
    ``limit`` nearest reaching stations (ties broken by station id).
    Stations outside the top-``limit`` are masked out for that customer.

Composition is a plain AND across constraints, so order never matters
and duplicate constraints are idempotent.  The scalar composition path
here is the **reference**; the vectorized kernels in
:mod:`repro.core.backend`, which the compiled core always composes with,
are bit-identical to it (elementwise IEEE
expressions, stable sorts — asserted by ``tests/test_constraints.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.instance import InvalidInstanceError

__all__ = [
    "Constraint",
    "Reach",
    "LosBlockage",
    "MaxAssignments",
    "CONSTRAINT_KINDS",
    "constraint_to_dict",
    "constraint_from_dict",
    "constraints_to_wire",
    "constraints_from_wire",
    "validate_constraints",
    "nontrivial_constraints",
    "compose_station_masks",
]

#: Same relative reach slack as the fitting-radius masks
#: (:data:`repro.core.compiled._RADIUS_SLACK`) so ``max_assignments``
#: agrees with the rest of the pipeline at radius boundaries.
_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class Constraint:
    """Base class for eligibility constraint specs.

    Subclasses are small frozen dataclasses carrying only plain floats /
    ints / tuples, so they are hashable, comparable, and serialize to the
    wire grammar of ``docs/SCENARIOS.md`` via :func:`constraint_to_dict`.
    """

    #: Registered kind tag; the wire ``{"kind": ...}`` discriminator.
    kind = "?"

    def station_masks(
        self,
        positions: np.ndarray,
        station_positions: Sequence[Tuple[float, float]],
        rs_by_station: Sequence[np.ndarray],
        max_radii: Sequence[float],
    ) -> Optional[List[np.ndarray]]:
        """Scalar-path per-station masks (``None`` means all-pass).

        This pure-python path is the oracle the vectorized kernels in
        :mod:`repro.core.backend` must reproduce bit-for-bit.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Reach(Constraint):
    """The base reach predicate — declarative, compiles to all-pass."""

    kind = "reach"

    def station_masks(self, positions, station_positions, rs_by_station,
                      max_radii) -> Optional[List[np.ndarray]]:
        """All-pass: reach lives in the per-antenna fitting-radius masks."""
        return None


def _cross_sign(ox: float, oy: float, ax_: float, ay_: float,
                bx: float, by: float) -> float:
    """Orientation cross product ``(A - O) x (B - O)`` (shared primitive).

    Written as one expression of IEEE subtract/multiply so the scalar and
    vectorized paths (``repro.core.backend.los_blocked``) agree bitwise.
    """
    return (ax_ - ox) * (by - oy) - (ay_ - oy) * (bx - ox)


def _pair_blocked(sx: float, sy: float, cx: float, cy: float,
                  segments: Sequence[Tuple[float, float, float, float]]) -> bool:
    """True iff segment station→customer properly crosses any blockage."""
    for (x1, y1, x2, y2) in segments:
        d1 = _cross_sign(x1, y1, x2, y2, sx, sy)
        d2 = _cross_sign(x1, y1, x2, y2, cx, cy)
        d3 = _cross_sign(sx, sy, cx, cy, x1, y1)
        d4 = _cross_sign(sx, sy, cx, cy, x2, y2)
        if d1 * d2 < 0.0 and d3 * d4 < 0.0:
            return True
    return False


@dataclass(frozen=True)
class LosBlockage(Constraint):
    """Line-of-sight occlusion by a set of blockage segments.

    ``segments`` is a tuple of ``(x1, y1, x2, y2)`` endpoints.  A
    within-reach (station, customer) pair is *blocked* — masked
    ineligible — iff the open station→customer segment properly crosses
    any blockage segment (strict orientation sign tests; touching
    endpoints and collinear overlap do not block).  Pairs beyond the
    station's maximum antenna radius are left unmasked (``True``): the
    fitting-radius masks already exclude them from every solver, so the
    crossing tests are only paid where they can matter — and the scalar
    and vectorized paths both window on the identical
    ``rs <= max_radius * (1 + 1e-12)`` predicate so they stay
    bit-identical.
    """

    segments: Tuple[Tuple[float, float, float, float], ...] = field(
        default_factory=tuple
    )
    kind = "los_blockage"

    def __post_init__(self) -> None:
        cleaned = []
        for i, seg in enumerate(self.segments):
            if len(seg) != 4:
                raise InvalidInstanceError(
                    "constraints",
                    f"los_blockage segment {i} must be (x1, y1, x2, y2)",
                )
            vals = tuple(float(v) for v in seg)
            if not all(math.isfinite(v) for v in vals):
                raise InvalidInstanceError(
                    "constraints",
                    f"los_blockage segment {i} must be finite, got {vals}",
                )
            cleaned.append(vals)
        object.__setattr__(self, "segments", tuple(cleaned))

    def station_masks(self, positions, station_positions, rs_by_station,
                      max_radii) -> Optional[List[np.ndarray]]:
        """Per-station visibility masks via the per-pair primitive."""
        if not self.segments:
            return None
        n = positions.shape[0]
        out: List[np.ndarray] = []
        for s, (sx, sy) in enumerate(station_positions):
            mask = np.ones(n, dtype=bool)
            rs = rs_by_station[s]
            reach_len = max_radii[s] * _SLACK
            for i in range(n):
                if rs[i] <= reach_len and _pair_blocked(
                    float(sx), float(sy),
                    float(positions[i, 0]), float(positions[i, 1]),
                    self.segments,
                ):
                    mask[i] = False
            out.append(mask)
        return out


def _topk_stations(rs_c: Sequence[float], max_radii: Sequence[float],
                   limit: int) -> set:
    """Station ids of the ``limit`` nearest reaching stations (shared).

    Lexicographic ``(distance, station_id)`` order — identical to the
    stable argsort tie-break of the vectorized kernel
    (:func:`repro.core.backend.topk_station_mask`).
    """
    pairs = sorted(
        (float(rs_c[s]), s)
        for s in range(len(max_radii))
        if rs_c[s] <= max_radii[s] * _SLACK
    )
    return {s for _, s in pairs[:limit]}


@dataclass(frozen=True)
class MaxAssignments(Constraint):
    """Deployment rule: attach only to the ``limit`` nearest reaching stations.

    For each customer, stations are ranked by ``(distance, station_id)``
    among those whose maximum antenna radius reaches the customer; all
    stations outside the top ``limit`` are masked ineligible for it.
    The ranking is restricted to *reaching* stations, so the selection is
    invariant under the reach-component partition
    (:mod:`repro.engine.partition`): every station reaching a customer
    lives in its component, hence the per-component top-``limit`` equals
    the global one (``docs/SCENARIOS.md``).
    """

    limit: int = 1
    kind = "max_assignments"

    def __post_init__(self) -> None:
        try:
            limit = int(self.limit)
        except (TypeError, ValueError):
            raise InvalidInstanceError(
                "constraints", f"max_assignments limit must be an int, "
                f"got {self.limit!r}"
            ) from None
        if limit < 1:
            raise InvalidInstanceError(
                "constraints", f"max_assignments limit must be >= 1, got {limit}"
            )
        object.__setattr__(self, "limit", limit)

    def station_masks(self, positions, station_positions, rs_by_station,
                      max_radii) -> Optional[List[np.ndarray]]:
        """Top-``limit`` nearest-reaching membership masks."""
        m = len(max_radii)
        if m <= self.limit:
            return None  # every station can be in the top-k: all-pass
        n = positions.shape[0]
        masks = [np.zeros(n, dtype=bool) for _ in range(m)]
        for i in range(n):
            keep = _topk_stations(
                [rs_by_station[s][i] for s in range(m)], max_radii, self.limit
            )
            for s in keep:
                masks[s][i] = True
        return masks


#: kind tag -> constraint class.  ``scripts/check_docs.py`` enforces that
#: every registered kind is documented in ``docs/SCENARIOS.md``.
CONSTRAINT_KINDS: Dict[str, type] = {
    Reach.kind: Reach,
    LosBlockage.kind: LosBlockage,
    MaxAssignments.kind: MaxAssignments,
}


# ----------------------------------------------------------------------
# Wire grammar
# ----------------------------------------------------------------------
def constraint_to_dict(constraint: Constraint) -> Dict[str, Any]:
    """Serialize one constraint to its wire dict (``docs/SCENARIOS.md``)."""
    if isinstance(constraint, Reach):
        return {"kind": "reach"}
    if isinstance(constraint, LosBlockage):
        return {
            "kind": "los_blockage",
            "segments": [list(seg) for seg in constraint.segments],
        }
    if isinstance(constraint, MaxAssignments):
        return {"kind": "max_assignments", "limit": int(constraint.limit)}
    raise TypeError(f"not a constraint: {type(constraint).__name__}")


def constraint_from_dict(d: Any, where: str = "constraints") -> Constraint:
    """Revive one constraint from its wire dict; typed errors on bad input."""
    if not isinstance(d, dict):
        raise InvalidInstanceError(
            where, f"constraint must be an object, got {type(d).__name__}"
        )
    kind = d.get("kind")
    if kind not in CONSTRAINT_KINDS:
        raise InvalidInstanceError(
            where,
            f"unknown constraint kind {kind!r} (expected one of "
            f"{sorted(CONSTRAINT_KINDS)})",
        )
    unknown = set(d) - {"kind", "segments", "limit"}
    if unknown:
        raise InvalidInstanceError(
            where, f"unknown {kind} constraint field(s): {sorted(unknown)}"
        )
    try:
        if kind == "reach":
            return Reach()
        if kind == "los_blockage":
            segments = tuple(
                tuple(float(v) for v in seg)
                for seg in d.get("segments", ())
            )
            return LosBlockage(segments=segments)
        return MaxAssignments(limit=d.get("limit", 1))
    except InvalidInstanceError:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(where, str(exc)) from None


def constraints_to_wire(constraints: Sequence[Constraint]) -> List[Dict[str, Any]]:
    """Serialize a constraint tuple for the instance wire dict."""
    return [constraint_to_dict(c) for c in constraints]


def constraints_from_wire(payload: Any, where: str = "constraints"
                          ) -> Tuple[Constraint, ...]:
    """Revive the optional ``constraints`` list of an instance dict."""
    if payload is None:
        return ()
    if not isinstance(payload, (list, tuple)):
        raise InvalidInstanceError(
            where, f"must be a list of constraint objects, "
            f"got {type(payload).__name__}"
        )
    return tuple(
        constraint_from_dict(c, where=f"{where}[{i}]")
        for i, c in enumerate(payload)
    )


def validate_constraints(constraints: Any) -> Tuple[Constraint, ...]:
    """Normalize an instance's ``constraints`` input to a validated tuple."""
    if constraints is None:
        return ()
    out = tuple(constraints)
    for i, c in enumerate(out):
        if not isinstance(c, Constraint):
            raise InvalidInstanceError(
                "constraints",
                f"entry {i} must be a Constraint, got {type(c).__name__}",
            )
    return out


def nontrivial_constraints(constraints: Sequence[Constraint]
                           ) -> Tuple[Constraint, ...]:
    """The constraints that can actually mask pairs (drops ``reach``)."""
    return tuple(c for c in constraints if not isinstance(c, Reach))


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def compose_station_masks(
    instance,
    rs_by_station: Sequence[np.ndarray],
    backend: str = "python",
) -> Optional[List[np.ndarray]]:
    """AND every constraint's masks into per-station effective masks.

    ``rs_by_station[s]`` must be the compiled station's relative-distance
    array (``CompiledStation.rs`` or any bit-identical source such as the
    partitioner's streamed ``hypot``).  Returns one ``(n,)`` boolean mask
    per station, or ``None`` when no constraint masks anything (no
    constraints, only ``reach``, or only all-pass specs) — the compiled
    core uses ``None`` to skip composition entirely, keeping the
    unconstrained path bit-identical to the pre-pipeline code.

    ``backend="numpy"`` routes each constraint through the vectorized
    kernels of :mod:`repro.core.backend` — the path
    :meth:`~repro.core.compiled.CompiledSectorInstance.constraint_masks`
    runs.  ``backend="python"`` is the scalar reference; the two are
    bit-identical (asserted by ``tests/test_constraints.py``).
    """
    active = nontrivial_constraints(getattr(instance, "constraints", ()))
    if not active:
        return None
    positions = instance.positions
    station_positions = [st.position for st in instance.stations]
    max_radii = [st.max_radius for st in instance.stations]
    combined: Optional[List[np.ndarray]] = None
    for constraint in active:
        if backend == "numpy":
            masks = _numpy_station_masks(
                constraint, positions, station_positions, rs_by_station,
                max_radii,
            )
        else:
            masks = constraint.station_masks(
                positions, station_positions, rs_by_station, max_radii
            )
        if masks is None:
            continue
        if combined is None:
            combined = [np.array(m, dtype=bool) for m in masks]
        else:
            for s, m in enumerate(masks):
                combined[s] &= m
    return combined


def _segments_near(sx: float, sy: float, segments: np.ndarray,
                   reach_len: float) -> np.ndarray:
    """Blockage segments within ``reach_len`` of the station (keep mask).

    A segment can only properly cross a station→customer line of length
    ``<= reach_len`` if the crossing point — a point of the segment —
    lies inside the closed reach disk, so segments strictly farther than
    ``reach_len`` are droppable without changing any within-reach mask
    bit.  The cut uses a small relative margin so floating-point error in
    the point-to-segment distance can never drop a segment that sits
    exactly on the reach boundary.
    """
    x1, y1 = segments[:, 0], segments[:, 1]
    dx = segments[:, 2] - x1
    dy = segments[:, 3] - y1
    length2 = dx * dx + dy * dy
    t = np.where(
        length2 > 0.0,
        ((sx - x1) * dx + (sy - y1) * dy) / np.where(length2 > 0.0, length2, 1.0),
        0.0,
    )
    t = np.clip(t, 0.0, 1.0)
    dist = np.hypot(x1 + t * dx - sx, y1 + t * dy - sy)
    return dist <= reach_len * (1.0 + 1e-9) + 1e-12


def _numpy_station_masks(
    constraint: Constraint,
    positions: np.ndarray,
    station_positions: Sequence[Tuple[float, float]],
    rs_by_station: Sequence[np.ndarray],
    max_radii: Sequence[float],
) -> Optional[List[np.ndarray]]:
    """Vectorized-path dispatch onto the :mod:`repro.core.backend` kernels."""
    from repro.core.backend import los_blocked, topk_station_mask

    if isinstance(constraint, LosBlockage):
        if not constraint.segments:
            return None
        segments = np.asarray(constraint.segments, dtype=np.float64)
        n = positions.shape[0]
        out: List[np.ndarray] = []
        for s, (sx, sy) in enumerate(station_positions):
            sx, sy = float(sx), float(sy)
            reach_len = max_radii[s] * _SLACK
            mask = np.ones(n, dtype=bool)
            # Same reach window as the scalar path; the crossing tests
            # run only on the customers (and segments) the station can
            # actually serve, so composition stays O(reachable pairs).
            idx = np.flatnonzero(np.asarray(rs_by_station[s]) <= reach_len)
            if idx.size:
                near = segments[_segments_near(sx, sy, segments, reach_len)]
                if near.shape[0]:
                    mask[idx] = ~los_blocked(sx, sy, positions[idx], near)
            out.append(mask)
        return out
    if isinstance(constraint, MaxAssignments):
        m = len(max_radii)
        if m <= constraint.limit:
            return None
        # Per-station reach rows, then rank only the *contested* columns
        # (more than ``limit`` reaching stations) through the kernel —
        # uncontested customers keep their reach column verbatim, which
        # is exactly their top-``limit``.  Avoids materializing the full
        # (m, n) float distance matrix when contention is sparse.
        rows = [np.asarray(r, dtype=np.float64) for r in rs_by_station]
        reach_rows = [
            rows[s] <= max_radii[s] * _SLACK for s in range(m)
        ]
        counts = np.zeros(rows[0].shape[0], dtype=np.int64)
        for r in reach_rows:
            counts += r
        hard = np.flatnonzero(counts > constraint.limit)
        if hard.size:
            sub = np.stack([rows[s][hard] for s in range(m)], axis=0)
            radii = np.asarray(max_radii, dtype=np.float64)
            sub_mask = topk_station_mask(sub, radii, constraint.limit)
            for s in range(m):
                reach_rows[s][hard] = sub_mask[s]
        return reach_rows
    # Unknown / declarative kinds fall back to their scalar path.
    return constraint.station_masks(
        positions, station_positions, rs_by_station, max_radii
    )
