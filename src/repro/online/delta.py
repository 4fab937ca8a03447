"""Delta-compiled instances: incremental online solving without recompiles.

The dynamic workload (``docs/ONLINE.md``): customers arrive, depart, and
change demand, and the engine must answer from the *current* instance
without paying a full ``Instance.compile()`` per event.  A
:class:`DeltaCompiledInstance` owns one instance plus its compiled
struct-of-arrays view and applies :class:`AddCustomer` /
:class:`RemoveCustomer` / :class:`UpdateDemand` events by patching the
views in place of rebuilding them:

* the **stable angle argsort** is patched by binary insertion
  (``searchsorted`` right-bisect for inserts — a new customer carries the
  largest original index, so it lands *after* every equal angle, exactly
  where a fresh stable argsort would put it — and left-bisect plus a
  tie-run scan for removals);
* the **doubled prefix sums** are rebuilt with the exact operations of
  ``repro.core.compiled._doubled_prefix`` (cumulative sums cannot be
  float-patched without changing summation order), but only for the arrays
  an event actually dirtied;
* per-station **polar views and fitting-radius masks** (sector kind) are
  patched with single-row ``relative_polar`` conversions and scalar mask
  appends — elementwise operations, hence bit-identical to a fresh batch
  conversion;
* per-station **constraint masks** (sector kind, ``docs/SCENARIOS.md``)
  are patched by column: every registered constraint is per-customer
  independent (a customer's line-of-sight and top-``k`` station ranking
  depend only on its own position and the fixed stations), so the
  appended customer's composed column
  (:func:`repro.model.constraints.effective_column`, computed through the
  same per-pair primitives as a full composition) plus row deletion on
  removals reproduces a fresh ``constraint_masks()`` bit-for-bit;
* the **staleness fingerprint** (``_compile_token``) is refreshed so the
  patched instance passes ``compile()``'s memo self-check.

The contract — property-tested in ``tests/test_online_delta.py`` — is that
after every event the delta view is **bit-identical** to
``Instance.compile()`` of a freshly constructed instance with the same
content: same argsort, same prefix sums, same masks, same engine
fingerprint.  Untouched arrays are reused by reference across generations,
which is what makes delta-apply ≥5× cheaper than a recompile at n ≥ 10⁴
(the ``slow`` test ``tests/test_online_delta.py::TestTimingGate`` enforces
this at n = 3·10⁴).

Engine integration: :meth:`DeltaCompiledInstance.publish` registers the
current-generation instance as the engine's canonical instance for its
fingerprint (:func:`repro.engine.cache.intern_instance`), so engine
solves of that content run on the patched view instead of recompiling.

Per-sector cache invalidation: callers tag engine result-cache keys with
the angular window they were solved over (:meth:`register_window`); an
event touching angle θ evicts exactly the keys whose window contains θ
(``engine.online.invalidated``) and retains the rest
(``engine.online.retained``), so untouched-sector entries stay warm.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.compiled import (
    CompiledAngleInstance,
    CompiledSectorInstance,
    CompiledStation,
    _RADIUS_SLACK,
    _SortedAngles,
    _doubled_prefix,
    _frozen,
)
from repro.geometry.angles import TWO_PI, _EPS_WRAP, ccw_delta, normalize_angles
from repro.geometry.points import cartesians_to_polar, relative_polar
from repro.model.instance import (
    AngleInstance,
    InvalidInstanceError,
    SectorInstance,
)
from repro.obs.metrics import get_registry

__all__ = [
    "AddCustomer",
    "RemoveCustomer",
    "UpdateDemand",
    "Event",
    "DeltaCompiledInstance",
    "event_to_dict",
    "event_from_dict",
]

_REG = get_registry()
# Wall time spent applying event deltas (contract: docs/OBSERVABILITY.md).
_DELTA_TIMER = _REG.timer("phase.delta")
_EVENTS = _REG.counter("engine.online.events")
_APPLIES = _REG.counter("engine.online.applies")
_INVALIDATED = _REG.counter("engine.online.invalidated")
_RETAINED = _REG.counter("engine.online.retained")


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddCustomer:
    """A new customer appears (appended at original index ``n``).

    Angle instances take ``theta`` (radians, normalized on apply); sector
    instances take ``position`` ``(x, y)``.  ``profit`` defaults to
    ``demand``, matching the constructors' ``profits=None`` semantics.
    """

    demand: float
    theta: Optional[float] = None
    position: Optional[Tuple[float, float]] = None
    profit: Optional[float] = None


@dataclass(frozen=True)
class RemoveCustomer:
    """Customer ``index`` departs; later customers shift down by one.

    ``index`` is the *current* original index (the row in the instance
    arrays), not a stable external id — after a removal, indices above it
    decrement, exactly as if the instance had been rebuilt without the row.
    """

    index: int


@dataclass(frozen=True)
class UpdateDemand:
    """Customer ``index`` changes demand and/or profit (geometry fixed).

    At least one of ``demand`` / ``profit`` must be given; an omitted field
    keeps its current value.
    """

    index: int
    demand: Optional[float] = None
    profit: Optional[float] = None


#: Union of the three event types accepted by :meth:`DeltaCompiledInstance.apply`.
Event = Union[AddCustomer, RemoveCustomer, UpdateDemand]

_EVENT_TYPES = {
    "add_customer": AddCustomer,
    "remove_customer": RemoveCustomer,
    "update_demand": UpdateDemand,
}

#: Allowed wire fields per event type (strict: unknown fields are rejected,
#: mirroring the envelope grammar in :mod:`repro.service.protocol`).
_EVENT_FIELDS = {
    "add_customer": {"type", "demand", "theta", "position", "profit"},
    "remove_customer": {"type", "index"},
    "update_demand": {"type", "index", "demand", "profit"},
}


def event_to_dict(event: Event) -> dict:
    """Serialize an event for the wire (``docs/ONLINE.md`` event grammar)."""
    if isinstance(event, AddCustomer):
        payload: dict = {"type": "add_customer", "demand": float(event.demand)}
        if event.theta is not None:
            payload["theta"] = float(event.theta)
        if event.position is not None:
            payload["position"] = [float(event.position[0]), float(event.position[1])]
        if event.profit is not None:
            payload["profit"] = float(event.profit)
        return payload
    if isinstance(event, RemoveCustomer):
        return {"type": "remove_customer", "index": int(event.index)}
    if isinstance(event, UpdateDemand):
        payload = {"type": "update_demand", "index": int(event.index)}
        if event.demand is not None:
            payload["demand"] = float(event.demand)
        if event.profit is not None:
            payload["profit"] = float(event.profit)
        return payload
    raise TypeError(f"not an event: {type(event).__name__}")


def event_from_dict(payload) -> Event:
    """Parse one wire event dict; raises ``ValueError`` on a malformed one.

    Malformed *structure* (unknown ``type``, missing required keys,
    non-numeric fields) raises ``ValueError`` — wire status 2 — while
    semantically invalid *values* (non-positive demand, index out of
    range) surface later, at apply time, as ``InvalidInstanceError`` —
    wire status 3.  See ``docs/ONLINE.md``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"event must be an object, got {type(payload).__name__}")
    kind = payload.get("type")
    if kind not in _EVENT_TYPES:
        raise ValueError(
            f"unknown event type {kind!r} (expected one of "
            f"{sorted(_EVENT_TYPES)})"
        )
    unknown = set(payload) - _EVENT_FIELDS[kind]
    if unknown:
        raise ValueError(
            f"unknown {kind} event field(s): {sorted(unknown)}"
        )
    try:
        if kind == "add_customer":
            if "demand" not in payload:
                raise ValueError("add_customer event requires 'demand'")
            if ("theta" in payload) == ("position" in payload):
                raise ValueError(
                    "add_customer event requires exactly one of "
                    "'theta' (angle) or 'position' (sector)"
                )
            position = payload.get("position")
            if position is not None:
                if len(position) != 2:
                    raise ValueError("'position' must be an [x, y] pair")
                position = (float(position[0]), float(position[1]))
            return AddCustomer(
                demand=float(payload["demand"]),
                theta=float(payload["theta"]) if "theta" in payload else None,
                position=position,
                profit=float(payload["profit"]) if "profit" in payload else None,
            )
        if kind == "remove_customer":
            if "index" not in payload:
                raise ValueError("remove_customer event requires 'index'")
            return RemoveCustomer(index=int(payload["index"]))
        if "index" not in payload:
            raise ValueError("update_demand event requires 'index'")
        if "demand" not in payload and "profit" not in payload:
            raise ValueError(
                "update_demand event requires at least one of 'demand'/'profit'"
            )
        return UpdateDemand(
            index=int(payload["index"]),
            demand=float(payload["demand"]) if "demand" in payload else None,
            profit=float(payload["profit"]) if "profit" in payload else None,
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed {kind} event: {exc}") from exc


# ----------------------------------------------------------------------
# Array patch primitives (always allocate fresh: current arrays are frozen)
# ----------------------------------------------------------------------
def _insert_at(arr: np.ndarray, pos: int, value) -> np.ndarray:
    out = np.empty(arr.shape[0] + 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos] = value
    out[pos + 1:] = arr[pos:]
    return out


def _delete_at(arr: np.ndarray, pos: int) -> np.ndarray:
    out = np.empty(arr.shape[0] - 1, dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos:] = arr[pos + 1:]
    return out


def _set_at(arr: np.ndarray, pos: int, value) -> np.ndarray:
    out = arr.copy()
    out[pos] = value
    return out


def _append_row(arr: np.ndarray, row: Tuple[float, float]) -> np.ndarray:
    out = np.empty((arr.shape[0] + 1, 2), dtype=arr.dtype)
    out[:-1] = arr
    out[-1, 0] = row[0]
    out[-1, 1] = row[1]
    return out


def _delete_row(arr: np.ndarray, pos: int) -> np.ndarray:
    out = np.empty((arr.shape[0] - 1, 2), dtype=arr.dtype)
    out[:pos] = arr[:pos]
    out[pos:] = arr[pos + 1:]
    return out


def _token_parts(arr: np.ndarray) -> Tuple[float, float]:
    """One array's ``(sum, position-weighted sum)`` staleness-token pair.

    Mirrors ``repro.model.instance._compile_token`` exactly so cached
    per-array pairs assemble into a bitwise-equal token tuple.
    """
    a = np.asarray(arr, dtype=np.float64).ravel()
    s = float(a.sum())
    d = (
        float(np.dot(a, np.arange(1, a.size + 1, dtype=np.float64)))
        if a.size
        else 0.0
    )
    return (s, d)


def _check_positive(field: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise InvalidInstanceError(field, f"must be finite (event value is {value})")
    if value <= 0:
        raise InvalidInstanceError(field, f"must be positive (event value is {value})")
    return value


class _SortPatch:
    """A patchable stable argsort: (order, sorted_thetas) kept in sync.

    The invariant after every patch is exactly
    ``order == np.argsort(thetas, kind="stable")`` and
    ``sorted_thetas == thetas[order]`` for the current ``thetas``.
    """

    __slots__ = ("order", "sorted_thetas")

    def __init__(self, order: np.ndarray, sorted_thetas: np.ndarray):
        self.order = order
        self.sorted_thetas = sorted_thetas

    def insert(self, theta: float, original_index: int) -> None:
        """Insert the appended customer (largest original index).

        Right-bisect: a stable argsort orders equal angles by original
        index, and the new customer's index exceeds every existing one.
        """
        p = int(np.searchsorted(self.sorted_thetas, theta, side="right"))
        self.order = _insert_at(self.order, p, original_index)
        self.sorted_thetas = _insert_at(self.sorted_thetas, p, theta)

    def remove(self, theta: float, original_index: int) -> None:
        """Remove customer ``original_index`` and shift later indices down.

        Left-bisect finds the first equal angle; the tie run is scanned for
        the matching original index (stored angles are compared exactly, so
        the bisect lands on the run containing it).
        """
        p = int(np.searchsorted(self.sorted_thetas, theta, side="left"))
        while self.order[p] != original_index:
            p += 1
        order = _delete_at(self.order, p)
        order[order > original_index] -= 1
        self.order = order
        self.sorted_thetas = _delete_at(self.sorted_thetas, p)


def _materialize_sorted(patch: _SortPatch, thetas: np.ndarray) -> _SortedAngles:
    """Build a ``_SortedAngles`` shell from a patched sort (no re-argsort)."""
    n = int(thetas.shape[0])
    angles = _SortedAngles.__new__(_SortedAngles)
    angles.thetas = thetas
    angles.n = n
    angles.order = _frozen(patch.order)
    angles.sorted_thetas = _frozen(patch.sorted_thetas)
    rank = np.empty(n, dtype=np.intp)
    rank[angles.order] = np.arange(n)
    angles.rank_of_original = _frozen(rank)
    angles._sweeps = {}
    angles._lock = threading.Lock()
    # Re-adopt as writable working copies for the next patch generation.
    patch.order = angles.order
    patch.sorted_thetas = angles.sorted_thetas
    return angles


# ----------------------------------------------------------------------
# The delta view
# ----------------------------------------------------------------------
class DeltaCompiledInstance:
    """An instance plus its compiled view, updated by events in place.

    Construction compiles the seed instance once (sector instances build
    every station view eagerly through the same per-station path a lazy
    ``station()`` call takes, so patched and fresh views are
    interchangeable).  :meth:`apply` then advances both the instance and
    the compiled view per event; :attr:`instance` / :attr:`compiled`
    always expose the current generation, with the compiled view already
    installed as the instance's ``compile()`` memo (matching token).

    Thread-safety: one delta view is single-writer — :meth:`apply` holds a
    lock, and readers must take a generation snapshot via
    :attr:`instance` before solving (the shard-sticky service tier gives
    each session one owning worker, see ``docs/ONLINE.md``).
    """

    def __init__(self, instance) -> None:
        if isinstance(instance, AngleInstance):
            self.kind = "angle"
        elif isinstance(instance, SectorInstance):
            self.kind = "sector"
        else:
            raise TypeError(
                f"cannot delta-compile {type(instance).__name__}: "
                "expected an AngleInstance or SectorInstance"
            )
        self._instance = instance
        self._compiled = instance.compile()
        self._lock = threading.Lock()
        self._windows: Dict[object, Tuple[float, float]] = {}
        self._events_applied = 0
        # The paper's objective has profit == demand; when the arrays are
        # bitwise equal the demand-sorted prefix sums and token reductions
        # serve for both, halving the per-event rebuild cost.  Conservative:
        # once an event breaks equality the flag never returns.
        self._profits_shared = bool(
            np.array_equal(instance.demands, instance.profits)
        )
        geom = instance.thetas if self.kind == "angle" else instance.positions
        self._tok = {
            "geom": _token_parts(geom),
            "demands": _token_parts(instance.demands),
            "profits": _token_parts(instance.profits),
        }
        if self.kind == "angle":
            self._sort = _SortPatch(self._compiled.order, self._compiled.sorted_thetas)
        else:
            # Build every station view now so each has arrays to patch.
            for s in range(len(instance.stations)):
                self._compiled.station(s)
            self._station_sorts = {
                s: _SortPatch(view._angles.order, view._angles.sorted_thetas)
                for s, view in self._compiled._stations.items()
            }
            # Materialize constraint masks up front (memoized None for
            # unconstrained instances) so every generation has arrays to
            # column-patch instead of recomposing per event.
            self._cmask_active = self._compiled.constraint_masks() is not None

    # -- read side ------------------------------------------------------
    @property
    def instance(self):
        """The current-generation instance (immutable, compile()-memoized)."""
        return self._instance

    @property
    def compiled(self):
        """The current-generation compiled view (``instance.compile()``)."""
        return self._compiled

    @property
    def n(self) -> int:
        """Current number of customers."""
        return int(self._instance.n)

    @property
    def events_applied(self) -> int:
        """Total events applied since construction."""
        return self._events_applied

    # -- write side -----------------------------------------------------
    def apply(self, events: Union[Event, Sequence[Event]]) -> dict:
        """Apply one event or a sequence, advancing the generation once.

        Returns ``{"applied", "invalidated", "retained", "n"}`` — the
        event count, the result-cache eviction split from per-sector
        invalidation, and the new customer count.  Timed under
        ``phase.delta``; counted under ``engine.online.*``.
        """
        if isinstance(events, (AddCustomer, RemoveCustomer, UpdateDemand)):
            events = [events]
        events = list(events)
        with self._lock, _DELTA_TIMER.time():
            touched: List[float] = []
            if self.kind == "angle":
                state = self._angle_state()
                for event in events:
                    self._apply_angle(state, event, touched)
                self._finalize_angle(state)
            else:
                state = self._sector_state()
                for event in events:
                    self._apply_sector(state, event, touched)
                self._finalize_sector(state)
            self._events_applied += len(events)
            _EVENTS.inc(len(events))
            _APPLIES.inc()
            invalidated, retained = self._invalidate(touched)
        return {
            "applied": len(events),
            "invalidated": invalidated,
            "retained": retained,
            "n": self.n,
        }

    # -- angle kind -----------------------------------------------------
    def _angle_state(self) -> dict:
        inst = self._instance
        return {
            "thetas": inst.thetas,
            "demands": inst.demands,
            "profits": inst.profits,
            "dirty_thetas": False,
            "dirty_demands": False,
            "dirty_profits": False,
            "resorted": False,
        }

    def _apply_angle(self, state: dict, event: Event, touched: List[float]) -> None:
        if isinstance(event, AddCustomer):
            if event.theta is None:
                raise InvalidInstanceError(
                    "thetas", "angle-instance add_customer event requires 'theta'"
                )
            raw = float(event.theta)
            if not np.isfinite(raw):
                raise InvalidInstanceError(
                    "thetas", f"must be finite (event value is {raw})"
                )
            # One-element vectorized normalize: bit-identical to what a
            # fresh __post_init__ would compute for this entry, and
            # idempotent on the already-normalized stored values.
            theta = float(normalize_angles(np.array([raw]))[0])
            demand = _check_positive("demands", event.demand)
            profit = (
                demand if event.profit is None
                else _check_positive("profits", event.profit)
            )
            if profit != demand:
                self._profits_shared = False
            n = state["thetas"].shape[0]
            self._sort.insert(theta, n)
            state["thetas"] = _insert_at(state["thetas"], n, theta)
            state["demands"] = _insert_at(state["demands"], n, demand)
            state["profits"] = _insert_at(state["profits"], n, profit)
            state["dirty_thetas"] = state["dirty_demands"] = True
            state["dirty_profits"] = state["resorted"] = True
            touched.append(theta)
        elif isinstance(event, RemoveCustomer):
            i = self._check_index(event.index, state["thetas"].shape[0])
            theta = float(state["thetas"][i])
            self._sort.remove(theta, i)
            state["thetas"] = _delete_at(state["thetas"], i)
            state["demands"] = _delete_at(state["demands"], i)
            state["profits"] = _delete_at(state["profits"], i)
            state["dirty_thetas"] = state["dirty_demands"] = True
            state["dirty_profits"] = state["resorted"] = True
            touched.append(theta)
        else:
            i = self._check_index(event.index, state["thetas"].shape[0])
            self._apply_update(state, event, i)
            touched.append(float(state["thetas"][i]))

    @staticmethod
    def _check_index(index: int, n: int) -> int:
        i = int(index)
        if not 0 <= i < n:
            raise InvalidInstanceError(
                "index", f"event index {i} out of range for n={n}"
            )
        return i

    def _apply_update(self, state: dict, event: UpdateDemand, i: int) -> None:
        if event.demand is None and event.profit is None:
            raise InvalidInstanceError(
                "demands", "update_demand event changed neither demand nor profit"
            )
        if not (
            event.demand is not None
            and event.profit is not None
            and float(event.demand) == float(event.profit)
        ):
            self._profits_shared = False
        if event.demand is not None:
            state["demands"] = _set_at(
                state["demands"], i, _check_positive("demands", event.demand)
            )
            state["dirty_demands"] = True
        if event.profit is not None:
            state["profits"] = _set_at(
                state["profits"], i, _check_positive("profits", event.profit)
            )
            state["dirty_profits"] = True

    def _finalize_angle(self, state: dict) -> None:
        old = self._compiled
        thetas = (
            _frozen(state["thetas"]) if state["dirty_thetas"]
            else self._instance.thetas
        )
        demands = (
            _frozen(state["demands"]) if state["dirty_demands"]
            else self._instance.demands
        )
        if self._profits_shared:
            # profits is bitwise equal to demands: share the array object
            # (fingerprint/equality hash content, not identity).
            profits = demands
        elif state["dirty_profits"]:
            profits = _frozen(state["profits"])
        else:
            profits = self._instance.profits
        inst = AngleInstance.__new__(AngleInstance)
        object.__setattr__(inst, "thetas", thetas)
        object.__setattr__(inst, "demands", demands)
        object.__setattr__(inst, "profits", profits)
        object.__setattr__(inst, "antennas", self._instance.antennas)
        view = CompiledAngleInstance.__new__(CompiledAngleInstance)
        view.instance = inst
        view.n = int(thetas.shape[0])
        if state["resorted"]:
            view._angles = _materialize_sorted(self._sort, thetas)
        else:
            view._angles = old._angles
        view.order = view._angles.order
        view.sorted_thetas = view._angles.sorted_thetas
        view.rank_of_original = view._angles.rank_of_original
        # Prefix sums cannot be float-patched (summation order): rebuild
        # dirty ones with the exact _doubled_prefix operations.
        if state["resorted"] or state["dirty_demands"]:
            view.demand_prefix = _doubled_prefix(demands[view.order])
        else:
            view.demand_prefix = old.demand_prefix
        if self._profits_shared:
            # Equal arrays -> the same _doubled_prefix ops yield the same
            # bits; one cumsum pass serves both prefixes.
            view.profit_prefix = view.demand_prefix
        elif state["resorted"] or state["dirty_profits"]:
            view.profit_prefix = _doubled_prefix(profits[view.order])
        else:
            view.profit_prefix = old.profit_prefix
        view._grids = {}
        view._lock = threading.Lock()
        token = self._refresh_token(state, "dirty_thetas", thetas, demands, profits)
        object.__setattr__(inst, "_compiled", view)
        object.__setattr__(inst, "_compile_token", token)
        self._instance = inst
        self._compiled = view

    def _refresh_token(
        self,
        state: dict,
        geom_key: str,
        geom: np.ndarray,
        demands: np.ndarray,
        profits: np.ndarray,
    ) -> tuple:
        """Assemble the staleness token, recomputing only dirty arrays.

        Per-array ``(sum, dot)`` pairs are cached across generations;
        concatenating them reproduces ``_compile_token(geom, demands,
        profits)`` bitwise because each pair is computed by the identical
        expression over the identical array content.
        """
        if state[geom_key]:
            self._tok["geom"] = _token_parts(geom)
        if state["dirty_demands"]:
            self._tok["demands"] = _token_parts(demands)
        if self._profits_shared:
            self._tok["profits"] = self._tok["demands"]
        elif state["dirty_profits"]:
            self._tok["profits"] = _token_parts(profits)
        return self._tok["geom"] + self._tok["demands"] + self._tok["profits"]

    # -- sector kind ----------------------------------------------------
    def _sector_state(self) -> dict:
        inst = self._instance
        return {
            "positions": inst.positions,
            "demands": inst.demands,
            "profits": inst.profits,
            # Per-station (thetas, rs) working arrays; populated lazily on
            # the first geometry event, None means "unchanged".
            "station_polar": {},
            # Per-station constraint-mask working arrays (same protocol).
            "cmask": {},
            "dirty_positions": False,
            "dirty_demands": False,
            "dirty_profits": False,
        }

    def _station_arrays(self, state: dict, s: int) -> Tuple[np.ndarray, np.ndarray]:
        pair = state["station_polar"].get(s)
        if pair is None:
            view = self._compiled._stations[s]
            pair = (view.thetas, view.rs)
        return pair

    def _cmask_array(self, state: dict, s: int) -> np.ndarray:
        cm = state["cmask"].get(s)
        if cm is None:
            cm = self._compiled._constraint_masks[s]
        return cm

    def _apply_sector(self, state: dict, event: Event, touched: List[float]) -> None:
        if isinstance(event, AddCustomer):
            if event.position is None:
                raise InvalidInstanceError(
                    "positions",
                    "sector-instance add_customer event requires 'position'",
                )
            x, y = float(event.position[0]), float(event.position[1])
            if not (np.isfinite(x) and np.isfinite(y)):
                raise InvalidInstanceError(
                    "positions", f"must be finite (event value is {(x, y)})"
                )
            demand = _check_positive("demands", event.demand)
            profit = (
                demand if event.profit is None
                else _check_positive("profits", event.profit)
            )
            if profit != demand:
                self._profits_shared = False
            n = state["positions"].shape[0]
            point = np.array([[x, y]], dtype=np.float64)
            rs_new: List[float] = []
            for s, st in enumerate(self._instance.stations):
                # Single-row conversion: relative_polar is elementwise, so
                # row i of a batch equals the same row converted alone.
                th_row, r_row = relative_polar(point, np.asarray(st.position))
                theta_s, r_s = float(th_row[0]), float(r_row[0])
                thetas, rs = self._station_arrays(state, s)
                state["station_polar"][s] = (
                    _insert_at(thetas, n, theta_s),
                    _insert_at(rs, n, r_s),
                )
                self._station_sorts[s].insert(theta_s, n)
                rs_new.append(r_s)
            if self._cmask_active:
                # Per-customer independence (module doc): the new column
                # composed alone equals its slice of a full recomposition.
                from repro.model.constraints import effective_column

                col = effective_column(
                    self._instance.constraints,
                    [st.position for st in self._instance.stations],
                    (x, y),
                    rs_new,
                    [st.max_radius for st in self._instance.stations],
                )
                for s in range(len(self._instance.stations)):
                    state["cmask"][s] = _insert_at(
                        self._cmask_array(state, s), n, bool(col[s])
                    )
            state["positions"] = _append_row(state["positions"], (x, y))
            state["demands"] = _insert_at(state["demands"], n, demand)
            state["profits"] = _insert_at(state["profits"], n, profit)
            state["dirty_positions"] = state["dirty_demands"] = True
            state["dirty_profits"] = True
            touched.append(self._origin_angle(x, y))
        elif isinstance(event, RemoveCustomer):
            i = self._check_index(event.index, state["positions"].shape[0])
            x, y = (
                float(state["positions"][i, 0]),
                float(state["positions"][i, 1]),
            )
            for s in range(len(self._instance.stations)):
                thetas, rs = self._station_arrays(state, s)
                self._station_sorts[s].remove(float(thetas[i]), i)
                state["station_polar"][s] = (
                    _delete_at(thetas, i),
                    _delete_at(rs, i),
                )
                if self._cmask_active:
                    state["cmask"][s] = _delete_at(self._cmask_array(state, s), i)
            state["positions"] = _delete_row(state["positions"], i)
            state["demands"] = _delete_at(state["demands"], i)
            state["profits"] = _delete_at(state["profits"], i)
            state["dirty_positions"] = state["dirty_demands"] = True
            state["dirty_profits"] = True
            touched.append(self._origin_angle(x, y))
        else:
            i = self._check_index(event.index, state["positions"].shape[0])
            self._apply_update(state, event, i)
            touched.append(
                self._origin_angle(
                    float(state["positions"][i, 0]),
                    float(state["positions"][i, 1]),
                )
            )

    @staticmethod
    def _origin_angle(x: float, y: float) -> float:
        """Polar angle of a position about the global origin (sector tags)."""
        thetas, _ = cartesians_to_polar(np.array([[x, y]], dtype=np.float64))
        return float(thetas[0])

    def _finalize_sector(self, state: dict) -> None:
        old = self._compiled
        positions = (
            _frozen(state["positions"]) if state["dirty_positions"]
            else self._instance.positions
        )
        demands = (
            _frozen(state["demands"]) if state["dirty_demands"]
            else self._instance.demands
        )
        if self._profits_shared:
            profits = demands
        elif state["dirty_profits"]:
            profits = _frozen(state["profits"])
        else:
            profits = self._instance.profits
        inst = SectorInstance.__new__(SectorInstance)
        object.__setattr__(inst, "positions", positions)
        object.__setattr__(inst, "demands", demands)
        object.__setattr__(inst, "profits", profits)
        object.__setattr__(inst, "stations", self._instance.stations)
        # __new__ bypasses dataclass defaults: the constraints tuple must
        # carry over explicitly or equality/serialization/fingerprint break.
        object.__setattr__(inst, "constraints", self._instance.constraints)
        view = CompiledSectorInstance.__new__(CompiledSectorInstance)
        view.instance = inst
        view.n = int(positions.shape[0])
        stations: Dict[int, CompiledStation] = {}
        for s, old_station in old._stations.items():
            pair = state["station_polar"].get(s)
            if pair is None:
                # Geometry untouched: the whole station view (arrays, sort,
                # memoized masks and sweeps) carries over by reference.
                stations[s] = old_station
                continue
            thetas = _frozen(pair[0])
            rs = _frozen(pair[1])
            st = CompiledStation.__new__(CompiledStation)
            st.station_id = old_station.station_id
            st.thetas = thetas
            st.rs = rs
            st._angles = _materialize_sorted(self._station_sorts[s], thetas)
            # Patch only the radius keys already materialized; others build
            # on demand from the new rs exactly as in a fresh view.
            st._masks = {
                key: _frozen(rs <= key * _RADIUS_SLACK)
                for key in old_station._masks
            }
            st._lock = threading.Lock()
            stations[s] = st
        view._stations = stations
        view._eligibility = None
        if self._cmask_active:
            old_cm = old._constraint_masks
            view._constraint_masks = [
                _frozen(state["cmask"][s]) if s in state["cmask"] else old_cm[s]
                for s in range(len(stations))
            ]
        else:
            # Equivalent to the memoized all-pass composition a fresh
            # compile of an unconstrained instance would cache.
            view._constraint_masks = None
        view._lock = threading.Lock()
        token = self._refresh_token(
            state, "dirty_positions", positions, demands, profits
        )
        object.__setattr__(inst, "_compiled", view)
        object.__setattr__(inst, "_compile_token", token)
        self._instance = inst
        self._compiled = view

    # -- per-sector cache invalidation ---------------------------------
    def register_window(self, key, start: float, width: float) -> None:
        """Tag a result-cache key with the angular window it covers.

        ``key`` is an engine result-cache key (``engine.cache.result_key``
        output, or any hashable); ``[start, start + width]`` is the closed
        arc — angles about the global origin for sector instances — whose
        customers the cached result depends on.  A later event touching an
        angle inside the arc evicts the key (``engine.online.invalidated``);
        events elsewhere leave it warm (``engine.online.retained``).
        """
        self._windows[key] = (float(start), float(width))

    def registered_windows(self) -> Dict[object, Tuple[float, float]]:
        """Snapshot of currently registered ``key -> (start, width)`` tags."""
        return dict(self._windows)

    def _invalidate(self, touched: List[float]) -> Tuple[int, int]:
        from repro.engine.cache import RESULT_CACHE

        if not self._windows:
            return 0, 0
        invalidated = retained = 0
        for key, (start, width) in list(self._windows.items()):
            hit = any(
                ccw_delta(start, theta) <= width + _EPS_WRAP for theta in touched
            )
            if hit:
                RESULT_CACHE.evict(key)
                del self._windows[key]
                invalidated += 1
            else:
                retained += 1
        _INVALIDATED.inc(invalidated)
        _RETAINED.inc(retained)
        return invalidated, retained

    # -- engine integration --------------------------------------------
    def publish(self) -> str:
        """Register the current generation as the engine's canonical instance.

        The engine solves on the interned equal-content instance
        (:func:`repro.engine.cache.intern_instance`); publishing after every
        apply makes that the patched instance, whose ``compile()`` memo is
        the patched view, so engine solves of the current generation
        recompile nothing.  Returns the content fingerprint.
        """
        from repro.engine.cache import COMPILE_CACHE, fingerprint

        fp = fingerprint(self._instance)
        COMPILE_CACHE.put(fp, self._instance)
        return fp

    # -- sector-window helpers -----------------------------------------
    def angles(self) -> np.ndarray:
        """Current customer angles for sectoring (origin-polar for 2-D)."""
        if self.kind == "angle":
            return self._instance.thetas
        thetas, _ = cartesians_to_polar(self._instance.positions)
        return thetas

    @staticmethod
    def sector_windows(num_sectors: int) -> List[Tuple[float, float]]:
        """The ``num_sectors`` equal ``(start, width)`` arcs tiling the circle."""
        if num_sectors < 1:
            raise ValueError("num_sectors must be >= 1")
        width = TWO_PI / num_sectors
        return [(s * width, width) for s in range(num_sectors)]

    @staticmethod
    def sector_of(theta: float, num_sectors: int) -> int:
        """Index of the equal sector containing a normalized angle."""
        if num_sectors < 1:
            raise ValueError("num_sectors must be >= 1")
        return min(int(float(theta) * num_sectors / TWO_PI), num_sectors - 1)

    def sector_members(self, sector: int, num_sectors: int) -> np.ndarray:
        """Strictly increasing customer indices whose angle falls in a sector."""
        thetas = self.angles()
        idx = np.minimum(
            (thetas * num_sectors / TWO_PI).astype(np.intp), num_sectors - 1
        )
        return np.flatnonzero(idx == int(sector))

    def sector_instance(self, sector: int, num_sectors: int):
        """Sub-instance over one sector's customers (``restrict`` semantics).

        Returns ``(sub_instance, original_indices)``.  Only defined for
        angle instances (sector instances partition by station reach via
        ``repro.engine.partition`` instead).
        """
        if self.kind != "angle":
            raise TypeError(
                "sector_instance() is for angle instances; use "
                "repro.engine.partition for 2-D decomposition"
            )
        return self._instance.restrict(self.sector_members(sector, num_sectors))
