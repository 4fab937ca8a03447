"""Delta sessions: a live instance advanced by customer events.

The dynamic workload (``docs/ONLINE.md``): customers arrive, depart, and
change demand, and the engine must answer from the *current* instance.
A :class:`DeltaCompiledInstance` owns one instance and applies
:class:`AddCustomer` / :class:`RemoveCustomer` / :class:`UpdateDemand`
events to it: each :meth:`~DeltaCompiledInstance.apply` validates every
event, patches the three customer arrays (angles or positions, demands,
profits) locally, and builds the next generation through the public
``AngleInstance`` / ``SectorInstance`` constructor.  The compiled view
is that generation's own ``compile()`` memo, built on first use.

Two properties follow by construction:

* **bit-identity** — a generation *is* a freshly constructed instance
  with the same content, so its compiled view (stable argsort, prefix
  sums, station views, constraint masks) and its content fingerprint
  equal those of a from-scratch rebuild, bit for bit
  (property-tested in ``tests/test_online_delta.py``);
* **atomic batches** — the new generation is swapped in only after the
  whole batch validated and constructed, so an invalid event leaves the
  session exactly as it was before the batch.

Engine integration: :meth:`DeltaCompiledInstance.publish` registers the
current generation as the engine's canonical instance for its
fingerprint (:func:`repro.engine.cache.intern_instance`), so engine
solves of that content share the generation's compile memo.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

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
# Event validation
# ----------------------------------------------------------------------
def _check_positive(field: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise InvalidInstanceError(field, f"must be finite (event value is {value})")
    if value <= 0:
        raise InvalidInstanceError(field, f"must be positive (event value is {value})")
    return value


def _check_index(index: int, n: int) -> int:
    i = int(index)
    if not 0 <= i < n:
        raise InvalidInstanceError(
            "index", f"event index {i} out of range for n={n}"
        )
    return i


def _new_point(kind: str, event: AddCustomer):
    """The validated geometry of an added customer: a theta or an (x, y)."""
    if kind == "angle":
        if event.theta is None:
            raise InvalidInstanceError(
                "thetas", "angle-instance add_customer event requires 'theta'"
            )
        theta = float(event.theta)
        if not np.isfinite(theta):
            raise InvalidInstanceError(
                "thetas", f"must be finite (event value is {theta})"
            )
        # Stored raw: the constructor normalizes the whole array, and
        # normalization is exact on the already-normalized entries.
        return theta
    if event.position is None:
        raise InvalidInstanceError(
            "positions", "sector-instance add_customer event requires 'position'"
        )
    x, y = float(event.position[0]), float(event.position[1])
    if not (np.isfinite(x) and np.isfinite(y)):
        raise InvalidInstanceError(
            "positions", f"must be finite (event value is {(x, y)})"
        )
    return (x, y)


def _replaced(arr: np.ndarray, i: int, value: float) -> np.ndarray:
    out = arr.copy()
    out[i] = value
    return out


# ----------------------------------------------------------------------
# The delta session
# ----------------------------------------------------------------------
class DeltaCompiledInstance:
    """A live instance, advanced one event batch at a time.

    :attr:`instance` is the current generation and :attr:`compiled` its
    ``compile()`` memo.  :meth:`apply` replaces the generation with a
    freshly constructed instance once the whole batch succeeded.

    Thread-safety: one session is single-writer — :meth:`apply` holds a
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
        self._lock = threading.Lock()
        self._events_applied = 0

    # -- read side ------------------------------------------------------
    @property
    def instance(self):
        """The current-generation instance (immutable, compile()-memoized)."""
        return self._instance

    @property
    def compiled(self):
        """The current generation's compiled view (``instance.compile()``)."""
        return self._instance.compile()

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
        """Apply one event or a sequence as one atomic batch.

        Returns ``{"applied", "n"}`` — the event count and the new
        customer count.  An invalid event raises
        ``InvalidInstanceError`` and leaves the session unchanged, the
        batch's earlier events included.  Timed under ``phase.delta``;
        counted under ``engine.online.*``.
        """
        if isinstance(events, (AddCustomer, RemoveCustomer, UpdateDemand)):
            events = [events]
        events = list(events)
        with self._lock, _DELTA_TIMER.time():
            inst = self._instance
            geom = inst.thetas if self.kind == "angle" else inst.positions
            arrays = (geom, inst.demands, inst.profits)
            for event in events:
                arrays = self._step(arrays, event)
            self._instance = self._rebuild(*arrays)
            self._events_applied += len(events)
            _EVENTS.inc(len(events))
            _APPLIES.inc()
        return {"applied": len(events), "n": self.n}

    def _step(self, arrays: Tuple[np.ndarray, ...], event: Event):
        """One validated event on the ``(geom, demands, profits)`` arrays."""
        geom, demands, profits = arrays
        if isinstance(event, AddCustomer):
            point = np.asarray([_new_point(self.kind, event)], dtype=np.float64)
            demand = _check_positive("demands", event.demand)
            profit = (
                demand if event.profit is None
                else _check_positive("profits", event.profit)
            )
            return (
                np.concatenate([geom, point]),
                np.append(demands, demand),
                np.append(profits, profit),
            )
        i = _check_index(event.index, demands.shape[0])
        if isinstance(event, RemoveCustomer):
            return (
                np.delete(geom, i, axis=0),
                np.delete(demands, i),
                np.delete(profits, i),
            )
        if event.demand is None and event.profit is None:
            raise InvalidInstanceError(
                "demands", "update_demand event changed neither demand nor profit"
            )
        if event.demand is not None:
            demands = _replaced(demands, i, _check_positive("demands", event.demand))
        if event.profit is not None:
            profits = _replaced(profits, i, _check_positive("profits", event.profit))
        return geom, demands, profits

    def _rebuild(self, geom: np.ndarray, demands: np.ndarray,
                 profits: np.ndarray):
        """The next generation, through the public constructor."""
        old = self._instance
        if self.kind == "angle":
            return AngleInstance(thetas=geom, demands=demands,
                                 profits=profits, antennas=old.antennas)
        return SectorInstance(positions=geom, demands=demands, profits=profits,
                              stations=old.stations,
                              constraints=old.constraints)

    # -- engine integration --------------------------------------------
    def publish(self) -> str:
        """Register the current generation as the engine's canonical instance.

        The engine solves on the interned equal-content instance
        (:func:`repro.engine.cache.intern_instance`); publishing after every
        apply makes that the current generation, so engine solves of it
        compile once and share its memo.  Returns the content fingerprint.
        """
        from repro.engine.cache import COMPILE_CACHE, fingerprint

        fp = fingerprint(self._instance)
        COMPILE_CACHE.put(fp, self._instance)
        return fp
