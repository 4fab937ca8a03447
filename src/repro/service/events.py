"""The service's dynamic-workload op: sessions of delta-compiled instances.

An ``event`` request (wire grammar in ``docs/ONLINE.md``) names a
*session* — a named :class:`~repro.online.delta.DeltaCompiledInstance`
living in the process that answers — and carries a list of
add/remove/update events to apply, plus an optional ``resolve`` spec to
solve the post-event instance in the same round trip.

Sessions are sticky by design: the supervised worker pool shards an
:class:`EventRequest` by its session name (the ``instance`` property below
feeds the same ``shard_key`` routing the solve path uses), so every event
for a session lands on the one worker holding its delta view, and the
session's instance never crosses a process boundary.  The service
process holds no sessions: with no worker up, an event op is refused
with status ``5`` rather than run against a second copy.

``execute_request`` is the worker main loop's dispatch seam: event
requests run through :func:`execute_event`, everything else through the
engine's ``_solve_worker``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.engine import SolveReport, SolveRequest
from repro.engine.core import _solve_worker
from repro.errors import error_text
from repro.obs.metrics import get_registry
from repro.online.delta import DeltaCompiledInstance, Event

__all__ = [
    "EventRequest",
    "SessionTable",
    "SESSIONS",
    "execute_event",
    "execute_request",
]

_REG = get_registry()
_SESSIONS_GAUGE = _REG.gauge("service.sessions")

#: Sessions kept per process before the least-recently-used one is dropped.
SESSION_TABLE_MAXSIZE = 64


@dataclass(frozen=True)
class EventRequest:
    """An ``event`` op riding the micro-batcher next to solve requests.

    Field layout is duck-compatible with the slices of
    :class:`~repro.engine.SolveRequest` the batching machinery touches:
    ``timeout_s`` (deadline rewriting via ``dataclasses.replace``),
    ``family`` / ``algorithm`` / ``label`` (whole-batch error reports),
    ``use_cache`` (the service's ``cache_store`` pass — always ``False``
    here, results of a mutating op are not cacheable).
    """

    session: str
    events: Tuple[Event, ...] = ()
    open_instance: Any = None
    resolve: Optional[dict] = None
    timeout_s: Optional[float] = None
    family: str = "event"
    algorithm: str = "delta"
    label: str = ""
    use_cache: bool = False

    @property
    def instance(self) -> str:
        """Routing surrogate: shard-sticky by session name, not content.

        ``shard_key`` fingerprints real instances but falls back to
        ``repr()`` hashing for anything else — this string keys every
        event of one session to the same worker, which is what keeps the
        delta view and the events applied to it in the same process.
        """
        return f"event-session:{self.session}"


class SessionTable:
    """Named delta sessions, LRU-bounded, one table per process.

    ``open`` (re)binds a name to a fresh delta view over the given
    instance; ``get`` returns the live view and refreshes its recency.
    The ``service.sessions`` gauge tracks the table size.
    """

    def __init__(self, maxsize: int = SESSION_TABLE_MAXSIZE):
        self._data: "OrderedDict[str, DeltaCompiledInstance]" = OrderedDict()
        self._lock = threading.Lock()
        self._maxsize = int(maxsize)

    def open(self, name: str, instance: Any) -> DeltaCompiledInstance:
        """Bind ``name`` to a new delta view of ``instance`` (replacing any)."""
        delta = DeltaCompiledInstance(instance)
        with self._lock:
            self._data[name] = delta
            self._data.move_to_end(name)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
            _SESSIONS_GAUGE.set(len(self._data))
        return delta

    def get(self, name: str) -> DeltaCompiledInstance:
        """The live view for ``name``; raises ``KeyError`` if unknown."""
        with self._lock:
            if name not in self._data:
                raise KeyError(
                    f"unknown session {name!r} (open it by attaching 'instance')"
                )
            self._data.move_to_end(name)
            return self._data[name]

    def clear(self) -> None:
        """Drop every session (tests)."""
        with self._lock:
            self._data.clear()
            _SESSIONS_GAUGE.set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


#: The per-process session table (workers each hold their own shard).
SESSIONS = SessionTable()


def execute_event(request: EventRequest) -> SolveReport:
    """Apply one event request to its session; optionally resolve after.

    Never raises: failures come back as error reports exactly like
    ``_solve_worker``'s, so the protocol layer's status mapping applies
    (unknown session -> ``KeyError`` -> status 2; bad event values ->
    ``InvalidInstanceError`` -> status 3).  On success ``extra`` carries
    the apply summary, the published fingerprint, and — when ``resolve``
    was requested — the nested solve's headline numbers; ``value`` is the
    resolved objective (or the customer count for a pure apply).
    """
    t0 = time.perf_counter()
    try:
        if request.open_instance is not None:
            delta = SESSIONS.open(request.session, request.open_instance)
        else:
            delta = SESSIONS.get(request.session)
        summary = (
            delta.apply(list(request.events))
            if request.events
            else {"applied": 0, "n": delta.n}
        )
        fp = delta.publish()
        extra = {
            "session": request.session,
            "n": summary["n"],
            "applied": summary["applied"],
            "fingerprint": fp,
        }
        value = float(summary["n"])
        error = None
        if request.resolve is not None:
            inner = SolveRequest(
                instance=delta.instance,
                timeout_s=request.timeout_s,
                **request.resolve,
            )
            inner_report = _solve_worker(inner)
            extra["resolve"] = {
                "family": inner_report.family,
                "algorithm": inner_report.algorithm,
                "value": float(inner_report.value),
                "cached": bool(inner_report.cached),
                "seconds": float(inner_report.seconds),
            }
            value = float(inner_report.value)
            error = inner_report.error
        return SolveReport(
            family="event",
            algorithm="delta",
            value=value,
            solution=None,
            seconds=time.perf_counter() - t0,
            label=request.label,
            error=error,
            extra=extra,
        )
    except Exception as exc:  # noqa: BLE001 - converted to a partial report
        return SolveReport(
            family="event",
            algorithm="delta",
            seconds=time.perf_counter() - t0,
            label=request.label,
            error=error_text(exc),
            extra={"session": request.session},
        )


def execute_request(request: Any) -> SolveReport:
    """The shared dispatch seam: event requests vs. engine solve requests."""
    if isinstance(request, EventRequest):
        return execute_event(request)
    return _solve_worker(request)
