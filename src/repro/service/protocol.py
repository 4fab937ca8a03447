"""The solver service wire protocol: JSON-lines envelopes + status codes.

One request per line, one response per line, UTF-8 JSON (the full
field-by-field contract is ``docs/SERVICE.md``; the ``event`` op's
grammar is ``docs/ONLINE.md``).  Requests carry an ``op`` (``solve`` /
``event`` / ``stats`` / ``ping`` / ``shutdown``) and a caller-chosen
``id`` echoed back on the response; responses to a pipelined connection
may arrive **out of order**, so the ``id`` is the correlation key.

Status codes reuse the CLI exit-code contract (``docs/RESILIENCE.md``)
so a failure means the same thing on the wire as it does in a shell:

* ``0`` — success;
* ``1`` — internal error (solver bug, infeasible solution);
* ``2`` — usage error (unknown op/algorithm/family, malformed envelope);
* ``3`` — invalid input (bad instance payload, malformed JSON line);
* ``4`` — deadline expired (before dispatch or inside the solver);
* ``5`` — overloaded: the request was shed (queue full or draining).

``5`` is the only wire-born code: the CLI never exits with it except when
``repro-sectors client`` relays a shed response.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.engine import SolveReport, SolveRequest

__all__ = [
    "STATUS_OK",
    "STATUS_INTERNAL",
    "STATUS_USAGE",
    "STATUS_INVALID_INPUT",
    "STATUS_TIMEOUT",
    "STATUS_OVERLOADED",
    "ProtocolError",
    "encode_line",
    "decode_line",
    "envelope_to_request",
    "envelope_to_event",
    "report_to_response",
    "error_response",
    "status_from_error",
]

#: Wire status codes — the CLI exit-code contract plus ``5`` (shed).
STATUS_OK = 0
STATUS_INTERNAL = 1
STATUS_USAGE = 2
STATUS_INVALID_INPUT = 3
STATUS_TIMEOUT = 4
STATUS_OVERLOADED = 5

#: Exception-type name (the prefix of ``SolveReport.error``) -> status.
#: Mirrors the CLI's exception-to-exit-code mapping in ``repro.cli.main``.
_ERROR_STATUS = {
    "BudgetExpired": STATUS_TIMEOUT,
    "InvalidInstanceError": STATUS_INVALID_INPUT,
    "JSONDecodeError": STATUS_INVALID_INPUT,
    "OSError": STATUS_INVALID_INPUT,
    "FeasibilityError": STATUS_INTERNAL,
    "ValueError": STATUS_USAGE,
    "KeyError": STATUS_USAGE,
    "TypeError": STATUS_USAGE,
    "WorkerUnavailable": STATUS_OVERLOADED,
}

#: Envelope fields a ``solve`` request may carry besides ``op``/``id``.
_SOLVE_FIELDS = frozenset(
    {"instance", "family", "algorithm", "eps", "seed", "timeout_s",
     "guarantee", "variant", "partition", "use_cache", "label",
     "solution"}
)

#: Envelope fields an ``event`` request may carry besides ``op``/``id``.
_EVENT_FIELDS = frozenset(
    {"session", "instance", "events", "resolve", "timeout_s", "label"}
)

#: ``resolve`` sub-spec fields (solve options minus instance/timeout).
_RESOLVE_FIELDS = frozenset(
    {"family", "algorithm", "eps", "seed", "guarantee", "variant",
     "partition", "use_cache", "label"}
)


class ProtocolError(ValueError):
    """A malformed envelope; carries the wire status to answer with."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One JSON object, compact separators, newline-terminated, UTF-8."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into an envelope dict.

    Raises :class:`ProtocolError` (status ``3``) on non-JSON input and
    (status ``2``) when the payload is not a JSON object.
    """
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(STATUS_INVALID_INPUT, f"malformed JSON line: {exc}")
    if not isinstance(obj, dict):
        raise ProtocolError(
            STATUS_USAGE, f"envelope must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def _parse_instance(payload: Any, family: str) -> Any:
    """Turn the envelope's ``instance`` field into an engine instance."""
    from repro.model.serialization import instance_from_dict

    if isinstance(payload, dict):
        return instance_from_dict(payload)
    if family == "knapsack":
        # Knapsack instances are ``(weights, profits, capacity)`` triples.
        if isinstance(payload, (list, tuple)) and len(payload) == 3:
            weights, profits, capacity = payload
            return (list(weights), list(profits), float(capacity))
        raise ProtocolError(
            STATUS_INVALID_INPUT,
            "knapsack instance must be a [weights, profits, capacity] triple",
        )
    raise ProtocolError(
        STATUS_INVALID_INPUT,
        f"instance must be a serialized instance object, got "
        f"{type(payload).__name__}",
    )


def envelope_to_request(envelope: Dict[str, Any]) -> SolveRequest:
    """Validate a ``solve`` envelope and build the engine request.

    Raises :class:`ProtocolError` with the right wire status on any
    malformed field; instance deserialization errors surface as the typed
    ``InvalidInstanceError`` the server maps to status ``3``.
    """
    unknown = set(envelope) - _SOLVE_FIELDS - {"op", "id"}
    if unknown:
        raise ProtocolError(
            STATUS_USAGE, f"unknown envelope field(s): {sorted(unknown)}"
        )
    if "instance" not in envelope:
        raise ProtocolError(STATUS_USAGE, "solve envelope missing 'instance'")
    family = envelope.get("family", "auto")
    try:
        timeout_s = envelope.get("timeout_s")
        request = SolveRequest(
            instance=_parse_instance(envelope["instance"], family),
            family=str(family),
            algorithm=str(envelope.get("algorithm", "auto")),
            eps=float(envelope.get("eps", 1.0)),
            seed=int(envelope.get("seed", 0)),
            timeout_s=None if timeout_s is None else float(timeout_s),
            guarantee=(
                None if envelope.get("guarantee") is None
                else float(envelope["guarantee"])
            ),
            variant=str(envelope.get("variant", "overlap")),
            partition=str(envelope.get("partition", "auto")),
            use_cache=bool(envelope.get("use_cache", True)),
            label=str(envelope.get("label", "")),
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ProtocolError):
            raise
        raise ProtocolError(STATUS_USAGE, f"bad envelope field: {exc}")
    if request.timeout_s is not None and request.timeout_s < 0:
        raise ProtocolError(STATUS_USAGE, "timeout_s must be non-negative")
    return request


def envelope_to_event(envelope: Dict[str, Any]):
    """Validate an ``event`` envelope and build the service request.

    Grammar (``docs/ONLINE.md``): ``session`` (required string) names the
    delta session; ``instance`` (optional serialized instance) opens or
    rebinds it; ``events`` (optional list) carries add/remove/update event
    objects; ``resolve`` (optional object of solve options) requests a
    solve of the post-event instance in the same round trip.  Malformed
    structure raises :class:`ProtocolError` (status ``2``); instance
    payload errors surface as ``InvalidInstanceError`` (status ``3``).
    """
    from repro.online.delta import event_from_dict
    from repro.service.events import EventRequest

    unknown = set(envelope) - _EVENT_FIELDS - {"op", "id"}
    if unknown:
        raise ProtocolError(
            STATUS_USAGE, f"unknown envelope field(s): {sorted(unknown)}"
        )
    session = envelope.get("session")
    if not isinstance(session, str) or not session:
        raise ProtocolError(
            STATUS_USAGE, "event envelope requires a non-empty string 'session'"
        )
    open_instance = None
    if envelope.get("instance") is not None:
        open_instance = _parse_instance(envelope["instance"], "auto")
    raw_events = envelope.get("events", [])
    if not isinstance(raw_events, list):
        raise ProtocolError(STATUS_USAGE, "'events' must be a list of objects")
    try:
        events = tuple(event_from_dict(e) for e in raw_events)
    except ValueError as exc:
        raise ProtocolError(STATUS_USAGE, str(exc))
    resolve = envelope.get("resolve")
    if resolve is not None:
        if not isinstance(resolve, dict):
            raise ProtocolError(STATUS_USAGE, "'resolve' must be an object")
        bad = set(resolve) - _RESOLVE_FIELDS
        if bad:
            raise ProtocolError(
                STATUS_USAGE, f"unknown resolve field(s): {sorted(bad)}"
            )
    timeout_s = envelope.get("timeout_s")
    if timeout_s is not None:
        timeout_s = float(timeout_s)
        if timeout_s < 0:
            raise ProtocolError(STATUS_USAGE, "timeout_s must be non-negative")
    return EventRequest(
        session=session,
        events=events,
        open_instance=open_instance,
        resolve=resolve,
        timeout_s=timeout_s,
        label=str(envelope.get("label", "")),
    )


def status_from_error(error: Optional[str]) -> int:
    """Map a ``SolveReport.error`` string (``"ExcType: msg"``) to a status."""
    if not error:
        return STATUS_OK
    exc_type = error.split(":", 1)[0].strip()
    return _ERROR_STATUS.get(exc_type, STATUS_INTERNAL)


def _serialize_solution(solution: Any) -> Optional[Dict[str, Any]]:
    """Best-effort solution payload (angle/sector solutions only)."""
    from repro.model.serialization import solution_to_dict
    from repro.model.solution import AngleSolution, SectorSolution

    if isinstance(solution, (AngleSolution, SectorSolution)):
        return solution_to_dict(solution)
    return None


def report_to_response(
    request_id: Any,
    report: SolveReport,
    batch_size: int = 1,
    include_solution: bool = False,
) -> Dict[str, Any]:
    """Render a :class:`SolveReport` as a wire response envelope.

    ``batch_size`` is how many requests rode the same batch dispatch
    (1 for a cache hit) — the observable the coalescing tests
    and the repository benchmark read.  ``include_solution`` attaches the serialized
    solution for angle/sector families (other families' native results
    are summarized by ``value``/``extra`` only).
    """
    status = status_from_error(report.error)
    response: Dict[str, Any] = {
        "id": request_id,
        "status": status,
        "family": report.family,
        "algorithm": report.algorithm,
        "value": float(report.value),
        "seconds": float(report.seconds),
        "cached": bool(report.cached),
        "planned": bool(report.planned),
        "batch_size": int(batch_size),
        "extra": report.extra,
        "error": report.error,
    }
    if report.label:
        response["label"] = report.label
    if include_solution and report.error is None:
        response["solution"] = _serialize_solution(report.solution)
    return response


def error_response(request_id: Any, status: int, message: str,
                   **fields: Any) -> Dict[str, Any]:
    """A failure envelope with no report behind it (shed, malformed...).

    Extra keyword ``fields`` are merged into the envelope so structured
    context (e.g. the byte ``limit`` on an oversized-line rejection) rides
    along machine-readably instead of being baked into the message text;
    the reserved ``id``/``status``/``error`` keys cannot be overridden.
    """
    response = dict(fields)
    response.update({"id": request_id, "status": int(status), "error": message})
    return response
