"""Blocking JSON-lines client for the solver service (stdlib sockets).

:class:`ServiceClient` speaks the :mod:`repro.service.protocol` envelopes
over TCP or a Unix socket.  Two calling styles:

* **request/response** — :meth:`solve` / :meth:`stats` / :meth:`ping` /
  :meth:`shutdown` send one envelope and block for its answer;
* **pipelined** — :meth:`solve_batch` writes every request before reading
  any response, which is what lets the server's micro-batcher coalesce
  them into one batch dispatch (responses are matched back into
  submission order by ``id``, since the server answers out of order).

The client never deserializes solutions eagerly: responses are plain
dicts (see ``docs/SERVICE.md`` for the fields); pass ``want_solution=True``
to receive the serialized solution and
:func:`repro.model.serialization.solution_from_dict` to revive it.

**Reconnect-with-backoff**: a connection reset or EOF mid-call (service
restart, proxy hiccup) does not surface to the caller — the client
redials with exponential backoff and *resends the unanswered envelopes
with their original ids*.  Same-id retries are what make the retry safe:
the service's dedup/result cache answers a replayed request without
solving it twice.  Only after ``reconnect_attempts`` consecutive failed
redials does :class:`ServiceError` reach the caller.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.service import protocol

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """Transport-level failure (closed socket, truncated line)."""


class _ConnectionLost(ServiceError):
    """Internal marker: the transport dropped mid-call (reconnectable)."""


def _instance_payload(instance: Any) -> Any:
    """Serialize any supported instance shape for the wire."""
    from repro.model.instance import AngleInstance, SectorInstance
    from repro.model.serialization import instance_to_dict

    if isinstance(instance, (AngleInstance, SectorInstance)):
        return instance_to_dict(instance)
    if isinstance(instance, dict):
        return instance  # already serialized
    if isinstance(instance, (tuple, list)) and len(instance) == 3:
        weights, profits, capacity = instance
        return [list(map(float, weights)), list(map(float, profits)),
                float(capacity)]
    raise TypeError(f"cannot serialize instance of type {type(instance).__name__}")


class ServiceClient:
    """One connection to a solver service.

    Connect over TCP (``host``/``port``) or a Unix socket (``unix_path``
    wins when given).  ``timeout_s`` is the per-read socket timeout —
    generous by default because a pipelined burst may sit behind a long
    batch.  Usable as a context manager.

    ``reconnect_attempts``/``reconnect_backoff_s`` tune the transparent
    redial on mid-call resets (attempt *n* sleeps
    ``reconnect_backoff_s * 2**n`` first); ``reconnect_attempts=0``
    disables it, restoring fail-fast :class:`ServiceError` behavior.
    :attr:`reconnects` counts successful redials, for tests and
    diagnostics.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7077,
        unix_path: Optional[str] = None,
        timeout_s: float = 60.0,
        reconnect_attempts: int = 4,
        reconnect_backoff_s: float = 0.05,
    ):
        self._host = host
        self._port = port
        self._unix_path = unix_path
        self._timeout_s = timeout_s
        self.reconnect_attempts = int(reconnect_attempts)
        self.reconnect_backoff_s = float(reconnect_backoff_s)
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0
        self._connect()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        if self._unix_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(self._timeout_s)
            self._sock.connect(self._unix_path)
        else:
            self._sock = socket.create_connection(
                (self._host, self._port), timeout=self._timeout_s
            )
        self._reader = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        """Redial with exponential backoff; :class:`ServiceError` on defeat."""
        self.close()
        last: Optional[Exception] = None
        for attempt in range(self.reconnect_attempts):
            time.sleep(self.reconnect_backoff_s * (2 ** attempt))
            try:
                self._connect()
                self.reconnects += 1
                return
            except OSError as exc:
                last = exc
        raise ServiceError(
            f"connection lost and {self.reconnect_attempts} reconnect "
            f"attempt(s) failed: {last if last is not None else 'disabled'}"
        )

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            if self._reader is not None:
                self._reader.close()
        except OSError:
            pass
        finally:
            self._reader = None
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _fresh_id(self) -> str:
        self._next_id += 1
        return f"c{self._next_id}"

    def _write(self, envelope: Dict[str, Any]) -> None:
        if self._sock is None:
            raise _ConnectionLost("not connected")
        try:
            self._sock.sendall(protocol.encode_line(envelope))
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _ConnectionLost(f"send failed: {exc}") from exc

    def _read_response(self) -> Dict[str, Any]:
        try:
            line = self._reader.readline()
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise _ConnectionLost(f"read failed: {exc}") from exc
        if not line:
            raise _ConnectionLost("connection closed by the service")
        return protocol.decode_line(line)

    def request(self, envelope: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw envelope and block for the matching response.

        A mid-call reset/EOF triggers the reconnect path: the *same*
        envelope (same ``id``) is resent on the fresh connection, so the
        service dedup cache shields the retry from double-solving.
        """
        if "id" not in envelope:
            envelope = {**envelope, "id": self._fresh_id()}
        wanted = envelope["id"]
        for _ in range(self.reconnect_attempts + 1):
            try:
                self._write(envelope)
                while True:
                    response = self._read_response()
                    if response.get("id") == wanted:
                        return response
            except _ConnectionLost:
                self._reconnect()
        raise ServiceError(
            f"request {wanted!r} kept losing its connection; giving up"
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        """Round-trip liveness check (answered even under full load)."""
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        """Service state + full metric snapshot (``service.*`` et al.)."""
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to drain gracefully (same path as SIGTERM)."""
        return self.request({"op": "shutdown"})

    def _solve_envelope(self, instance: Any, **options) -> Dict[str, Any]:
        envelope: Dict[str, Any] = {
            "op": "solve",
            "id": self._fresh_id(),
            "instance": _instance_payload(instance),
        }
        want_solution = options.pop("want_solution", False)
        if want_solution:
            envelope["solution"] = True
        for key, value in options.items():
            if value is not None:
                envelope[key] = value
        return envelope

    def solve(
        self,
        instance: Any,
        family: Optional[str] = None,
        algorithm: Optional[str] = None,
        eps: Optional[float] = None,
        seed: Optional[int] = None,
        timeout_s: Optional[float] = None,
        label: Optional[str] = None,
        use_cache: Optional[bool] = None,
        want_solution: bool = False,
    ) -> Dict[str, Any]:
        """Solve one instance; returns the response dict (``status`` 0 = ok).

        ``timeout_s`` is end-to-end from admission — queueing time counts,
        and an expired deadline answers with status 4.
        """
        return self.request(
            self._solve_envelope(
                instance, family=family, algorithm=algorithm, eps=eps,
                seed=seed, timeout_s=timeout_s, label=label,
                use_cache=use_cache, want_solution=want_solution,
            )
        )

    def event(
        self,
        session: str,
        events: Optional[Sequence[Any]] = None,
        instance: Any = None,
        resolve: Optional[Dict[str, Any]] = None,
        timeout_s: Optional[float] = None,
        label: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Apply events to a delta session; optionally resolve in-flight.

        ``session`` names the server-side
        :class:`~repro.online.delta.DeltaCompiledInstance`; passing
        ``instance`` opens (or rebinds) it.  ``events`` accepts event
        objects (:class:`~repro.online.delta.AddCustomer` et al.) or
        already-serialized dicts; ``resolve`` is a dict of solve options
        (``{"algorithm": "greedy"}``) to run against the post-event
        instance in the same round trip.  Wire grammar: ``docs/ONLINE.md``.
        """
        from repro.online.delta import event_to_dict

        envelope: Dict[str, Any] = {
            "op": "event",
            "id": self._fresh_id(),
            "session": session,
        }
        if instance is not None:
            envelope["instance"] = _instance_payload(instance)
        if events:
            envelope["events"] = [
                e if isinstance(e, dict) else event_to_dict(e) for e in events
            ]
        if resolve is not None:
            envelope["resolve"] = dict(resolve)
        if timeout_s is not None:
            envelope["timeout_s"] = timeout_s
        if label is not None:
            envelope["label"] = label
        return self.request(envelope)

    def solve_batch(
        self,
        instances: Union[Sequence[Any], Iterable[Any]],
        **options,
    ) -> List[Dict[str, Any]]:
        """Pipeline many solves at once; returns responses in input order.

        Writing every envelope before reading any response is what lets
        the server coalesce the burst into batches — use
        this (or many concurrent connections) to hit batched throughput.
        Shared ``options`` (``algorithm=...``, ``timeout_s=...``,
        ``want_solution=...``) apply to every request.

        Resilient to mid-pipeline drops: after a reconnect only the
        *unanswered* envelopes are resent, with their original ids, and
        already-collected responses are kept.
        """
        envelopes = [self._solve_envelope(inst, **dict(options))
                     for inst in instances]
        pending = {e["id"]: e for e in envelopes}
        by_id: Dict[Any, Dict[str, Any]] = {}
        to_send = list(envelopes)
        for _ in range(self.reconnect_attempts + 1):
            try:
                for envelope in to_send:
                    self._write(envelope)
                to_send = []
                while pending:
                    response = self._read_response()
                    rid = response.get("id")
                    if rid in pending:
                        del pending[rid]
                        by_id[rid] = response
                return [by_id[e["id"]] for e in envelopes]
            except _ConnectionLost:
                self._reconnect()
                to_send = list(pending.values())
        raise ServiceError(
            f"pipeline kept losing its connection with {len(pending)} "
            f"response(s) outstanding; giving up"
        )
