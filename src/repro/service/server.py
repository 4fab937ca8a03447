"""The asyncio solver service: JSON-lines over TCP and/or a Unix socket.

``repro-sectors serve`` runs :class:`SolverService`: a stdlib-only
long-lived front end that turns the one-shot engine
(:mod:`repro.engine`) into a request-driven server — connections speak
the :mod:`repro.service.protocol` envelopes, solves funnel through the
:class:`~repro.service.batcher.MicroBatcher` (admission control,
coalescing, deadline shedding) into the supervised engine-worker pool
(:class:`~repro.service.supervisor.WorkerSupervisor`: warm service-side
result cache, shard routing, crash recovery), and SIGTERM/SIGINT trigger
a graceful drain: stop accepting, answer everything admitted, stop the
workers, then exit 0.

Connections may **pipeline**: each ``solve`` line spawns its own response
task, so one connection's queued requests coalesce into batches; matching
responses carry the request ``id`` and may arrive out of order.  ``stats``
and ``ping`` are answered inline (they must work even when the solve
queue is saturated — that is the point of having them).

Use :func:`start_in_thread` to embed a service in a test or a notebook
without touching signals or subprocesses.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from typing import Any, Dict, Optional, Set

from repro.obs.metrics import get_registry
from repro.parallel import worker_count
from repro.resilience.chaos import ChaosPolicy
from repro.service import protocol
from repro.service.batcher import MicroBatcher, Overloaded
from repro.service.supervisor import WorkerSupervisor

__all__ = ["SolverService", "ServiceHandle", "start_in_thread", "run_service"]

#: Wire lines above this many bytes are rejected (guards the reader
#: buffer against unbounded instances; ~4 MiB fits n ~ 10^5 customers).
MAX_LINE_BYTES = 4 * 1024 * 1024

_REG = get_registry()
_CONNECTIONS = _REG.counter("service.connections")


class SolverService:
    """One serving endpoint: listeners + micro-batcher + drain logic.

    Parameters mirror the ``repro-sectors serve`` flags: ``host``/``port``
    for TCP (``port=0`` binds an ephemeral port, re-read from
    :attr:`port` after :meth:`start`), ``unix_path`` for an optional
    ``AF_UNIX`` listener, and the batching/backpressure knobs forwarded
    to :class:`~repro.service.batcher.MicroBatcher`.

    Every batch is solved by the **supervised worker pool**: ``workers``
    engine subprocesses behind a
    :class:`~repro.service.supervisor.WorkerSupervisor` (shard routing,
    crash recovery, circuit breakers — ``docs/SERVICE.md``) whose
    ``solve_batch`` is the batcher's dispatcher.  ``workers=None``
    resolves through :func:`repro.parallel.worker_count`
    (``REPRO_WORKERS``, then the CPU count).  ``chaos`` ships a
    deterministic :class:`~repro.resilience.chaos.ChaosPolicy` to the
    workers (fault drills), and ``supervisor_options`` forwards extra
    keyword tuning to the supervisor (timeouts, backoff, breaker).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        max_batch: int = 16,
        flush_interval_s: float = 0.005,
        queue_bound: int = 256,
        workers: Optional[int] = None,
        chaos: Optional[ChaosPolicy] = None,
        max_line_bytes: int = MAX_LINE_BYTES,
        supervisor_options: Optional[Dict[str, Any]] = None,
    ):
        self.host = host
        self.port = int(port)
        self.unix_path = unix_path
        self.workers = worker_count() if workers is None else int(workers)
        self.max_line_bytes = int(max_line_bytes)
        self._supervisor = WorkerSupervisor(
            workers=self.workers, chaos=chaos, **(supervisor_options or {}),
        )
        self._batcher = MicroBatcher(
            self._supervisor.solve_batch,
            max_batch=max_batch,
            flush_interval_s=flush_interval_s,
            queue_bound=queue_bound,
        )
        self._batcher_task: Optional[asyncio.Task] = None
        self._servers: list = []
        self._conn_tasks: Set[asyncio.Task] = set()
        self._connection_tasks: Set[asyncio.Task] = set()
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the worker pool and the dispatcher, then bind the listeners."""
        self._stopped = asyncio.Event()
        self._started_at = time.monotonic()
        # Workers come up before the listeners so the first admitted
        # request already has a routable shard owner.
        await self._supervisor.start()
        self._batcher_task = asyncio.create_task(self._batcher.run())
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.max_line_bytes,
        )
        self._servers.append(server)
        self.port = server.sockets[0].getsockname()[1]
        if self.unix_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection, path=self.unix_path,
                    limit=self.max_line_bytes,
                )
            )

    def install_signal_handlers(self) -> None:
        """Map SIGTERM/SIGINT to a graceful drain (serve-forever mode)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.drain())
            )

    async def serve_forever(self) -> None:
        """Block until :meth:`drain` completes (via signal or request)."""
        assert self._stopped is not None, "call start() first"
        await self._stopped.wait()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, answer admitted work, stop.

        Idempotent.  Order matters: close the listeners first (no new
        connections), flag draining (in-flight connections shed new solve
        envelopes with status 5), let the batcher finish everything it
        admitted, stop the supervised workers (they are only needed while
        batches flow), wait for the response writers, then release
        :meth:`serve_forever`.
        """
        if self._draining:
            return
        self._draining = True
        for server in self._servers:
            server.close()
        self._batcher.close()
        if self._batcher_task is not None:
            await self._batcher_task
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        await self._supervisor.stop()
        # Wake connections blocked in readline() with EOF so their handler
        # tasks exit before loop teardown (a cancelled reader would log a
        # traceback, and the error-hygiene contract forbids those).
        for writer in list(self._conn_writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._connection_tasks:
            await asyncio.gather(
                *list(self._connection_tasks), return_exceptions=True
            )
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _CONNECTIONS.inc()
        conn_task = asyncio.current_task()
        if conn_task is not None:
            self._connection_tasks.add(conn_task)
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        inflight: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Structured rejection, never a silent drop: the stream
                    # is desynchronized past an oversized line, so answer
                    # with the limit spelled out and close the connection.
                    await self._send(
                        writer, write_lock,
                        protocol.error_response(
                            None, protocol.STATUS_INVALID_INPUT,
                            f"line exceeds {self.max_line_bytes} bytes",
                            limit=self.max_line_bytes,
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                inflight.add(task)
                self._conn_tasks.add(task)
                task.add_done_callback(inflight.discard)
                task.add_done_callback(self._conn_tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conn_writers.discard(writer)
            if conn_task is not None:
                self._connection_tasks.discard(conn_task)
            if inflight:
                await asyncio.gather(*list(inflight), return_exceptions=True)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        """Decode, dispatch and answer one request envelope."""
        request_id: Any = None
        try:
            envelope = protocol.decode_line(line)
            request_id = envelope.get("id")
            op = envelope.get("op", "solve")
            if op == "ping":
                response: Dict[str, Any] = {
                    "id": request_id, "status": protocol.STATUS_OK, "op": "ping",
                }
            elif op == "stats":
                response = self._stats_response(request_id)
            elif op == "shutdown":
                response = {
                    "id": request_id, "status": protocol.STATUS_OK,
                    "op": "shutdown", "draining": True,
                }
                asyncio.ensure_future(self.drain())
            elif op == "solve":
                response = await self._handle_solve(envelope, request_id)
            elif op == "event":
                response = await self._handle_event(envelope, request_id)
            else:
                response = protocol.error_response(
                    request_id, protocol.STATUS_USAGE, f"unknown op {op!r}"
                )
        except protocol.ProtocolError as exc:
            response = protocol.error_response(request_id, exc.status, str(exc))
        except Exception as exc:  # noqa: BLE001 - a connection never kills us
            response = protocol.error_response(
                request_id, protocol.STATUS_INTERNAL,
                f"unexpected {type(exc).__name__}: {exc}",
            )
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await self._send(writer, write_lock, response)

    async def _handle_solve(
        self, envelope: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        from repro.model.instance import InvalidInstanceError

        try:
            request = protocol.envelope_to_request(envelope)
        except InvalidInstanceError as exc:
            return protocol.error_response(
                request_id, protocol.STATUS_INVALID_INPUT, str(exc)
            )
        if self._draining:
            return protocol.error_response(
                request_id, protocol.STATUS_OVERLOADED, "shed: draining"
            )
        try:
            future = self._batcher.submit(request)
        except Overloaded as exc:
            return protocol.error_response(
                request_id, protocol.STATUS_OVERLOADED, f"shed: {exc}"
            )
        report = await future
        return protocol.report_to_response(
            request_id,
            report,
            batch_size=int(report.extra.get("batch_size", 1)),
            include_solution=bool(envelope.get("solution", False)),
        )

    async def _handle_event(
        self, envelope: Dict[str, Any], request_id: Any
    ) -> Dict[str, Any]:
        """The ``event`` op: delta sessions on the same batched hot path.

        Event requests share the solve queue — admission control, deadline
        rewriting and shedding behave identically — but execute against a
        worker's session table instead of the engine (``docs/ONLINE.md``);
        they shard by session name, so one worker owns each session's delta
        view.
        """
        from repro.model.instance import InvalidInstanceError

        try:
            request = protocol.envelope_to_event(envelope)
        except InvalidInstanceError as exc:
            return protocol.error_response(
                request_id, protocol.STATUS_INVALID_INPUT, str(exc)
            )
        if self._draining:
            return protocol.error_response(
                request_id, protocol.STATUS_OVERLOADED, "shed: draining"
            )
        try:
            future = self._batcher.submit(request)
        except Overloaded as exc:
            return protocol.error_response(
                request_id, protocol.STATUS_OVERLOADED, f"shed: {exc}"
            )
        report = await future
        return protocol.report_to_response(
            request_id,
            report,
            batch_size=int(report.extra.get("batch_size", 1)),
        )

    def _stats_response(self, request_id: Any) -> Dict[str, Any]:
        """The ``stats`` envelope: service state + a full metric snapshot.

        Answered inline off the event loop — deliberately independent of
        the worker pool, so operators can still see supervisor state (and
        the clients can still ``ping``) while every worker is down.
        """
        return {
            "id": request_id,
            "status": protocol.STATUS_OK,
            "op": "stats",
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": self._batcher.depth,
            "queue_bound": self._batcher.queue_bound,
            "max_batch": self._batcher.max_batch,
            "draining": self._draining,
            "metrics": get_registry().snapshot(),
            "workers": self._supervisor.describe(),
        }

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, lock: asyncio.Lock, obj: Dict[str, Any]
    ) -> None:
        async with lock:
            writer.write(protocol.encode_line(obj))
            await writer.drain()


# ----------------------------------------------------------------------
# Embedding and CLI entry points
# ----------------------------------------------------------------------
class ServiceHandle:
    """A service running on a background thread (tests, notebooks).

    Attributes: ``port`` (the bound TCP port) and ``unix_path``.  Call
    :meth:`stop` to drain gracefully and join the thread.
    """

    def __init__(self, service: SolverService, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self._service = service
        self._loop = loop
        self._thread = thread
        self.port = service.port
        self.unix_path = service.unix_path

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain the service and join its thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self._service.drain())
            )
        self._thread.join(timeout=timeout_s)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def start_in_thread(**kwargs) -> ServiceHandle:
    """Start a :class:`SolverService` on a daemon thread; wait until bound.

    Keyword arguments are forwarded to :class:`SolverService` (``port=0``
    picks an ephemeral port — read it from the returned handle).  No
    signal handlers are installed; stop via :meth:`ServiceHandle.stop`.
    """
    service = SolverService(**kwargs)
    ready = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            await service.start()
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await service.serve_forever()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # noqa: BLE001 - surface startup failures
            box.setdefault("error", exc)
            ready.set()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not ready.wait(timeout=30.0):
        raise RuntimeError("service failed to start within 30s")
    if "error" in box:
        raise RuntimeError(f"service failed to start: {box['error']}")
    return ServiceHandle(service, box["loop"], thread)


def run_service(
    host: str = "127.0.0.1",
    port: int = 7077,
    unix_path: Optional[str] = None,
    max_batch: int = 16,
    flush_interval_s: float = 0.005,
    queue_bound: int = 256,
    workers: Optional[int] = None,
    chaos: Optional[ChaosPolicy] = None,
) -> int:
    """Run a service in the foreground until SIGTERM/SIGINT drains it.

    The ``repro-sectors serve`` entry point: prints one readiness line
    (``serving on <host>:<port> ...``) once bound, then blocks.  Returns
    0 after a clean drain (including the supervised workers).
    """
    service = SolverService(
        host=host, port=port, unix_path=unix_path, max_batch=max_batch,
        flush_interval_s=flush_interval_s, queue_bound=queue_bound,
        workers=workers, chaos=chaos,
    )

    async def _main() -> None:
        await service.start()
        service.install_signal_handlers()
        endpoints = f"{service.host}:{service.port}"
        if service.unix_path:
            endpoints += f" and unix:{service.unix_path}"
        extra = f", workers={service.workers} supervised"
        if chaos is not None:
            extra += ", chaos on"
        print(
            f"serving on {endpoints} "
            f"(max_batch={service._batcher.max_batch}, "
            f"queue_bound={service._batcher.queue_bound}{extra})",
            flush=True,
        )
        await service.serve_forever()

    asyncio.run(_main())
    print("drained cleanly", flush=True)
    return 0
