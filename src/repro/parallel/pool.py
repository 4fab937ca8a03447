"""Long-lived worker processes for the solver service.

:class:`PipeWorker` is a supervised subprocess speaking framed-pickle
request/response over a duplex pipe, built for callers that need worker
*affinity* (warm per-process caches).  Every failure mode a worker can
exhibit (dead pid, pipe EOF, reply timeout, corrupted frame) surfaces as
one typed :class:`WorkerCrashed` exception so the supervising layer
(:mod:`repro.service.supervisor`) has a single recovery path.  Stale
replies from a timed-out earlier call are discarded by sequence number,
so one slow reply can never desynchronize the protocol.
:func:`worker_count` sizes the service's pool: explicit argument,
``REPRO_WORKERS`` environment variable, CPU count.

Nothing else fans out over processes: the engine's partitioned strategy
solves its parts in the calling process (:func:`repro.engine.solve_many`),
and parallelism across requests comes from the service's workers.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from typing import Any, Callable, Optional, Tuple


def worker_count(workers: Optional[int] = None) -> int:
    """Resolve the worker count: argument > ``REPRO_WORKERS`` > CPU count."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


class WorkerCrashed(RuntimeError):
    """A :class:`PipeWorker` died, timed out, or sent an unusable frame.

    One exception type for every transport-level failure (dead process,
    pipe EOF, reply timeout, corrupted pickle frame, worker-reported
    internal error) so supervisors have a single recovery path: treat the
    worker as lost, redispatch the in-flight work elsewhere, and restart.
    """


class PipeWorker:
    """A long-lived subprocess driven over a duplex pipe with framed pickle.

    A ``PipeWorker`` keeps one process alive across many requests so
    per-process state (compiled-instance caches, result LRUs) stays
    warm.  The parent sends ``(seq, op, payload)`` frames via
    ``send_bytes(pickle.dumps(...))`` and waits — bounded by
    ``timeout_s`` — for the matching ``(seq, status, result)`` reply;
    replies carrying a stale ``seq`` (from a call that already timed out)
    are silently discarded, keeping the channel usable after partial
    failures.

    ``target(conn, *args)`` runs in the child and owns the protocol loop;
    see :func:`repro.service.workers.worker_main` for the canonical loop.
    The caller must serialize :meth:`request` calls (the supervisor holds a
    per-worker lock); the class adds no locking of its own.

    Processes are created through the supplied multiprocessing ``context``
    (the service layer passes *forkserver* so children never inherit the
    asyncio thread's locks or listening sockets) and are daemonic: they can
    never outlive the parent.
    """

    def __init__(
        self,
        target: Callable[..., None],
        args: Tuple = (),
        name: Optional[str] = None,
        context=None,
    ) -> None:
        ctx = context if context is not None else multiprocessing.get_context()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=target, args=(child_conn, *args), name=name, daemon=True
        )
        self._proc.start()
        child_conn.close()
        self._seq = 0

    @property
    def pid(self) -> Optional[int]:
        """OS pid of the child process (``None`` before start)."""
        return self._proc.pid

    def alive(self) -> bool:
        """Whether the child process is currently running."""
        return self._proc.is_alive()

    def request(self, op: str, payload: Any = None,
                timeout_s: Optional[float] = None) -> Any:
        """Send one ``(op, payload)`` request and return the reply payload.

        Raises :class:`WorkerCrashed` when the worker cannot answer: the
        pipe is broken, the reply does not arrive within ``timeout_s``,
        the reply frame fails to unpickle (corruption), or the worker
        reports an internal error.  After a :class:`WorkerCrashed` the
        worker should be considered lost and replaced — even on a timeout,
        since a late reply for this ``seq`` will be discarded, not healed.
        """
        self._seq += 1
        seq = self._seq
        try:
            self._conn.send_bytes(pickle.dumps((seq, op, payload)))
        except (OSError, ValueError) as exc:
            raise WorkerCrashed(f"worker pipe send failed: {exc}") from exc
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            if deadline is None:
                wait = 1.0
            else:
                wait = deadline - time.monotonic()
                if wait <= 0:
                    raise WorkerCrashed(
                        f"worker {self.pid} sent no reply within {timeout_s:g}s"
                    )
            if not self._conn.poll(min(wait, 1.0)):
                continue
            try:
                raw = self._conn.recv_bytes()
            except (EOFError, OSError) as exc:
                raise WorkerCrashed(f"worker pipe closed: {exc}") from exc
            try:
                reply_seq, status, result = pickle.loads(raw)
            except Exception as exc:
                raise WorkerCrashed(
                    f"corrupted reply frame from worker {self.pid}: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            if reply_seq != seq:
                continue  # stale reply from a timed-out earlier request
            if status != "ok":
                raise WorkerCrashed(f"worker error reply: {result}")
            return result

    def stop(self, timeout_s: float = 2.0) -> None:
        """Ask the worker to exit, escalating to terminate/kill if ignored."""
        try:
            self._conn.send_bytes(pickle.dumps((0, "stop", None)))
        except (OSError, ValueError):
            pass
        self._proc.join(timeout=timeout_s)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=timeout_s)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=timeout_s)
        self._conn.close()

    def kill(self) -> None:
        """Hard-kill the worker process (used by drain on unresponsive pids)."""
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=2.0)
        self._conn.close()
