"""Chunked process-pool map with graceful serial fallback and crash recovery.

:func:`parallel_map` is an order-preserving map over items, chunked to
amortize pickling overhead (the process-pool analogue of MPI's
``comm.scatter`` / ``comm.gather``, built on :mod:`concurrent.futures`).
It degrades to serial execution when ``workers <= 1``, when the item
count is tiny, or when the callable is not picklable (lambdas/closures) —
so callers never need a code path split.  Worker count resolution order
(:func:`worker_count`): explicit argument, ``REPRO_WORKERS`` environment
variable, CPU count.

**Crash recovery** (resilience contract, ``docs/RESILIENCE.md``): each
chunk is submitted as its own future, so one dying worker (segfault,
``os._exit``, OOM-kill — surfaced as ``BrokenProcessPool``) or one hung /
poisoned chunk (``chunk_timeout_s``) only loses *its* chunks.  Failed
chunks are re-run **serially in the parent**, which recovers both crashes
and transient worker-only faults (the chaos harness injects faults only in
worker pids for exactly this reason).  A chunk whose serial re-run *also*
fails raises.  Events are counted in the ``parallel.*`` metrics.

**Long-lived workers**: :class:`PipeWorker` is the second primitive — a
supervised subprocess speaking framed-pickle request/response over a
duplex pipe, built for callers that need worker *affinity* (warm
per-process caches) rather than stateless chunk fan-out.  Every failure
mode a worker can exhibit (dead pid, pipe EOF, reply timeout, corrupted
frame) surfaces as one typed :class:`WorkerCrashed` exception so the
supervising layer (:mod:`repro.service.supervisor`) has a single recovery
path.  Stale replies from a timed-out earlier call are discarded by
sequence number, so one slow reply can never desynchronize the protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.metrics import get_registry

T = TypeVar("T")
R = TypeVar("R")

#: Below this many items the pool overhead dominates; run serial.
_MIN_PARALLEL_ITEMS = 4

# Pool-resilience telemetry (contract: docs/RESILIENCE.md).
_REG = get_registry()
_WORKER_FAILURES = _REG.counter("parallel.worker_failures")
_SERIAL_RETRIES = _REG.counter("parallel.serial_retries")
_CHUNK_TIMEOUTS = _REG.counter("parallel.chunk_timeouts")
_FAILED_CHUNKS = _REG.counter("parallel.failed_chunks")


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


def _is_picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _apply_chunk(payload):
    fn, chunk = payload
    return [fn(item) for item in chunk]


def _run_chunked(
    fn: Callable,
    chunk_args: List,
    workers: int,
    chunk_timeout_s: Optional[float],
) -> List:
    """Run ``fn`` over ``chunk_args`` with crash/timeout recovery.

    Returns per-chunk results in order.  Failed chunks are re-run serially
    in the parent; a chunk that fails even serially raises.
    """
    m = len(chunk_args)
    results: List = [None] * m
    done = [False] * m
    failed: List[int] = []
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {i: pool.submit(fn, chunk_args[i]) for i in range(m)}
            for i, fut in futures.items():
                try:
                    results[i] = fut.result(timeout=chunk_timeout_s)
                    done[i] = True
                except TimeoutError:
                    _CHUNK_TIMEOUTS.inc()
                    fut.cancel()
                    failed.append(i)
                except BrokenProcessPool:
                    # The pool is dead: everything not yet collected is lost.
                    _WORKER_FAILURES.inc()
                    failed.extend(j for j in range(i, m) if not done[j])
                    break
                except Exception:
                    _WORKER_FAILURES.inc()
                    failed.append(i)
    except BrokenProcessPool:
        # Shutdown can also surface the breakage; anything unfinished is lost.
        _WORKER_FAILURES.inc()
        failed.extend(j for j in range(m) if not done[j] and j not in failed)

    # Serial recovery in the parent process.
    for i in sorted(set(failed)):
        _SERIAL_RETRIES.inc()
        try:
            results[i] = fn(chunk_args[i])
        except Exception:
            _FAILED_CHUNKS.inc()
            raise
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    chunk_timeout_s: Optional[float] = None,
) -> List[R]:
    """Order-preserving map, fanned out over processes in chunks.

    Falls back to a serial list comprehension when parallelism cannot help
    (single worker, few items) or cannot work (unpicklable ``fn``).
    Worker crashes and per-chunk timeouts (``chunk_timeout_s``) are
    recovered by re-running the lost chunks serially in the parent; the
    result is complete or an exception — never silently truncated.
    """
    items = list(items)
    w = worker_count(workers)
    if w <= 1 or len(items) < _MIN_PARALLEL_ITEMS or not _is_picklable(fn):
        return [fn(item) for item in items]
    if chunk_size is None:
        # ~4 chunks per worker balances load without pickling per item.
        chunk_size = max(1, len(items) // (4 * w))
    chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
    parts = _run_chunked(
        _apply_chunk,
        [(fn, c) for c in chunks],
        workers=w,
        chunk_timeout_s=chunk_timeout_s,
    )
    results: List[R] = []
    for part in parts:
        results.extend(part)
    return results


class WorkerCrashed(RuntimeError):
    """A :class:`PipeWorker` died, timed out, or sent an unusable frame.

    One exception type for every transport-level failure (dead process,
    pipe EOF, reply timeout, corrupted pickle frame, worker-reported
    internal error) so supervisors have a single recovery path: treat the
    worker as lost, redispatch the in-flight work elsewhere, and restart.
    """


class PipeWorker:
    """A long-lived subprocess driven over a duplex pipe with framed pickle.

    Unlike the stateless pool in :func:`parallel_map`, a ``PipeWorker``
    keeps one process alive across many requests so per-process state
    (compiled-instance caches, result LRUs) stays warm.  The parent sends
    ``(seq, op, payload)`` frames via ``send_bytes(pickle.dumps(...))`` and
    waits — bounded by ``timeout_s`` — for the matching ``(seq, status,
    result)`` reply; replies carrying a stale ``seq`` (from a call that
    already timed out) are silently discarded, keeping the channel usable
    after partial failures.

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
