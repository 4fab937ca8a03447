"""The micro-batcher: coalesce queued requests into dispatched batches.

The serving hot path (``docs/SERVICE.md``): connections enqueue
:class:`~repro.engine.SolveRequest`s (and event requests) onto one
bounded :class:`asyncio.Queue`, and a single dispatcher task drains it
into batches for the async dispatch callable the batcher was built with
— the supervised worker pool's
:meth:`~repro.service.supervisor.WorkerSupervisor.solve_batch` when
serving.  The batcher does three jobs and nothing else:

1. **admission** — a full (or draining) queue sheds with status ``5``;
2. **coalescing** — batches of up to ``max_batch`` requests, waiting at
   most ``flush_interval_s`` for stragglers after the first arrival;
3. **deadline shedding** — a request whose end-to-end deadline already
   passed while queued is answered with status ``4`` without being
   dispatched; live requests get their ``timeout_s`` rewritten to the
   *remaining* allowance, which the engine turns into a cooperative
   resilience ``Budget``.

Cache probing, dedup and solving belong to the dispatcher.  Queue depth,
batch occupancy, shed/expired counts and end-to-end latency quantiles are
reported through the standard metrics registry under the ``service.*``
names frozen in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Awaitable, Callable, List, Optional

from repro.engine import SolveReport, SolveRequest
from repro.errors import error_text
from repro.obs.metrics import get_registry

__all__ = ["Overloaded", "MicroBatcher"]

_REG = get_registry()
_REQUESTS = _REG.counter("service.requests")
_RESPONSES = _REG.counter("service.responses")
_SHED = _REG.counter("service.shed")
_EXPIRED = _REG.counter("service.expired")
_BATCHES = _REG.counter("service.batches")
_OCCUPANCY = _REG.gauge("service.batch_occupancy")
_QUEUE_DEPTH = _REG.gauge("service.queue_depth")
_LATENCY = _REG.histogram("service.latency")


class Overloaded(RuntimeError):
    """The admission queue is full (or draining): shed with status 5."""


@dataclasses.dataclass
class _Pending:
    """One admitted request waiting for its batch.

    ``deadline`` is absolute (``time.monotonic()``) — the envelope's
    ``timeout_s`` is end-to-end from admission, so time spent queued
    counts against it.
    """

    request: SolveRequest
    future: "asyncio.Future[SolveReport]"
    enqueued_at: float
    deadline: Optional[float]


class MicroBatcher:
    """Bounded admission queue + one dispatcher coalescing into batches.

    Parameters
    ----------
    dispatch:
        ``async`` callable taking the list of live requests (deadlines
        already rewritten to remaining time) and returning the
        order-matched :class:`~repro.engine.SolveReport` list.  It must
        not raise for per-request failures (return error reports
        instead); a raise is answered as a whole-batch internal error.
    max_batch:
        Most requests one dispatch carries.
    flush_interval_s:
        How long the dispatcher waits for more requests after the first
        one arrives before flushing a partial batch.
    queue_bound:
        Admission limit; :meth:`submit` raises :class:`Overloaded` when
        the queue is full.
    """

    def __init__(
        self,
        dispatch: Callable[[List[SolveRequest]], Awaitable[List[SolveReport]]],
        max_batch: int = 16,
        flush_interval_s: float = 0.005,
        queue_bound: int = 256,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_bound < 1:
            raise ValueError(f"queue_bound must be >= 1, got {queue_bound}")
        self.max_batch = int(max_batch)
        self.flush_interval_s = float(flush_interval_s)
        self.queue_bound = int(queue_bound)
        self._queue: "asyncio.Queue[Optional[_Pending]]" = asyncio.Queue(
            maxsize=queue_bound + 1  # +1 keeps room for the close sentinel
        )
        self._depth = 0
        self._closed = False
        self._dispatcher = dispatch

    # ------------------------------------------------------------------
    # Admission (event-loop side)
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> "asyncio.Future[SolveReport]":
        """Admit one request; returns the future its report resolves.

        Raises :class:`Overloaded` when the queue is at ``queue_bound`` or
        the batcher is draining — the server turns that into a status-5
        shed response (backpressure is explicit, never an unbounded queue).
        """
        if self._closed or self._depth >= self.queue_bound:
            _SHED.inc()
            raise Overloaded(
                "draining" if self._closed else
                f"queue full ({self.queue_bound} pending)"
            )
        now = time.monotonic()
        pending = _Pending(
            request=request,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline=(
                None if request.timeout_s is None else now + request.timeout_s
            ),
        )
        self._queue.put_nowait(pending)
        self._depth += 1
        _REQUESTS.inc()
        _QUEUE_DEPTH.set(self._depth)
        return pending.future

    def close(self) -> None:
        """Stop admitting; the dispatcher drains what is queued, then exits."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(None)  # wake the dispatcher

    @property
    def depth(self) -> int:
        """Requests currently queued (admission-control observable)."""
        return self._depth

    # ------------------------------------------------------------------
    # Dispatch (the batcher task)
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """The dispatcher loop: collect → dispatch until closed and empty."""
        while True:
            batch = await self._collect()
            if batch is None:
                return
            await self._dispatch(batch)

    async def _collect(self) -> Optional[List[_Pending]]:
        """Gather up to ``max_batch`` requests, flushing after the interval.

        Returns ``None`` when the batcher is closed and the queue is dry.
        The close sentinel is re-queued whenever it is consumed with work
        still pending, so the dispatcher always terminates exactly once —
        after the last admitted request has been dispatched.
        """
        batch: List[_Pending] = []
        first = await self._queue.get()
        if first is None:
            if self._queue.empty():
                return None
            # Drain requested but work remains: re-arm the sentinel (FIFO
            # puts it behind the remaining items) and flush what's queued.
            self._queue.put_nowait(None)
        else:
            batch.append(first)
        flush_at = asyncio.get_running_loop().time() + self.flush_interval_s
        while len(batch) < self.max_batch:
            if self._closed:
                # Draining: no stragglers are coming, flush immediately.
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                remaining = flush_at - asyncio.get_running_loop().time()
                if remaining <= 0:
                    break
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item is None:
                self._queue.put_nowait(None)  # re-arm for the next collect
                break
            batch.append(item)
        return batch

    async def _dispatch(self, batch: List[_Pending]) -> None:
        """Shed expired requests, hand the rest to the dispatcher."""
        if not batch:
            return
        self._depth -= len(batch)
        _QUEUE_DEPTH.set(self._depth)
        now = time.monotonic()
        live: List[_Pending] = []
        solves: List[SolveRequest] = []
        for pending in batch:
            if pending.deadline is not None:
                remaining = pending.deadline - now
                if remaining <= 0:
                    _EXPIRED.inc()
                    self._finish(
                        pending,
                        _expired_report(pending.request, now - pending.enqueued_at),
                    )
                    continue
                # The engine rebuilds a Budget(wall_s=remaining) around the
                # solver, so queue time counts against the caller's deadline.
                solves.append(
                    dataclasses.replace(pending.request, timeout_s=remaining)
                )
            else:
                solves.append(pending.request)
            live.append(pending)
        if not live:
            return
        _BATCHES.inc()
        _OCCUPANCY.set(len(live))
        try:
            reports = await self._dispatcher(solves)
        except Exception as exc:  # noqa: BLE001 - keep the service alive
            for pending in live:
                self._finish(
                    pending,
                    SolveReport(
                        family=pending.request.family,
                        algorithm=pending.request.algorithm,
                        label=pending.request.label,
                        error=error_text(exc),
                    ),
                )
            return
        for pending, report in zip(live, reports):
            report.extra.setdefault("batch_size", len(live))
            self._finish(pending, report)

    def _finish(self, pending: _Pending, report: SolveReport) -> None:
        _RESPONSES.inc()
        _LATENCY.observe(time.monotonic() - pending.enqueued_at)
        if not pending.future.done():
            pending.future.set_result(report)


def _expired_report(request: SolveRequest, waited_s: float) -> SolveReport:
    """The status-4 report for a request whose deadline passed in queue."""
    return SolveReport(
        family=request.family,
        algorithm=request.algorithm,
        label=request.label,
        error=(
            f"BudgetExpired: deadline expired after {waited_s:.3f}s in queue "
            f"(timeout_s={request.timeout_s:g})"
        ),
    )
