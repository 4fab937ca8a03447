"""The worker supervisor: health probes, restarts, breakers, redispatch.

This is the service's one solve path: the self-healing layer between the
:class:`~repro.service.batcher.MicroBatcher` and the engine worker
subprocesses (``docs/SERVICE.md``).  One :class:`WorkerSupervisor` owns N
workers, and its :meth:`~WorkerSupervisor.solve_batch` is the batcher's
dispatcher: each coalesced batch is planned in the service process (warm
result-cache probe + in-batch dedup), partitioned by shard owner on the
consistent-hash ring, dispatched concurrently over the per-worker pipes,
and the fresh reports are stored back into the service's result cache.

Failure handling is layered, cheapest first:

1. **redispatch** — a :class:`~repro.parallel.WorkerCrashed` on a dispatch
   moves the slice to the next sibling on the ring (its natural spill
   target, so retried keys still warm a durable cache);
2. **degraded fallback** — with every worker down or tried, the slice's
   solves run serially *in the service process* — strictly slower, never
   wrong, and it keeps ``ping``/``stats`` and solves answerable while the
   supervisor restarts the pool underneath.  Event requests are refused
   with status ``5`` instead: a session lives in exactly one worker, so
   the service process never holds one;
3. **restart** — a background probe loop detects dead workers and
   respawns them with bounded exponential backoff (a crash-looping worker
   cannot hog the loop), bumping the worker's *generation* so a
   deterministic chaos stream does not replay the same kill forever;
4. **circuit breaker** — per-worker, trips open after
   ``breaker_threshold`` consecutive failures, which removes the worker
   from the routing ring; after ``breaker_cooldown_s`` it half-opens and
   the probe's ping decides: pong closes it (worker rejoins the ring),
   failure re-opens it for another cooldown.

Everything observable is counted under the frozen ``service.worker.*`` /
``service.supervisor.*`` metric names (``docs/OBSERVABILITY.md``), and
per-worker dispatch latency histograms are aggregated into the service
``stats`` op via :meth:`WorkerSupervisor.describe`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.engine import SolveReport, SolveRequest, cache_probe, cache_store
from repro.engine.cache import result_key
from repro.engine.core import _cacheable, _resolve, _solve_worker
from repro.errors import WorkerUnavailable, error_text
from repro.obs.metrics import Histogram, get_registry
from repro.parallel.pool import PipeWorker, WorkerCrashed
from repro.resilience.chaos import ChaosPolicy
from repro.service.events import EventRequest
from repro.service.workers import (
    ShardRing,
    service_mp_context,
    shard_key,
    worker_main,
)

__all__ = ["CircuitBreaker", "WorkerSupervisor"]

_REG = get_registry()
_CACHE_SERVED = _REG.counter("service.cache_served")
_DISPATCHES = _REG.counter("service.worker.dispatches")
_WORKER_FAILURES = _REG.counter("service.worker.failures")
_REDISPATCHES = _REG.counter("service.worker.redispatches")
_DEGRADED = _REG.counter("service.worker.degraded")
_WORKER_LATENCY = _REG.histogram("service.worker.latency")
_RESTARTS = _REG.counter("service.supervisor.restarts")
_BREAKER_OPENS = _REG.counter("service.supervisor.breaker_opens")
_ALIVE = _REG.gauge("service.supervisor.alive")


def _probe(request: SolveRequest) -> Optional[SolveReport]:
    """Service-cache probe that never raises (a bad request is a miss —
    the worker's solve produces the proper error report)."""
    try:
        return cache_probe(request)
    except Exception:  # noqa: BLE001 - probe must not sink the batch
        return None


def _dedup_key(request: SolveRequest) -> Optional[Tuple]:
    """In-batch dedup key: the resolved result-cache key, or ``None``.

    Only cacheable requests dedup (a budgeted or ``use_cache=False``
    request must run on its own); resolution failures fall through to
    the worker's solve for a proper error report.
    """
    try:
        family, algorithm, _ = _resolve(request)
        if not _cacheable(request, family):
            return None
        return result_key(request.instance, family, algorithm,
                          request.eps, request.seed)
    except Exception:  # noqa: BLE001
        return None


def _plan_batch(
    requests: List[SolveRequest],
) -> Tuple[List[Optional[SolveReport]], List[int], List[Tuple[int, int]]]:
    """Batch front half: service-cache probe + in-batch dedup.

    Returns ``(reports, unique, alias)``: ``reports`` with cache hits
    already filled (``None`` elsewhere), ``unique`` the indices that must
    actually solve, and ``alias`` the ``(duplicate, source)`` index pairs
    that will copy their source's report.
    """
    reports: List[Optional[SolveReport]] = [None] * len(requests)
    miss_keys: dict = {}
    unique: List[int] = []
    alias: List[Tuple[int, int]] = []
    for i, request in enumerate(requests):
        hit = _probe(request)
        if hit is not None:
            _CACHE_SERVED.inc()
            reports[i] = hit
            continue
        key = _dedup_key(request)
        if key is not None and key in miss_keys:
            alias.append((i, miss_keys[key]))
            continue
        if key is not None:
            miss_keys[key] = i
        unique.append(i)
    return reports, unique, alias


def _fill_aliases(
    reports: List[Optional[SolveReport]],
    requests: List[SolveRequest],
    alias: List[Tuple[int, int]],
) -> List[SolveReport]:
    """Batch back half: copy dedup sources into their duplicates.

    Completes the plan from :func:`_plan_batch` and compacts the report
    list (every request is expected to have a report by now).
    """
    for i, j in alias:
        source = reports[j]
        assert source is not None
        reports[i] = dataclasses.replace(
            source, label=requests[i].label, cached=True
        )
    return [r for r in reports if r is not None]


class CircuitBreaker:
    """Per-worker circuit breaker: closed → open → half-open → closed.

    ``record_failure`` trips the breaker open after ``threshold``
    *consecutive* failures; while open, :meth:`allow` is ``False`` and the
    worker is excluded from shard routing.  After ``cooldown_s`` the
    breaker half-opens (:meth:`probe_due` turns ``True``): the supervisor
    sends one health probe, and ``record_success`` closes the breaker
    while another failure re-opens it for a fresh cooldown.  Routing stays
    off in half-open — only the probe may touch a suspect worker.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 0.5,
                 clock=time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._consecutive = 0
        self._opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (cooldown elapsed)."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self.cooldown_s:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """Whether regular traffic may route to this worker (closed only)."""
        return self._opened_at is None

    def probe_due(self) -> bool:
        """Whether a half-open health probe should run now."""
        return self.state == "half_open"

    def record_success(self) -> None:
        """A dispatch or probe succeeded: close and reset the failure run."""
        self._consecutive = 0
        self._opened_at = None

    def record_failure(self) -> None:
        """A dispatch or probe failed: count it, trip open at threshold.

        A failure while open or half-open re-arms the cooldown, so a
        flapping worker is probed at most once per cooldown window.
        """
        self._consecutive += 1
        if self._opened_at is not None:
            self._opened_at = self._clock()
        elif self._consecutive >= self.threshold:
            self._opened_at = self._clock()
            _BREAKER_OPENS.inc()


class _Worker:
    """Supervisor-side bookkeeping for one engine worker slot."""

    def __init__(self, worker_id: int, breaker: CircuitBreaker):
        self.id = worker_id
        self.handle: Optional[PipeWorker] = None
        self.generation = 0
        self.breaker = breaker
        self.lock = asyncio.Lock()
        self.dispatches = 0
        self.failures = 0
        self.restarts = 0
        self.consecutive_crashes = 0
        self.next_restart_at = 0.0
        self.latency = Histogram()

    def routable(self) -> bool:
        """Live and breaker-closed: eligible as a shard owner."""
        return (
            self.handle is not None
            and self.handle.alive()
            and self.breaker.allow()
        )


class WorkerSupervisor:
    """Own N engine workers: spawn, probe, restart, route, drain.

    Parameters
    ----------
    workers:
        Worker subprocess count (>= 1).
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosPolicy` shipped to
        every worker; drives the service-level fault sites deterministically
        (``docs/RESILIENCE.md``).
    call_timeout_s:
        Per-dispatch reply deadline; a blackholed or wedged worker is
        declared crashed when it passes.
    probe_interval_s:
        Supervisor loop period (heartbeat, restart, half-open probes).
    restart_backoff_s / restart_backoff_max_s:
        Exponential restart backoff bounds: crash *n* of a run waits
        ``restart_backoff_s * 2**(n-1)`` capped at the max.
    breaker_threshold / breaker_cooldown_s:
        Circuit-breaker tuning, see :class:`CircuitBreaker`.
    ring_replicas:
        Virtual nodes per worker on the consistent-hash ring.
    """

    def __init__(
        self,
        workers: int,
        chaos: Optional[ChaosPolicy] = None,
        call_timeout_s: float = 30.0,
        probe_interval_s: float = 0.2,
        restart_backoff_s: float = 0.05,
        restart_backoff_max_s: float = 2.0,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.5,
        ring_replicas: int = 64,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.chaos = chaos
        self.call_timeout_s = float(call_timeout_s)
        self.probe_interval_s = float(probe_interval_s)
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_max_s = float(restart_backoff_max_s)
        self._workers: Dict[int, _Worker] = {
            wid: _Worker(
                wid, CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            )
            for wid in range(int(workers))
        }
        self.ring = ShardRing(list(self._workers), replicas=ring_replicas)
        self._probe_task: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        """(Blocking) start the subprocess for one worker slot."""
        worker.generation += 1
        worker.handle = PipeWorker(
            worker_main,
            args=(worker.id, worker.generation, self.chaos),
            name=f"repro-engine-worker-{worker.id}",
            context=service_mp_context(),
        )

    async def start(self) -> None:
        """Spawn every worker and begin the probe/restart loop."""
        loop = asyncio.get_running_loop()
        for worker in self._workers.values():
            await loop.run_in_executor(None, self._spawn, worker)
        _ALIVE.set(self.alive_count())
        self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def stop(self) -> None:
        """Drain: stop the probe loop, then stop every worker (escalating)."""
        self._stopping = True
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            self._probe_task = None
        loop = asyncio.get_running_loop()
        for worker in self._workers.values():
            handle, worker.handle = worker.handle, None
            if handle is not None:
                async with worker.lock:
                    await loop.run_in_executor(None, handle.stop)
        _ALIVE.set(0)

    def alive_count(self) -> int:
        """Workers whose subprocess is currently running."""
        return sum(
            1 for w in self._workers.values()
            if w.handle is not None and w.handle.alive()
        )

    # ------------------------------------------------------------------
    # Probe / restart loop
    # ------------------------------------------------------------------
    async def _probe_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping:
            await asyncio.sleep(self.probe_interval_s)
            now = time.monotonic()
            for worker in self._workers.values():
                if self._stopping:
                    return
                dead = worker.handle is None or not worker.handle.alive()
                if dead:
                    if now >= worker.next_restart_at:
                        await self._restart(worker, loop)
                    continue
                if worker.breaker.probe_due():
                    await self._probe(worker, loop)
            _ALIVE.set(self.alive_count())

    async def _restart(self, worker: _Worker, loop) -> None:
        """Respawn a dead worker with bounded exponential backoff."""
        async with worker.lock:
            if self._stopping:
                return
            old = worker.handle
            if old is not None:
                await loop.run_in_executor(None, old.kill)
            await loop.run_in_executor(None, self._spawn, worker)
            worker.restarts += 1
            worker.consecutive_crashes += 1
            backoff = min(
                self.restart_backoff_s * (2 ** (worker.consecutive_crashes - 1)),
                self.restart_backoff_max_s,
            )
            worker.next_restart_at = time.monotonic() + backoff
            _RESTARTS.inc()

    async def _probe(self, worker: _Worker, loop) -> None:
        """Half-open health probe: a pong closes the breaker."""
        handle = worker.handle
        if handle is None:
            return
        async with worker.lock:
            try:
                await loop.run_in_executor(
                    None,
                    lambda: handle.request(
                        "ping", timeout_s=min(2.0, self.call_timeout_s)
                    ),
                )
            except WorkerCrashed:
                worker.breaker.record_failure()
                return
        worker.breaker.record_success()
        worker.consecutive_crashes = 0

    # ------------------------------------------------------------------
    # Dispatch (the MicroBatcher's dispatcher)
    # ------------------------------------------------------------------
    async def solve_batch(self, requests: List[SolveRequest]) -> List[SolveReport]:
        """Plan, shard, dispatch, and heal one coalesced batch.

        Probe → dedup → solve → store → alias fill, with the solve step
        partitioned across shard owners; per-request failures come back as
        error reports, never exceptions.
        """
        loop = asyncio.get_running_loop()
        reports, unique, alias = await loop.run_in_executor(
            None, _plan_batch, requests
        )
        if unique:
            groups = self._partition(requests, unique)
            solved_slices = await asyncio.gather(
                *(self._dispatch_slice(requests, idxs, first_choice)
                  for first_choice, idxs in groups)
            )
            for idxs, solved in solved_slices:
                for i, report in zip(idxs, solved):
                    reports[i] = report
                    cache_store(requests[i], report)
        return _fill_aliases(reports, requests, alias)

    def _partition(
        self, requests: List[SolveRequest], unique: List[int]
    ) -> List[Tuple[Optional[int], List[int]]]:
        """Group miss indices by live shard owner (``None`` = no worker up)."""
        routable = [w.id for w in self._workers.values() if w.routable()]
        groups: Dict[Optional[int], List[int]] = {}
        for i in unique:
            owner = self.ring.owner(shard_key(requests[i].instance), routable)
            groups.setdefault(owner, []).append(i)
        return list(groups.items())

    async def _dispatch_slice(
        self,
        requests: List[SolveRequest],
        idxs: List[int],
        first_choice: Optional[int],
    ) -> Tuple[List[int], List[SolveReport]]:
        """Solve one owner's slice, redispatching/degrading on crashes."""
        loop = asyncio.get_running_loop()
        slice_requests = [requests[i] for i in idxs]
        tried: set = set()
        worker_id = first_choice
        while worker_id is not None:
            worker = self._workers[worker_id]
            tried.add(worker_id)
            handle = worker.handle
            if handle is None or not handle.alive():
                worker_id = self._next_sibling(slice_requests[0], tried)
                continue
            started = time.monotonic()
            try:
                async with worker.lock:
                    solved = await loop.run_in_executor(
                        None,
                        lambda h=handle: h.request(
                            "solve", slice_requests,
                            timeout_s=self.call_timeout_s,
                        ),
                    )
                if not isinstance(solved, list) or len(solved) != len(idxs):
                    raise WorkerCrashed(
                        f"worker {worker.id} returned "
                        f"{len(solved) if isinstance(solved, list) else solved!r}"
                        f" reports for {len(idxs)} requests"
                    )
            except WorkerCrashed:
                _WORKER_FAILURES.inc()
                worker.failures += 1
                worker.breaker.record_failure()
                worker_id = self._next_sibling(slice_requests[0], tried)
                if worker_id is not None:
                    _REDISPATCHES.inc(len(idxs))
                continue
            elapsed = time.monotonic() - started
            _DISPATCHES.inc()
            _WORKER_LATENCY.observe(elapsed)
            worker.latency.observe(elapsed)
            worker.dispatches += len(idxs)
            worker.breaker.record_success()
            worker.consecutive_crashes = 0
            return idxs, solved
        # Graceful degradation: no worker reachable — solve here.
        _DEGRADED.inc(len(idxs))
        solved = await loop.run_in_executor(
            None, _solve_in_process, slice_requests
        )
        return idxs, solved

    def _next_sibling(self, request: SolveRequest, tried: set) -> Optional[int]:
        """The next live ring owner for this slice's key not yet tried."""
        routable = [
            w.id for w in self._workers.values()
            if w.routable() and w.id not in tried
        ]
        return self.ring.owner(shard_key(request.instance), routable)

    # ------------------------------------------------------------------
    # Introspection (the service `stats` op)
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Aggregated per-worker state for the service ``stats`` response."""
        workers = []
        for w in sorted(self._workers.values(), key=lambda x: x.id):
            handle = w.handle
            workers.append({
                "id": w.id,
                "pid": None if handle is None else handle.pid,
                "alive": handle is not None and handle.alive(),
                "generation": w.generation,
                "breaker": w.breaker.state,
                "dispatches": w.dispatches,
                "failures": w.failures,
                "restarts": w.restarts,
                "latency": w.latency._snapshot(),
            })
        return {
            "count": len(self._workers),
            "alive": self.alive_count(),
            "chaos": self.chaos is not None,
            "workers": workers,
        }


def _solve_in_process(requests: List[SolveRequest]) -> List[SolveReport]:
    """Last-resort serial solve in the service process (degraded mode).

    Solve requests run on the engine here.  Event requests are refused
    with ``WorkerUnavailable`` (status ``5``): their session lives in a
    worker's table, and a copy opened in the service process would
    diverge from it (``docs/ONLINE.md``).
    """
    return [
        _unavailable_report(request) if isinstance(request, EventRequest)
        else _solve_worker(request)
        for request in requests
    ]


def _unavailable_report(request: EventRequest) -> SolveReport:
    """The status-5 report for an event op no worker is up to hold."""
    return SolveReport(
        family=request.family,
        algorithm=request.algorithm,
        label=request.label,
        error=error_text(WorkerUnavailable(
            f"no worker is up to hold session {request.session!r}; "
            f"retry once the pool recovers"
        )),
        extra={"session": request.session},
    )
