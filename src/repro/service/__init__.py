"""repro.service — the batched async solver service front end.

The first *serving* layer over the one-shot library: a stdlib-only
asyncio JSON-lines server that accepts :class:`~repro.engine.SolveRequest`
-shaped envelopes over TCP or a Unix socket and routes them through
:mod:`repro.engine` — micro-batched onto a supervised pool of long-lived
engine worker subprocesses, with admission control, per-request
deadlines mapped onto resilience budgets, a warm service-side result
cache, and a graceful SIGTERM drain.  The wire protocol, status codes (the CLI exit-code
contract plus ``5`` = shed), batching semantics and ``service.*`` metric
names are frozen in ``docs/SERVICE.md``.

Five pieces:

* :mod:`repro.service.protocol` — envelopes, status codes, encode/decode;
* :mod:`repro.service.batcher` — the bounded queue + coalescing dispatcher;
* :mod:`repro.service.workers` / :mod:`repro.service.supervisor` — the
  supervised engine-worker pool that solves every batch: shard routing
  by content fingerprint, heartbeat probes, backoff restarts, per-worker
  circuit breakers, redispatch and a degraded fallback that solves in
  the service process while no worker is up;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the asyncio
  server (``repro-sectors serve``) and the blocking pipelined client
  (``repro-sectors client``, reconnect-with-backoff built in).

>>> from repro.service import start_in_thread, ServiceClient
>>> from repro.model import generators
>>> handle = start_in_thread(port=0)
>>> with ServiceClient(port=handle.port) as client:
...     ok = client.ping()["status"] == 0
>>> handle.stop()
>>> ok
True
"""

from repro.service.batcher import MicroBatcher, Overloaded
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    STATUS_INTERNAL,
    STATUS_INVALID_INPUT,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_TIMEOUT,
    STATUS_USAGE,
    ProtocolError,
)
from repro.service.server import (
    ServiceHandle,
    SolverService,
    run_service,
    start_in_thread,
)
from repro.service.supervisor import CircuitBreaker, WorkerSupervisor
from repro.service.workers import ShardRing

__all__ = [
    "CircuitBreaker",
    "MicroBatcher",
    "Overloaded",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "ShardRing",
    "SolverService",
    "WorkerSupervisor",
    "STATUS_INTERNAL",
    "STATUS_INVALID_INPUT",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_TIMEOUT",
    "STATUS_USAGE",
    "run_service",
    "start_in_thread",
]
