"""Long-lived worker processes for the solver service."""

from repro.parallel.pool import (
    PipeWorker,
    WorkerCrashed,
    worker_count,
)

__all__ = [
    "PipeWorker",
    "WorkerCrashed",
    "worker_count",
]
