"""Process-level parallelism for sweeps and experiment fan-out."""

from repro.parallel.pool import (
    PipeWorker,
    WorkerCrashed,
    parallel_map,
    worker_count,
)

__all__ = [
    "PipeWorker",
    "WorkerCrashed",
    "parallel_map",
    "worker_count",
]
