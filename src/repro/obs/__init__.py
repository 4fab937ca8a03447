"""repro.obs — observability: structured tracing and metrics.

Two layers, one contract (``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — opt-in structured spans with a thread-safe
  buffer and a JSONL sink; near-zero overhead while disabled.
* :mod:`repro.obs.metrics` — always-on :class:`Counter` / :class:`Timer` /
  :class:`Gauge` / :class:`Histogram` aggregates behind one process-wide
  :class:`Registry`;
  the instrumented hot paths (knapsack oracles, the circular sweep, every
  packing solver) report oracle-call counts, candidate-window counts, and
  per-phase wall time through it.

:mod:`repro.obs.bench` holds only the cheap proven upper bound that the
repository benchmark (``perfbench/``) divides by for serve-burst's
``quality_ratio``.

>>> from repro.obs import get_registry, span
>>> reg = get_registry(); reg.reset()
>>> with span("demo"):          # no-op unless tracing is enabled
...     reg.counter("demo.calls").inc()
>>> reg.snapshot()["demo.calls"]["value"]
1
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    Timer,
    get_registry,
)
from repro.obs.trace import (
    disable_tracing,
    drain_events,
    enable_tracing,
    event,
    read_jsonl,
    span,
    trace_enabled,
    tracing,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "Registry",
    "get_registry",
    # tracing
    "span",
    "event",
    "enable_tracing",
    "disable_tracing",
    "trace_enabled",
    "tracing",
    "drain_events",
    "read_jsonl",
]
