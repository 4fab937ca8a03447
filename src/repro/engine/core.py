"""The solve engine: uniform request/report envelope over every solver.

One entry point — :func:`solve` — replaces the per-call-site wiring that
used to live in ``cli.py``, a since-deleted bench harness and
``resilience/fallbacks.py``:

* **request** (:class:`SolveRequest`): instance + family + algorithm
  (``"auto"`` invokes the planner) + eps/seed/timeout/guarantee;
* **report** (:class:`SolveReport`): normalized result with the solved
  value, wall time, cache provenance and family-specific extras
  (certified bounds from anytime solves, cover lower bounds, online
  competitive ratios).

The engine owns the cross-cutting policy so solvers do not have to:
oracle construction from eps, cooperative ``Budget`` activation from
``timeout_s``, result verification, instance-fingerprint caching
(:mod:`repro.engine.cache`) and telemetry (``engine.*`` metrics, see
``docs/OBSERVABILITY.md``).  :func:`solve_many` fans requests over
:func:`repro.parallel.pool.parallel_map` with per-request budgets and
partial-result semantics.

Execution is dispatched through one *strategy seam* (``_STRATEGIES``):
``monolithic`` runs the resolved spec directly, ``partitioned``
decomposes large multi-station sector instances by station reach and
merges with a certified bound (:mod:`repro.engine.partition`,
``docs/SCALE.md``), and the worker-sharded strategy of the service tier
(:mod:`repro.service`) composes on top by routing whole requests to
supervised workers that re-enter this seam.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.engine import cache as _cache
from repro.engine.planner import plan, plan_partition
from repro.engine.registry import SolveContext, SolverSpec, get_spec
from repro.model.introspect import infer_family, instance_size
from repro.obs.metrics import get_registry

__all__ = [
    "SolveRequest",
    "SolveReport",
    "solve",
    "solve_many",
    "cache_probe",
    "cache_store",
]

_REG = get_registry()
_REQUESTS = _REG.counter("engine.requests")
_PLANNED = _REG.counter("engine.planned")
_SOLVE_TIMER = _REG.timer("engine.solve")
# Which execution strategy served each solve; an explicit
# partition="force" on a non-partitionable spec counts under both
# monolithic and fallback.  Contract: docs/OBSERVABILITY.md, docs/SCALE.md.
_PARTITION_MONOLITHIC = _REG.counter("engine.partition.monolithic")
_PARTITION_PARTITIONED = _REG.counter("engine.partition.partitioned")
_PARTITION_FALLBACK = _REG.counter("engine.partition.fallback")


@dataclass(frozen=True)
class SolveRequest:
    """One solve, fully specified by value (picklable for solve_many).

    ``family="auto"`` infers angle/sector/knapsack from the payload type;
    covering and online runs on angle instances must name their family
    explicitly.  ``algorithm="auto"`` defers to the planner.
    ``timeout_s`` becomes a cooperative ``Budget(wall_s=...)`` activated
    around the solver (carrying a Budget object itself would not pickle).
    ``partition`` picks the execution strategy — ``"auto"``, ``"never"``,
    or ``"force"`` (decompose large multi-station sector instances by
    station reach and merge with a certified bound; see
    :func:`repro.engine.planner.plan_partition` and ``docs/SCALE.md``).
    Partitioned values may differ from monolithic ones (both feasible,
    related by the certified merge bound), so partitioned solves bypass
    the result cache entirely.
    """

    instance: Any
    family: str = "auto"
    algorithm: str = "auto"
    eps: float = 1.0
    seed: int = 0
    timeout_s: Optional[float] = None
    guarantee: Optional[float] = None
    variant: str = "overlap"
    partition: str = "auto"
    use_cache: bool = True
    label: str = ""


@dataclass
class SolveReport:
    """Normalized outcome of one engine solve.

    ``value`` follows the family's objective sense: served profit for
    angle/sector/knapsack/online (higher is better), antennas used for
    covering (lower is better).  ``solution`` is the family-native result
    object (AngleSolution, SectorSolution, FractionalSolution,
    CoverResult, KnapsackResult, online stats dict); for anytime solves
    it is the incumbent and ``extra`` carries the certified bounds.
    ``error`` is set (and ``solution`` is None) only on ``solve_many``
    partial failures — plain :func:`solve` raises instead.
    """

    family: str
    algorithm: str
    value: float = 0.0
    solution: Any = None
    seconds: float = 0.0
    cached: bool = False
    planned: bool = False
    label: str = ""
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _resolve_strategy(request: SolveRequest, spec: SolverSpec) -> tuple:
    """Resolve the execution strategy — pure, no metrics (see module doc).

    Returns ``(strategy, fell_back)`` with ``strategy`` one of the
    :data:`_STRATEGIES` keys.
    """
    return plan_partition(
        request.partition,
        spec.partitionable,
        instance_size(request.instance),
        stations=int(getattr(request.instance, "m", 0) or 0),
    )


def _build_oracle(spec: SolverSpec, eps: float):
    from repro.knapsack import get_solver

    if spec.family == "knapsack":
        return None  # knapsack specs *are* oracles
    if spec.supports_eps and eps < 1.0:
        return get_solver("fptas", eps=eps)
    return get_solver("exact")


def _build_compiled(instance: Any, family: str) -> Any:
    """Resolve the shared compiled view the solver context carries.

    Knapsack payloads compile their item arrays directly; every other
    family goes through the fingerprint-keyed compile cache, so repeated
    solves of equal-content instances (batches, service aliases) compile
    once per process.
    """
    if family == "knapsack":
        import numpy as np

        from repro.core.compiled import compile_items

        weights, profits, _ = instance
        return compile_items(
            np.asarray(weights, dtype=np.float64),
            np.asarray(profits, dtype=np.float64),
        )
    return _cache.shared_compiled(instance)


def _normalize(result: Any, instance: Any, extra: Dict[str, Any]) -> tuple:
    """Return ``(solution, value)`` and fill family-specific extras."""
    from repro.knapsack.api import KnapsackResult
    from repro.packing.covering import CoverResult
    from repro.resilience.anytime import AnytimeOutcome

    if isinstance(result, AnytimeOutcome):
        extra["lower_bound"] = float(result.lower_bound)
        extra["upper_bound"] = float(result.upper_bound)
        extra["optimal"] = bool(result.optimal)
        extra["reason"] = result.reason
        return result.solution, float(result.solution.value(instance))
    if isinstance(result, CoverResult):
        extra["lower_bound"] = int(result.lower_bound)
        extra["gap"] = float(result.gap())
        extra["objective"] = "min_antennas"
        return result, float(result.antennas_used)
    if isinstance(result, KnapsackResult):
        return result, float(result.value)
    if isinstance(result, dict) and "value" in result:
        extra.update({k: v for k, v in result.items() if k != "value"})
        return result, float(result["value"])
    if hasattr(result, "value") and callable(result.value):
        return result, float(result.value(instance))
    raise TypeError(f"solver returned unnormalizable {type(result).__name__}")


def _verify(solution: Any, instance: Any, family: str) -> None:
    if family == "knapsack":
        import numpy as np

        weights, profits, capacity = instance
        solution.verify(
            np.asarray(weights, dtype=np.float64),
            np.asarray(profits, dtype=np.float64),
            float(capacity),
        )
        return
    if family == "covering":
        from repro.packing.covering import verify_cover

        verify_cover(instance.thetas, instance.demands, instance.antennas[0], solution)
        return
    verify = getattr(solution, "verify", None)
    if callable(verify):
        verify(instance)


def _resolve(request: SolveRequest) -> tuple:
    """Resolve ``family``/``algorithm`` (running the planner for ``auto``).

    Pure: no metrics, no caching — shared by :func:`solve` and the
    parent-process cache helpers so both agree on the resolved names.
    Returns ``(family, algorithm, planned)``.
    """
    family = (
        request.family if request.family != "auto"
        else infer_family(request.instance)
    )
    planned = request.algorithm == "auto"
    if planned:
        algorithm = plan(
            request.instance,
            family,
            timeout_s=request.timeout_s,
            guarantee=request.guarantee,
            variant=request.variant,
            eps=request.eps,
        )
    else:
        algorithm = request.algorithm
    return family, algorithm, planned


def _cacheable(
    request: SolveRequest, family: str, strategy: str = "monolithic"
) -> bool:
    """Whether this request may consult/fill the result cache.

    A deadline (explicit or ambient) makes the outcome time-dependent,
    hence non-canonical for the instance: never cache such solves.  This
    also keeps ``--timeout 0`` failing deterministically with exit code 4
    instead of answering from cache.  Partitioned solves are likewise
    uncacheable: their value is strategy-dependent (within the certified
    merge bound of monolithic, not equal to it), and the cache key is
    strategy-agnostic by design.
    """
    from repro.resilience.budget import current_budget

    budgeted = request.timeout_s is not None or current_budget() is not None
    return (
        request.use_cache
        and not budgeted
        and family != "knapsack"
        and strategy == "monolithic"
    )


def cache_probe(request: SolveRequest) -> Optional[SolveReport]:
    """Answer a request from this process's result cache, or ``None``.

    Used by the batched service front end (:mod:`repro.service`) to serve
    warm results from the *parent* process before fanning cache misses to
    the worker pool (whose processes have their own, cold caches).
    Resolution (family inference, planning) matches :func:`solve` exactly,
    so a probe hit is indistinguishable from a cached engine solve.
    """
    family, algorithm, planned = _resolve(request)
    strategy, _ = _resolve_strategy(request, get_spec(family, algorithm))
    if not _cacheable(request, family, strategy):
        return None
    key = _cache.result_key(
        request.instance, family, algorithm, request.eps, request.seed
    )
    hit = _cache.RESULT_CACHE.get(key)
    if hit is None:
        return None
    solution, value, extra = hit
    return SolveReport(
        family=family, algorithm=algorithm, value=value, solution=solution,
        seconds=0.0, cached=True, planned=planned, label=request.label,
        extra=dict(extra),
    )


def cache_store(request: SolveRequest, report: SolveReport) -> bool:
    """Insert a completed report into this process's result cache.

    The counterpart of :func:`cache_probe`: after a batch is fanned out
    to worker processes, the parent stores the returned reports so later
    identical requests hit the warm cache.  Error reports, budgeted
    solves and uncacheable families are skipped; returns whether the
    report was stored.
    """
    if report.error is not None or report.solution is None:
        return False
    if report.extra.get("strategy") == "partitioned":
        return False
    if not _cacheable(request, report.family):
        return False
    key = _cache.result_key(
        request.instance, report.family, report.algorithm,
        request.eps, request.seed,
    )
    _cache.RESULT_CACHE.put(key, (report.solution, report.value, dict(report.extra)))
    return True


# ======================================================================
# Execution strategies.  One dispatch seam for how a resolved
# (family, algorithm) actually executes:
#
# * ``monolithic``  — build the solve context and run the spec directly;
# * ``partitioned`` — reach-component decomposition, per-part solves
#   fanned over the process pool, certified merge
#   (:mod:`repro.engine.partition`, ``docs/SCALE.md``);
# * worker-sharded — the third strategy lives one layer up: the service
#   tier (``repro.service``) routes whole requests to supervised worker
#   processes by content-fingerprint shard, and each worker re-enters
#   this seam (monolithic or partitioned) locally.
#
# Strategy callables share one signature and return the raw solver
# result for :func:`_normalize`; family-specific extras go into ``extra``.
# ======================================================================
def _run_monolithic(
    request: SolveRequest, spec: SolverSpec, family: str, algorithm: str,
    extra: Dict[str, Any],
) -> Any:
    """Run the spec in-process over the whole instance (default strategy)."""
    ctx = SolveContext(eps=request.eps, seed=request.seed,
                       oracle=_build_oracle(spec, request.eps),
                       compiled=_build_compiled(request.instance, family))
    return spec.run(request.instance, ctx)


def _run_partitioned(
    request: SolveRequest, spec: SolverSpec, family: str, algorithm: str,
    extra: Dict[str, Any],
) -> Any:
    """Partition–solve–merge over the reach components (docs/SCALE.md).

    Deliberately skips :func:`_build_compiled` for the parent instance —
    compiling per-station views of all ``n`` customers is exactly the
    cost this strategy avoids; each child solve compiles only its part.
    """
    from repro.engine.partition import solve_partitioned

    solution, part_extra = solve_partitioned(request, algorithm)
    extra.update(part_extra)
    return solution


_STRATEGIES = {
    "monolithic": _run_monolithic,
    "partitioned": _run_partitioned,
}


def solve(request: SolveRequest) -> SolveReport:
    """Resolve, plan, pick a strategy, solve, verify, and (maybe) cache.

    Raises whatever the underlying solver raises (``BudgetExpired`` on an
    expired ``timeout_s``, ``ValueError`` on inapplicable algorithms) —
    error swallowing is :func:`solve_many`'s job, not this one's.
    """
    from contextlib import nullcontext

    from repro.resilience.budget import Budget

    _REQUESTS.inc()
    family, algorithm, planned = _resolve(request)
    if planned:
        _PLANNED.inc()
    spec = get_spec(family, algorithm)

    reason = spec.rejects(request.instance)
    if reason is not None:
        raise ValueError(f"solver {family}/{algorithm} rejects this instance: {reason}")

    strategy, fell_back = _resolve_strategy(request, spec)
    (_PARTITION_PARTITIONED if strategy == "partitioned"
     else _PARTITION_MONOLITHIC).inc()
    if fell_back:
        _PARTITION_FALLBACK.inc()

    cacheable = _cacheable(request, family, strategy)
    key = None
    if cacheable:
        key = _cache.result_key(
            request.instance, family, algorithm, request.eps, request.seed
        )
        hit = _cache.RESULT_CACHE.get(key)
        if hit is not None:
            solution, value, extra = hit
            return SolveReport(
                family=family, algorithm=algorithm, value=value,
                solution=solution, seconds=0.0, cached=True, planned=planned,
                label=request.label, extra=dict(extra),
            )

    budget_ctx = (
        Budget(wall_s=request.timeout_s).activate()
        if request.timeout_s is not None
        else nullcontext()
    )
    extra: Dict[str, Any] = {}
    start = time.perf_counter()
    with budget_ctx:
        result = _STRATEGIES[strategy](request, spec, family, algorithm, extra)
    seconds = time.perf_counter() - start
    _SOLVE_TIMER.observe(seconds)

    solution, value = _normalize(result, request.instance, extra)
    _verify(solution, request.instance, family)

    if cacheable:
        _cache.RESULT_CACHE.put(key, (solution, value, extra))
    return SolveReport(
        family=family, algorithm=algorithm, value=value, solution=solution,
        seconds=seconds, cached=False, planned=planned, label=request.label,
        extra=extra,
    )


def _solve_worker(request: SolveRequest) -> SolveReport:
    """Module-level (hence picklable) worker for :func:`solve_many`."""
    try:
        return solve(request)
    except Exception as exc:  # noqa: BLE001 - converted to a partial report
        family = request.family
        if family == "auto":
            try:
                family = infer_family(request.instance)
            except ValueError:
                family = "?"
        return SolveReport(
            family=family, algorithm=request.algorithm, label=request.label,
            error=f"{type(exc).__name__}: {exc}",
        )


def solve_many(
    requests: Sequence[SolveRequest],
    workers: Optional[int] = None,
    allow_partial: bool = True,
) -> List[SolveReport]:
    """Batched solve, fanned over the process pool, order-preserving.

    Each request carries its own ``timeout_s`` (budgets are rebuilt inside
    each worker — they do not cross process boundaries).  With
    ``allow_partial=True`` (default) failures come back as reports with
    ``error`` set; with ``allow_partial=False`` the first failure raises.

    Worker processes have their own caches, so cross-request cache reuse
    is only guaranteed for the serial fallback path (< 4 requests or
    ``workers=1``); results returned to the parent are complete either
    way.
    """
    from repro.parallel.pool import parallel_map

    reports = parallel_map(_solve_worker, list(requests), workers=workers)
    if not allow_partial:
        for report in reports:
            if report.error is not None:
                raise RuntimeError(
                    f"solve_many: {report.family}/{report.algorithm} "
                    f"{report.label or ''} failed: {report.error}"
                )
    return reports
