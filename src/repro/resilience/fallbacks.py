"""Declarative fallback chains: ``exact -> fptas(eps) -> greedy``.

A :class:`FallbackChain` runs a sequence of :class:`Stage` definitions
until one produces a solution.  Each stage gets a **fresh**
:class:`~repro.resilience.budget.Budget` (its own deadline / node /
oracle limits — a late stage is never starved by an early one), transient
failures are retried with exponential backoff, and every attempt is
recorded both in the returned :class:`ChainResult` and in the solution's
own metadata (``solution.meta["resilience"]``), so a report row can always
answer *which stage produced this number, and why*.

Failure routing per attempt:

* ``BudgetExpired``  -> stage timed out; **no retry** (a deadline will not
  un-expire), fall through to the next stage
  (+1 ``resilience.timeouts``);
* a ``retry_on`` type -> transient; sleep ``backoff_s * 2**attempt`` and
  retry up to ``retries`` times (+1 ``resilience.retries`` each);
* any other exception -> stage is broken; fall through immediately.

Every abandoned stage counts one ``resilience.fallbacks``.  A chain whose
last stage also fails raises :class:`FallbackExhausted` carrying the full
attempt history.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.resilience.anytime import AnytimeOutcome
from repro.resilience.budget import Budget, BudgetExpired
from repro.resilience.chaos import ChaosError, chaos_point

__all__ = [
    "Stage",
    "ChainResult",
    "FallbackChain",
    "FallbackExhausted",
    "stage_from_spec",
    "default_angle_chain",
    "default_sector_chain",
    "default_chain_for",
]

# Fallback telemetry (contract: docs/RESILIENCE.md).
_REG = get_registry()
_FALLBACKS = _REG.counter("resilience.fallbacks")
_TIMEOUTS = _REG.counter("resilience.timeouts")
_RETRIES = _REG.counter("resilience.retries")


class FallbackExhausted(RuntimeError):
    """Every stage of a fallback chain failed.

    ``attempts`` holds the per-attempt records (stage, outcome, error).
    """

    def __init__(self, attempts: List[dict]):
        self.attempts = attempts
        tried = " -> ".join(
            f"{a['stage']}:{a['outcome']}" for a in attempts
        )
        super().__init__(f"all fallback stages failed ({tried})")


@dataclass(frozen=True)
class Stage:
    """One rung of a fallback chain.

    ``solve(instance, budget)`` returns a solution object or an
    :class:`~repro.resilience.anytime.AnytimeOutcome`; ``budget`` is the
    stage's fresh budget (``None`` when the stage is unlimited) and is
    also installed ambiently around the call, so budget-oblivious solvers
    are still interrupted at their instrumented checkpoints.
    """

    name: str
    solve: Callable[[Any, Optional[Budget]], Any]
    timeout_s: Optional[float] = None
    max_nodes: Optional[int] = None
    max_oracle_calls: Optional[int] = None
    retries: int = 0
    backoff_s: float = 0.05
    retry_on: Tuple[type, ...] = (ChaosError, ConnectionError, OSError)

    def make_budget(self) -> Optional[Budget]:
        if (
            self.timeout_s is None
            and self.max_nodes is None
            and self.max_oracle_calls is None
        ):
            return None
        return Budget(
            wall_s=self.timeout_s,
            max_nodes=self.max_nodes,
            max_oracle_calls=self.max_oracle_calls,
        )


@dataclass(frozen=True)
class ChainResult:
    """What a chain produced and the path it took to get there.

    ``degraded`` is true when any stage before the answering one was
    abandoned, or when the answering stage returned a non-optimal anytime
    incumbent.
    """

    solution: Any
    stage: str
    reason: str
    degraded: bool
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None
    attempts: List[dict] = field(default_factory=list)


class FallbackChain:
    """Run stages in order until one answers; see the module docstring."""

    def __init__(self, stages: List[Stage], sleep: Callable[[float], None] = time.sleep):
        if not stages:
            raise ValueError("a fallback chain needs at least one stage")
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self._sleep = sleep

    def run(self, instance) -> ChainResult:
        attempts: List[dict] = []
        for stage_index, stage in enumerate(self.stages):
            attempt = 0
            while True:
                budget = stage.make_budget()
                record = {"stage": stage.name, "attempt": attempt}
                t0 = time.perf_counter()
                try:
                    ctx = budget.activate() if budget is not None else nullcontext()
                    with ctx:
                        chaos_point(f"fallback.{stage.name}")
                        out = stage.solve(instance, budget)
                except BudgetExpired as exc:
                    record.update(outcome="timeout", error=str(exc),
                                  seconds=time.perf_counter() - t0)
                    attempts.append(record)
                    _TIMEOUTS.inc()
                    break  # deadlines don't retry; next stage
                except stage.retry_on as exc:
                    record.update(outcome="transient", error=str(exc),
                                  seconds=time.perf_counter() - t0)
                    attempts.append(record)
                    if attempt < stage.retries:
                        _RETRIES.inc()
                        self._sleep(stage.backoff_s * (2.0 ** attempt))
                        attempt += 1
                        continue
                    break
                except Exception as exc:  # noqa: BLE001 - routed, not hidden
                    record.update(outcome="error", error=str(exc),
                                  seconds=time.perf_counter() - t0)
                    attempts.append(record)
                    break
                else:
                    seconds = time.perf_counter() - t0
                    solution, reason, lb, ub = _unwrap(out)
                    record.update(outcome="ok", reason=reason, seconds=seconds)
                    attempts.append(record)
                    degraded = stage_index > 0 or reason != "complete"
                    meta = {
                        "stage": stage.name,
                        "reason": reason,
                        "degraded": degraded,
                        "attempts": attempts,
                    }
                    if ub is not None:
                        meta["lower_bound"] = lb
                        meta["upper_bound"] = ub
                    if hasattr(solution, "with_meta"):
                        solution = solution.with_meta(resilience=meta)
                    return ChainResult(
                        solution=solution,
                        stage=stage.name,
                        reason=reason,
                        degraded=degraded,
                        lower_bound=lb,
                        upper_bound=ub,
                        attempts=attempts,
                    )
            _FALLBACKS.inc()
        raise FallbackExhausted(attempts)


def _unwrap(out) -> Tuple[Any, str, Optional[float], Optional[float]]:
    """Normalize a stage's return into (solution, reason, lb, ub)."""
    if isinstance(out, AnytimeOutcome):
        reason = "complete" if out.optimal else f"anytime:{out.reason}"
        return out.solution, reason, out.lower_bound, out.upper_bound
    return out, "complete", None, None


def stage_from_spec(
    family: str,
    algorithm: str,
    *,
    stage_name: Optional[str] = None,
    eps: float = 1.0,
    seed: int = 0,
    oracle: str = "auto",
    timeout_s: Optional[float] = None,
    retries: int = 0,
    **stage_kwargs,
) -> Stage:
    """Build a :class:`Stage` from a registered engine solver.

    The stage runs ``repro.engine`` spec ``(family, algorithm)`` under the
    chain's per-stage budget.  ``oracle`` selects the inner knapsack
    oracle: ``"auto"`` builds it by the engine's own policy
    (``repro.engine.core._build_oracle``: fptas when the spec supports
    eps and ``eps < 1.0``, exact otherwise), or name one of
    :data:`repro.knapsack.api.KNAPSACK_SOLVERS` explicitly (the floor of a
    ladder typically wants ``"greedy"`` — near-linear, deadline-free).
    """
    # Imported lazily: repro.packing imports this package for budget
    # checkpoints, so a module-level engine import here would be circular.
    from repro.engine.core import _build_oracle
    from repro.engine.registry import SolveContext, get_spec

    spec = get_spec(family, algorithm)

    def run(instance, budget):
        from repro.knapsack import get_solver

        if oracle == "auto":
            orc = _build_oracle(spec, eps)
        elif oracle == "fptas":
            orc = get_solver("fptas", eps=eps if eps < 1.0 else 0.5)
        else:
            orc = get_solver(oracle)
        # budget is already installed ambiently by the chain; specs that
        # support budgets pick it up at their instrumented checkpoints.
        return spec.run(instance, SolveContext(eps=eps, seed=seed, oracle=orc))

    return Stage(
        stage_name or algorithm,
        run,
        timeout_s=timeout_s,
        retries=retries,
        **stage_kwargs,
    )


def default_angle_chain(
    eps: float = 0.25,
    exact_timeout_s: float = 1.0,
    stage_timeout_s: Optional[float] = 5.0,
    retries: int = 1,
    anytime_exact: bool = True,
) -> FallbackChain:
    """The standard degradation ladder for angle instances.

    ``exact`` (budget-bounded, anytime unless ``anytime_exact=False``)
    -> ``fptas(eps)`` greedy multi-knapsack -> ``greedy``.  Every rung is
    a registry lookup (:func:`stage_from_spec`); the last stage runs
    without a deadline: it is the floor of the ladder and its cost is
    near-linear.
    """
    return FallbackChain(
        [
            stage_from_spec(
                "angle", "exact-anytime" if anytime_exact else "exact",
                stage_name="exact", timeout_s=exact_timeout_s, retries=retries,
            ),
            stage_from_spec(
                "angle", "greedy", stage_name=f"fptas(eps={eps})", eps=eps,
                timeout_s=stage_timeout_s, retries=retries,
            ),
            stage_from_spec(
                "angle", "greedy", oracle="greedy", timeout_s=None,
                retries=retries,
            ),
        ]
    )


def default_sector_chain(
    eps: float = 0.25,
    exact_timeout_s: float = 1.0,
    stage_timeout_s: Optional[float] = 5.0,
    retries: int = 1,
) -> FallbackChain:
    """The standard degradation ladder for sector (2-D city) instances.

    ``exact`` (budget-bounded orientation enumeration) -> ``fptas(eps)``
    sector greedy -> ``greedy`` with the linear-time oracle, mirroring
    :func:`default_angle_chain`.  Sector exactness has no anytime variant
    yet, so an expiring exact stage falls through instead of returning an
    incumbent.
    """
    return FallbackChain(
        [
            stage_from_spec(
                "sector", "exact", timeout_s=exact_timeout_s, retries=retries,
            ),
            stage_from_spec(
                "sector", "greedy", stage_name=f"fptas(eps={eps})", eps=eps,
                timeout_s=stage_timeout_s, retries=retries,
            ),
            stage_from_spec(
                "sector", "greedy", oracle="greedy", timeout_s=None,
                retries=retries,
            ),
        ]
    )


def default_chain_for(
    instance,
    eps: float = 0.25,
    exact_timeout_s: float = 1.0,
    **kwargs,
) -> FallbackChain:
    """Pick the default degradation ladder for ``instance``'s geometry.

    Dispatches on the instance type (angle vs sector); extra keyword
    arguments are forwarded to the family's chain builder.
    """
    from repro.model.instance import AngleInstance, SectorInstance

    if isinstance(instance, AngleInstance):
        return default_angle_chain(
            eps=eps, exact_timeout_s=exact_timeout_s, **kwargs
        )
    if isinstance(instance, SectorInstance):
        return default_sector_chain(
            eps=eps, exact_timeout_s=exact_timeout_s, **kwargs
        )
    raise TypeError(
        f"no default fallback chain for {type(instance).__name__}"
    )
