"""Shared result type, solver protocol, and registry for knapsack solvers."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.numerics import fits as _numerics_fits
from repro.obs.metrics import get_registry
from repro.resilience.budget import tick_oracle as _budget_tick_oracle

#: Relative tolerance accepted when verifying a result against capacity.
_TOL = 1e-9

# Always-on oracle telemetry (contract: docs/OBSERVABILITY.md).  Handles
# are cached at import time; Registry.reset() zeroes them in place, so the
# cache stays valid across reset/snapshot cycles.
_REG = get_registry()
_ORACLE_CALLS = _REG.counter("oracle.calls")
_ORACLE_ITEMS = _REG.counter("oracle.items")
_KIND_METRICS: Dict[str, tuple] = {}


def _record_oracle(kind: str, n_items: int, seconds: float) -> None:
    """Count one oracle call: total + per-kind counters and a timer.

    Also ticks the thread's ambient resilience budget (if any): oracle
    calls are the budget's ``max_oracle_calls`` unit and every call is a
    deadline checkpoint.
    """
    _budget_tick_oracle()
    per = _KIND_METRICS.get(kind)
    if per is None:
        per = _KIND_METRICS[kind] = (
            _REG.counter(f"oracle.calls.{kind}"),
            _REG.timer(f"oracle.time.{kind}"),
        )
    _ORACLE_CALLS.inc()
    _ORACLE_ITEMS.inc(n_items)
    per[0].inc()
    per[1].observe(seconds)


def _fits(weight: float, remaining: float) -> bool:
    """Shared capacity-fit predicate; delegates to :func:`repro.numerics.fits`.

    A pure ``weight <= remaining`` comparison breaks at exact-capacity
    boundaries (an item equal to the remaining capacity can differ by one
    ulp depending on summation order); every solver uses this predicate so
    they agree with each other and with the verifier's looser 1e-9 band.
    The slack policy itself lives in :mod:`repro.numerics`.
    """
    return _numerics_fits(weight, remaining)


def _as_arrays(weights, profits) -> tuple[np.ndarray, np.ndarray]:
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    p = np.asarray(profits, dtype=np.float64).reshape(-1)
    if w.shape != p.shape:
        raise ValueError(f"weights {w.shape} and profits {p.shape} must align")
    if w.size and (w < 0).any():
        raise ValueError("weights must be non-negative")
    if p.size and (p < 0).any():
        raise ValueError("profits must be non-negative")
    return w, p


@dataclass(frozen=True)
class KnapsackResult:
    """Outcome of a 0/1 knapsack solve.

    Attributes
    ----------
    selected:
        Indices (into the input arrays) of the chosen items, ascending.
    value:
        Total profit of the chosen items.
    weight:
        Total weight of the chosen items.
    """

    selected: np.ndarray
    value: float
    weight: float

    def __post_init__(self) -> None:
        sel = np.asarray(self.selected, dtype=np.intp).reshape(-1)
        object.__setattr__(self, "selected", np.sort(sel))

    @classmethod
    def empty(cls) -> "KnapsackResult":
        return cls(selected=np.empty(0, dtype=np.intp), value=0.0, weight=0.0)

    @classmethod
    def of(cls, selected, weights, profits) -> "KnapsackResult":
        """Build a result from chosen indices, recomputing value/weight."""
        w, p = _as_arrays(weights, profits)
        sel = np.asarray(selected, dtype=np.intp).reshape(-1)
        return cls(
            selected=sel, value=float(p[sel].sum()), weight=float(w[sel].sum())
        )

    def verify(self, weights, profits, capacity: float) -> "KnapsackResult":
        """Independently re-check the result; raises ``ValueError`` if bad."""
        w, p = _as_arrays(weights, profits)
        sel = self.selected
        if sel.size:
            if sel.min() < 0 or sel.max() >= w.size:
                raise ValueError("selected index out of range")
            if np.unique(sel).size != sel.size:
                raise ValueError("selected contains duplicates")
        weight = float(w[sel].sum())
        value = float(p[sel].sum())
        if weight > capacity * (1.0 + _TOL) + 1e-12:
            raise ValueError(f"selection weight {weight} exceeds capacity {capacity}")
        if abs(weight - self.weight) > 1e-6 * max(1.0, abs(weight)):
            raise ValueError(f"stored weight {self.weight} != recomputed {weight}")
        if abs(value - self.value) > 1e-6 * max(1.0, abs(value)):
            raise ValueError(f"stored value {self.value} != recomputed {value}")
        return self


class KnapsackSolver:
    """Base class: a named knapsack algorithm with an approximation factor.

    ``guarantee`` is the proven worst-case ratio ``value >= guarantee * OPT``
    (1.0 for exact solvers).  Subclasses implement :meth:`solve`.
    """

    name: str = "abstract"

    @property
    def guarantee(self) -> float:
        raise NotImplementedError

    def solve(
        self, weights, profits, capacity: float, *, compiled=None
    ) -> KnapsackResult:
        """Solve one 0/1 knapsack.

        ``compiled`` (optional) is a :class:`repro.core.compiled.
        CompiledItems` view of exactly these ``weights``/``profits``;
        solvers that can reuse its precomputed orderings do so, the rest
        ignore it.  Passing a view of *different* arrays is undefined.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ExactKnapsack(KnapsackSolver):
    """Optimal solver: integer DP when weights are integral, else B&B."""

    name = "exact"

    @property
    def guarantee(self) -> float:
        return 1.0

    def solve(
        self, weights, profits, capacity: float, *, compiled=None
    ) -> KnapsackResult:
        from repro.knapsack.exact import solve_exact_auto

        t0 = time.perf_counter()
        res = solve_exact_auto(weights, profits, capacity)
        _record_oracle("exact", int(np.size(weights)), time.perf_counter() - t0)
        return res


class FptasKnapsack(KnapsackSolver):
    """Profit-scaling FPTAS: ``value >= (1 - eps) * OPT``."""

    def __init__(self, eps: float = 0.1):
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        self.eps = eps
        self.name = f"fptas(eps={eps})"

    @property
    def guarantee(self) -> float:
        return 1.0 - self.eps

    def solve(
        self, weights, profits, capacity: float, *, compiled=None
    ) -> KnapsackResult:
        from repro.knapsack.fptas import solve_fptas

        t0 = time.perf_counter()
        res = solve_fptas(weights, profits, capacity, eps=self.eps)
        _record_oracle("fptas", int(np.size(weights)), time.perf_counter() - t0)
        return res


class GreedyKnapsack(KnapsackSolver):
    """Density greedy + best-single-item: ``value >= OPT / 2``."""

    name = "greedy"

    @property
    def guarantee(self) -> float:
        return 0.5

    def solve(
        self, weights, profits, capacity: float, *, compiled=None
    ) -> KnapsackResult:
        from repro.knapsack.greedy import solve_greedy

        t0 = time.perf_counter()
        res = solve_greedy(weights, profits, capacity, compiled=compiled)
        _record_oracle("greedy", int(np.size(weights)), time.perf_counter() - t0)
        return res


#: Registered solver factories.  ``fptas`` accepts an ``eps`` keyword.
KNAPSACK_SOLVERS: Dict[str, Callable[..., KnapsackSolver]] = {
    "exact": ExactKnapsack,
    "fptas": FptasKnapsack,
    "greedy": GreedyKnapsack,
}


def get_solver(name: str, **kwargs) -> KnapsackSolver:
    """Resolve a solver by registry name (``exact``, ``fptas``, ``greedy``).

    >>> get_solver("fptas", eps=0.25).guarantee
    0.75
    """
    try:
        factory = KNAPSACK_SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown knapsack solver {name!r}; "
            f"available: {sorted(KNAPSACK_SOLVERS)}"
        ) from None
    return factory(**kwargs)
