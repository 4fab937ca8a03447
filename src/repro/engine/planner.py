"""Feature-based planner: pick a solver when the caller says ``auto``.

The rules are deliberately simple, deterministic and documented (see
``docs/ENGINE.md``); the planner never invents solvers, it only chooses
among registered :class:`~repro.engine.registry.SolverSpec`s whose
``accepts`` admits the instance.

Angle rules, in order:

1. ``variant="fractional"`` -> ``splittable``.
2. ``variant="disjoint"`` -> ``dp-disjoint`` when it applies and the
   deadline is not tight, else ``shifting`` (identical antennas), else
   ``insertion``, else ``dp-disjoint`` as the last resort.
3. ``k == 1`` -> ``single`` (the dedicated rotation search).
4. *small* (``n <= 12`` and ``k <= 3``) and deadline not *tight* ->
   ``exact`` — orientation enumeration is affordable and certifies OPT.
5. a requested ``guarantee`` -> the cheapest polynomial spec whose
   ``guarantee_fn(beta)`` meets it (beta from eps).
6. tight deadline -> ``greedy`` (cheapest budget-aware solver).
7. ``n <= 400`` -> ``greedy+ls``, else ``greedy``.

Sector rules: *small* (``n <= 12`` and ``total_antennas <= 3``) and not
tight -> ``exact``; else ``greedy``.  Covering has one solver; knapsack
and online default to ``exact`` / ``best_fit``.

*Tight* means ``timeout_s < 2.0`` — under that the exponential solvers
cannot be trusted to produce a certified answer, so the planner refuses
them outright rather than betting on the anytime path.

The planner also owns the *partition* auto rule (:func:`plan_partition`, contract in
``docs/SCALE.md``): ``partition="auto"|"never"|"force"`` resolves against
the chosen spec's ``partitionable`` capability and the instance size —
``"auto"`` partitions exactly when the spec allows it, the instance is a
multi-station sector instance, and it has at least
:data:`AUTO_PARTITION_MIN_N` customers; ``"force"`` on a
non-partitionable spec falls back to monolithic cleanly (counted under
``engine.partition.fallback``).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.registry import get_spec

__all__ = [
    "plan",
    "plan_partition",
    "SMALL_N",
    "SMALL_K",
    "MID_N",
    "TIGHT_DEADLINE_S",
    "AUTO_PARTITION_MIN_N",
]

SMALL_N = 12
SMALL_K = 3
MID_N = 400
TIGHT_DEADLINE_S = 2.0

#: Minimum customer count before ``partition="auto"`` decomposes: below
#: this the O(m·n) partition pass and per-part solve overhead rival the
#: monolithic solve (``docs/SCALE.md``).
AUTO_PARTITION_MIN_N = 20_000


def plan_partition(
    requested: str, partitionable: bool, size: int, stations: int = 0
) -> Tuple[str, bool]:
    """Resolve a request's partition policy against a spec's capability.

    ``requested`` is ``"auto"``, ``"never"`` or ``"force"``; returns
    ``(strategy, fell_back)`` where ``strategy`` is ``"monolithic"`` or
    ``"partitioned"`` and ``fell_back`` is True when an explicit
    ``"force"`` had to drop to monolithic because the spec declares
    ``partitionable=False`` (the engine counts it under
    ``engine.partition.fallback``).  ``"auto"`` never counts as a
    fallback: it partitions exactly when the spec allows it, the payload
    has more than one station, and ``size >= AUTO_PARTITION_MIN_N``.
    """
    if requested not in ("auto", "never", "force"):
        raise ValueError(
            f"partition must be 'auto', 'never' or 'force', got {requested!r}"
        )
    if requested == "force":
        return ("partitioned", False) if partitionable else ("monolithic", True)
    if (
        requested == "auto"
        and partitionable
        and stations > 1
        and size >= AUTO_PARTITION_MIN_N
    ):
        return "partitioned", False
    return "monolithic", False


def _oracle_beta(eps: float) -> float:
    """Approximation factor of the oracle the engine builds for ``eps``."""
    return 1.0 - eps if eps < 1.0 else 1.0


def _pick_by_guarantee(instance, family: str, guarantee: float, eps: float) -> Optional[str]:
    from repro.engine.registry import specs

    beta = _oracle_beta(eps)
    for spec in specs(family):
        if spec.complexity != "poly" or spec.guarantee_fn is None:
            continue
        if spec.rejects(instance) is not None:
            continue
        if spec.guarantee_fn(beta) >= guarantee:
            return spec.name
    return None


def _plan_angle(
    instance,
    timeout_s: Optional[float],
    guarantee: Optional[float],
    variant: str,
    eps: float,
) -> str:
    tight = timeout_s is not None and timeout_s < TIGHT_DEADLINE_S
    if variant == "fractional":
        return "splittable"
    if variant == "disjoint":
        dp_ok = get_spec("angle", "dp-disjoint").rejects(instance) is None
        if dp_ok and not tight:
            return "dp-disjoint"
        if instance.has_uniform_antennas:
            return "shifting"
        return "dp-disjoint"
    if instance.k == 1:
        return "single"
    small = instance.n <= SMALL_N and instance.k <= SMALL_K
    if small and not tight:
        return "exact"
    if guarantee is not None:
        name = _pick_by_guarantee(instance, "angle", guarantee, eps)
        if name is not None:
            return name
        raise ValueError(
            f"no polynomial solver guarantees {guarantee:.3f} "
            f"at eps={eps} (oracle beta={_oracle_beta(eps):.3f})"
        )
    if tight:
        return "greedy"
    return "greedy+ls" if instance.n <= MID_N else "greedy"


def _plan_sector(
    instance, timeout_s: Optional[float], guarantee: Optional[float], eps: float
) -> str:
    tight = timeout_s is not None and timeout_s < TIGHT_DEADLINE_S
    small = instance.n <= SMALL_N and instance.total_antennas <= SMALL_K
    if small and not tight:
        return "exact"
    if guarantee is not None:
        name = _pick_by_guarantee(instance, "sector", guarantee, eps)
        if name is not None:
            return name
        raise ValueError(f"no polynomial sector solver guarantees {guarantee:.3f}")
    return "greedy"


def plan(
    instance,
    family: str,
    timeout_s: Optional[float] = None,
    guarantee: Optional[float] = None,
    variant: str = "overlap",
    eps: float = 1.0,
) -> str:
    """Choose a registered solver name for ``instance`` (see module doc)."""
    if family == "angle":
        return _plan_angle(instance, timeout_s, guarantee, variant, eps)
    if family == "sector":
        return _plan_sector(instance, timeout_s, guarantee, eps)
    if family == "covering":
        return "greedy-cover"
    if family == "knapsack":
        # Tight deadlines get the constant-factor greedy, otherwise exact.
        if timeout_s is not None and timeout_s < TIGHT_DEADLINE_S:
            return "greedy"
        return "exact"
    if family == "online":
        return "best_fit"
    raise ValueError(f"cannot plan for unknown family {family!r}")
