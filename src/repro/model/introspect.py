"""Payload introspection shared by the engine, planner and partitioner.

Two tiny heuristics used to be private to ``repro.engine.core`` and were
about to be re-implemented by the partition planner and the service
batcher; they live here so every layer agrees on what a payload *is*
(family) and how *big* it is (the size that drives the partition auto
threshold).
"""

from __future__ import annotations

from typing import Any

__all__ = ["infer_family", "instance_size"]


def infer_family(instance: Any) -> str:
    """Infer the solver family from the payload type.

    ``AngleInstance`` -> ``"angle"``, ``SectorInstance`` -> ``"sector"``,
    a 3-tuple/list -> ``"knapsack"`` (the ``(weights, profits, capacity)``
    oracle payload).  Covering and online runs reuse angle instances, so
    they must name their family explicitly — inference raises
    ``ValueError`` for anything else.
    """
    from repro.model.instance import AngleInstance, SectorInstance

    if isinstance(instance, AngleInstance):
        return "angle"
    if isinstance(instance, SectorInstance):
        return "sector"
    if isinstance(instance, (tuple, list)) and len(instance) == 3:
        return "knapsack"
    raise ValueError(
        f"cannot infer solver family from {type(instance).__name__}; "
        f"set SolveRequest.family explicitly"
    )


def instance_size(instance: Any) -> int:
    """Customer/item count driving the partition auto threshold."""
    n = getattr(instance, "n", None)
    if n is not None:
        return int(n)
    if isinstance(instance, (tuple, list)) and len(instance) == 3:
        import numpy as np

        return int(np.size(instance[0]))
    return 0
