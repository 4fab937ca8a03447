"""Unified solver engine (registry + planner + cache + batched solves).

Public surface (contract: ``docs/ENGINE.md``):

* :class:`~repro.engine.registry.SolverSpec` / :func:`register` /
  :func:`get_spec` / :func:`specs` / :func:`solver_names` — the single
  declarative solver table every consumer (CLI, fallback chains,
  analysis harness) derives from;
* :class:`~repro.engine.core.SolveRequest` /
  :class:`~repro.engine.core.SolveReport` / :func:`solve` /
  :func:`solve_many` — the uniform solve envelope;
* :func:`cache_probe` / :func:`cache_store` — parent-process warm-cache
  helpers for batching front ends (:mod:`repro.service`);
* :func:`~repro.engine.planner.plan` — ``algorithm="auto"`` resolution —
  and :func:`~repro.engine.planner.plan_partition` — ``partition="auto"``
  strategy resolution against each spec's ``partitionable`` capability
  (``docs/SCALE.md``);
* :mod:`repro.engine.partition` — reach-component decomposition with
  certified merge bounds (:func:`partition_instance`,
  :func:`solve_partitioned`, :func:`merge_partial_solutions`);
* :mod:`repro.engine.cache` — instance-fingerprint result + precompute
  caches (:func:`clear_caches`, ``engine.cache.*`` metrics);
* :func:`check_registry` / :func:`smoke_check` — CI completeness gates.
"""

from repro.engine.cache import clear_caches, fingerprint
from repro.engine.core import (
    SolveReport,
    SolveRequest,
    cache_probe,
    cache_store,
    solve,
    solve_many,
)
from repro.engine.partition import (
    Part,
    PartitionPlan,
    merge_partial_solutions,
    partition_instance,
    reach_components,
    solve_partitioned,
)
from repro.engine.planner import plan, plan_partition
from repro.engine.registry import (
    FAMILIES,
    SolveContext,
    SolverSpec,
    check_registry,
    get_spec,
    register,
    smoke_check,
    solver_names,
    specs,
)

__all__ = [
    "FAMILIES",
    "Part",
    "PartitionPlan",
    "SolveContext",
    "SolveRequest",
    "SolveReport",
    "SolverSpec",
    "cache_probe",
    "cache_store",
    "check_registry",
    "clear_caches",
    "fingerprint",
    "get_spec",
    "merge_partial_solutions",
    "partition_instance",
    "plan",
    "plan_partition",
    "reach_components",
    "register",
    "smoke_check",
    "solve",
    "solve_many",
    "solve_partitioned",
    "solver_names",
    "specs",
]
