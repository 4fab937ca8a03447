"""Core shared-precomputation layer.

:mod:`repro.core.compiled` holds the struct-of-arrays "compiled" view of a
problem instance — the common precomputation prefix (sorts, prefix sums,
candidate grids, per-station polar conversions) that every solver family
needs.  :mod:`repro.core.backend` holds the vectorized numpy kernels that
consume those views on the solve path, each checked against a scalar
reference (contract: ``docs/BACKENDS.md``).  See ``docs/ARCHITECTURE.md``
for where this layer sits in the stack.
"""

from repro.core.backend import batched_station_polar, greedy_prefix_mask
from repro.core.compiled import (
    CompiledAngleInstance,
    CompiledInstance,
    CompiledSectorInstance,
    CompiledStation,
    compile_instance,
)

__all__ = [
    "CompiledInstance",
    "CompiledAngleInstance",
    "CompiledSectorInstance",
    "CompiledStation",
    "compile_instance",
    "greedy_prefix_mask",
    "batched_station_polar",
]
