"""Generic experiment harness: run solver suites over instance families.

The benchmark scripts under ``benchmarks/`` are thin wrappers over two
entry points here:

* :func:`compare_solvers` -- run every named solver on every instance,
  timing each run and recording the value;
* :func:`ratio_study` -- additionally compute a per-instance reference
  (exact optimum or an upper bound) and report ratios.

Solvers are plain callables ``instance -> value`` wrapped in
:class:`SolverSpec` so reports carry names and proven guarantees.
:func:`specs_from_engine` derives a suite straight from the
:mod:`repro.engine` registry — the harness owns no solver table of its
own; dispatch, oracle policy, and caching live in the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.metrics import RunRecord, summarize, timed
from repro.analysis.tables import format_table


@dataclass(frozen=True)
class SolverSpec:
    """A named solver for the harness.

    ``fn`` maps an instance to the achieved objective value.  ``guarantee``
    is the proven worst-case ratio (``None`` for heuristics without one);
    the harness asserts measured ratios against it when a reference is
    available.
    """

    name: str
    fn: Callable[..., float]
    guarantee: Optional[float] = None


def specs_from_engine(
    family: str = "angle",
    names: Optional[Sequence[str]] = None,
    eps: float = 1.0,
    seed: int = 0,
    use_cache: bool = True,
) -> List[SolverSpec]:
    """Build a harness suite from the :mod:`repro.engine` registry.

    Each returned :class:`SolverSpec` routes through ``engine.solve`` (so
    runs share the engine's oracle policy, verification, and instance
    cache) and carries the registry's proven guarantee evaluated at the
    oracle factor implied by ``eps`` (``beta = 1 - eps`` below 1.0).

    ``names=None`` selects every polynomial overlap-variant solver of the
    family that applies to generic instances (probed on a tiny canonical
    instance, so conditional specs like ``single`` drop out); name
    exponential, fractional, or conditional specs explicitly when you
    want them.
    """
    from repro.engine import SolveRequest, get_spec
    from repro.engine import solve as engine_solve
    from repro.engine import specs as engine_specs

    if names is None:
        candidates = [
            s
            for s in engine_specs(family)
            if s.complexity == "poly" and s.variant in ("overlap", "-")
        ]
        probe = None
        if family in ("angle", "covering", "online"):
            from repro.model.generators import uniform_angles

            probe = uniform_angles(n=6, k=2, seed=0)
        elif family == "sector":
            from repro.model.generators import grid_city

            probe = grid_city(n=6, seed=0)
        names = [
            s.name
            for s in candidates
            if probe is None or s.rejects(probe) is None
        ]

    suite: List[SolverSpec] = []
    for name in names:
        spec = get_spec(family, name)
        beta = 1.0 - eps if (spec.supports_eps and eps < 1.0) else 1.0
        if spec.exact:
            guarantee: Optional[float] = 1.0
        elif spec.guarantee_fn is not None:
            guarantee = spec.guarantee_fn(beta)
        else:
            guarantee = None

        def fn(instance, _name=name):
            return engine_solve(
                SolveRequest(
                    instance=instance, family=family, algorithm=_name,
                    eps=eps, seed=seed, use_cache=use_cache,
                )
            ).value

        suite.append(SolverSpec(name=name, fn=fn, guarantee=guarantee))
    return suite


def compare_solvers(
    instances: Dict[str, Sequence],
    solvers: Sequence[SolverSpec],
    reference: Optional[Callable[..., float]] = None,
) -> List[RunRecord]:
    """Run all solvers over all (family, instance) pairs.

    ``reference(instance)`` — typically the exact optimum or an upper
    bound — is evaluated once per instance and shared by every solver's
    :attr:`RunRecord.reference`.
    """
    records: List[RunRecord] = []
    for family, family_instances in instances.items():
        for inst in family_instances:
            ref = reference(inst) if reference is not None else None
            for spec in solvers:
                with timed() as t:
                    value = spec.fn(inst)
                records.append(
                    RunRecord(
                        solver=spec.name,
                        family=family,
                        value=value,
                        seconds=t["seconds"],
                        reference=ref,
                    )
                )
    return records


def ratio_study(
    instances: Dict[str, Sequence],
    solvers: Sequence[SolverSpec],
    reference: Callable[..., float],
    check_guarantees: bool = True,
    slack: float = 1e-9,
) -> List[RunRecord]:
    """Like :func:`compare_solvers`, but enforces proven guarantees.

    When ``check_guarantees`` is set, every record whose solver declares a
    guarantee must satisfy ``value >= guarantee * reference - slack``
    (valid when ``reference`` is the exact optimum; with an upper-bound
    reference, disable the check).  Raises ``AssertionError`` otherwise —
    experiments fail loudly instead of reporting broken numbers.
    """
    records = compare_solvers(instances, solvers, reference)
    if check_guarantees:
        by_name = {s.name: s for s in solvers}
        for r in records:
            g = by_name[r.solver].guarantee
            if g is not None and r.reference is not None:
                if r.value < g * r.reference - slack:
                    raise AssertionError(
                        f"{r.solver} broke its {g:.3f} guarantee on "
                        f"{r.family}: {r.value:.6f} < {g:.3f} * {r.reference:.6f}"
                    )
    return records


def report(records: List[RunRecord], title: str = "results") -> str:
    """Human-readable summary table of a record list."""
    agg = summarize(records)
    headers = ["solver", "runs", "mean value", "mean s", "min ratio", "geo ratio"]
    rows = []
    for solver in sorted(agg):
        e = agg[solver]
        rows.append(
            [
                solver,
                int(e["runs"]),
                e["mean_value"],
                e["mean_seconds"],
                e.get("min_ratio", float("nan")),
                e.get("geo_mean_ratio", float("nan")),
            ]
        )
    return format_table(headers, rows, title=title)
