"""Solver registry: one declarative table for every solver family.

Before this layer the repo kept private dispatch tables in sync by
hand — ``cli.py`` (``ANGLE_ALGORITHMS``/``SECTOR_ALGORITHMS`` + if-chains)
and ``resilience/fallbacks.py`` (hard-wired chain closures), among
others.  The registry replaces them: a :class:`SolverSpec` declares *what* a solver is
(family, variant, exactness, guarantee, complexity class, applicability)
and *how* to run it (a ``run(instance, ctx)`` callable threading the
shared oracle/eps/seed context), and every consumer derives its table
from here.

Families: ``angle`` and ``sector`` (the paper's two geometries),
``covering`` (the dual min-antenna problem), ``knapsack`` (the inner
oracles, run on ``(weights, profits, capacity)`` triples), and ``online``
(admission policies).

Completeness is machine-checked: :func:`check_registry` verifies that
every solver exported from :mod:`repro.packing` is claimed by some spec's
``uses`` tuple (or is a declared building block) and that every knapsack
oracle name is registered — so adding a solver without registering it
fails ``scripts/smoke.sh``.  Contract: ``docs/ENGINE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "SolveContext",
    "SolverSpec",
    "register",
    "get_spec",
    "specs",
    "solver_names",
    "FAMILIES",
    "check_registry",
    "smoke_check",
]

FAMILIES = ("angle", "sector", "covering", "knapsack", "online")

#: Exports that are legitimate *building blocks* of registered solvers
#: rather than end-user algorithms; the completeness check exempts them.
_BUILDING_BLOCKS = frozenset(
    {
        "solve_single_antenna_fractional",  # inner step of `splittable`
        "solve_sector_splittable",  # fixed-orientation LP used by analysis
    }
)


@dataclass(frozen=True)
class SolveContext:
    """Everything a solver factory may consume besides the instance.

    ``oracle`` is prebuilt from ``eps`` by the engine (fptas below 1.0,
    exact at 1.0) so every spec shares one oracle policy; ``seed`` feeds
    randomized solvers (lp-round, online arrival order).  ``compiled`` is
    the instance's shared :class:`~repro.core.compiled.CompiledInstance`
    view (or :class:`~repro.core.compiled.CompiledItems` for the knapsack
    family), resolved by the engine via
    :func:`repro.engine.cache.shared_compiled`; ``None`` lets each solver
    fall back to the per-object ``instance.compile()`` memo.
    """

    eps: float = 1.0
    seed: int = 0
    oracle: Any = None
    compiled: Any = None


@dataclass(frozen=True)
class SolverSpec:
    """Declarative description of one registered solver.

    Attributes
    ----------
    name / family:
        Registry key; ``(family, name)`` is unique.
    run:
        ``run(instance, ctx: SolveContext) -> result``.  The result type
        is family-specific (AngleSolution, SectorSolution, CoverResult,
        KnapsackResult, AnytimeOutcome, online stats dict); the engine
        normalizes it into a SolveReport.
    variant:
        ``overlap`` | ``disjoint`` | ``fractional`` | ``-`` (not an
        angle-packing variant, e.g. knapsack or online).
    exact:
        True when the solver returns a certified optimum (given an exact
        oracle and enough time).
    guarantee:
        Human-readable approximation label for tables (e.g. ``b/(1+b)``).
    guarantee_fn:
        Maps the oracle factor beta to the solver's overall factor; None
        when no worst-case multiplicative guarantee is claimed.
    supports_eps / supports_budget:
        Whether eps changes the outcome and whether the solver checkpoints
        cooperatively against an ambient resilience Budget.
    complexity:
        ``poly`` or ``exponential`` — the planner refuses exponential
        specs under tight deadlines and on large instances.
    uses:
        Names of :mod:`repro.packing` exports this spec covers, consumed
        by the registry completeness check.
    partitionable:
        Whether the solver's answers survive the reach-component
        decomposition of :mod:`repro.engine.partition` — i.e. running it
        per component and concatenating yields a feasible solution of
        the whole instance.  Only meaningful for sector solvers whose
        work is local to a station's reach; the planner's
        :func:`repro.engine.planner.plan_partition` consults this column.
        Contract: ``docs/SCALE.md``.
    accepts:
        ``accepts(instance) -> None | str``: None when applicable, else a
        one-line rejection reason (wrong k, heterogeneous antennas, ...).
    """

    name: str
    family: str
    run: Callable[[Any, SolveContext], Any]
    variant: str = "overlap"
    exact: bool = False
    guarantee: str = "heuristic"
    guarantee_fn: Optional[Callable[[float], float]] = None
    supports_eps: bool = True
    supports_budget: bool = False
    complexity: str = "poly"
    uses: Tuple[str, ...] = ()
    partitionable: bool = False
    accepts: Optional[Callable[[Any], Optional[str]]] = None
    description: str = ""

    def rejects(self, instance: Any) -> Optional[str]:
        """None when the spec applies to ``instance``, else the reason."""
        return self.accepts(instance) if self.accepts is not None else None


_REGISTRY: Dict[Tuple[str, str], SolverSpec] = {}


def register(spec: SolverSpec) -> SolverSpec:
    """Register a spec under ``(family, name)``; returns it (decorator-friendly)."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r} (know {FAMILIES})")
    key = (spec.family, spec.name)
    if key in _REGISTRY:
        raise ValueError(f"duplicate solver spec {key}")
    _REGISTRY[key] = spec
    return spec


def get_spec(family: str, name: str) -> SolverSpec:
    """Look up a registered spec; raises ``KeyError`` naming the options."""
    try:
        return _REGISTRY[(family, name)]
    except KeyError:
        known = ", ".join(sorted(s.name for s in specs(family))) or "<none>"
        raise KeyError(
            f"no solver {name!r} in family {family!r} (know: {known})"
        ) from None


def specs(family: Optional[str] = None) -> List[SolverSpec]:
    """All registered specs (optionally one family), in registration order."""
    return [s for s in _REGISTRY.values() if family is None or s.family == family]


def solver_names(family: str) -> List[str]:
    """Registered algorithm names for one family, registration order."""
    return [s.name for s in specs(family)]


# ======================================================================
# Built-in specs.  All solver imports happen lazily inside run/accepts:
# repro.packing's package __init__ may be mid-import when the engine
# loads, and the registry itself must stay importable from anywhere.
# ======================================================================
def _is_angle(instance) -> Optional[str]:
    from repro.model.instance import AngleInstance

    if not isinstance(instance, AngleInstance):
        return "angle instances only"
    return None


def _is_sector(instance) -> Optional[str]:
    from repro.model.instance import SectorInstance

    if not isinstance(instance, SectorInstance):
        return "sector instances only"
    return None


def _angle_uniform(instance) -> Optional[str]:
    reason = _is_angle(instance)
    if reason:
        return reason
    if not instance.has_uniform_antennas:
        return "requires identical antennas"
    return None


def _angle_small_masks(instance) -> Optional[str]:
    reason = _is_angle(instance)
    if reason:
        return reason
    if instance.k > 12 and not instance.has_uniform_antennas:
        return "heterogeneous DP needs k <= 12 (bitmask state)"
    return None


def _angle_single(instance) -> Optional[str]:
    reason = _is_angle(instance)
    if reason:
        return reason
    if instance.k != 1:
        return "single-antenna solver needs k == 1"
    return None


def _beta_identity(beta: float) -> float:
    return beta


def _beta_greedy(beta: float) -> float:
    return beta / (1.0 + beta)


def _run_greedy(instance, ctx):
    from repro.packing import solve_greedy_multi

    return solve_greedy_multi(instance, ctx.oracle, compiled=ctx.compiled)


def _run_adaptive(instance, ctx):
    from repro.packing import solve_greedy_multi

    return solve_greedy_multi(
        instance, ctx.oracle, adaptive=True, compiled=ctx.compiled
    )


def _run_greedy_ls(instance, ctx):
    from repro.packing import improve_solution, solve_greedy_multi

    base = solve_greedy_multi(instance, ctx.oracle, compiled=ctx.compiled)
    return improve_solution(instance, base, ctx.oracle, compiled=ctx.compiled)


def _run_dp_disjoint(instance, ctx):
    from repro.packing import solve_non_overlapping_dp

    # The candidate grid comes from the compiled view (shared process-wide
    # when the engine resolved ctx.compiled via shared_compiled).
    return solve_non_overlapping_dp(instance, ctx.oracle, compiled=ctx.compiled)


def _run_shifting(instance, ctx):
    from repro.packing import solve_shifting

    return solve_shifting(instance, ctx.oracle, compiled=ctx.compiled)


def _run_insertion(instance, ctx):
    from repro.packing import solve_insertion

    return solve_insertion(instance, ctx.oracle, compiled=ctx.compiled)


def _run_lp_round(instance, ctx):
    from repro.packing import solve_lp_rounding

    return solve_lp_rounding(
        instance, ctx.oracle, seed=ctx.seed, compiled=ctx.compiled
    )


def _run_exact_angle(instance, ctx):
    from repro.packing import solve_exact_angle

    return solve_exact_angle(instance, compiled=ctx.compiled)


def _run_exact_anytime(instance, ctx):
    # budget=None: picks up the ambient Budget the engine activated (or
    # runs to completion when none is active).
    from repro.packing.exact import solve_exact_anytime

    return solve_exact_anytime(instance, budget=None, compiled=ctx.compiled)


def _run_single(instance, ctx):
    from repro.packing import solve_single_antenna

    return solve_single_antenna(instance, ctx.oracle, compiled=ctx.compiled)


def _run_splittable(instance, ctx):
    # Orientation profile from the greedy pass, then the exact splittable
    # optimum (max-flow / LP) for those orientations.
    from repro.packing import solve_greedy_multi, solve_splittable

    plan = solve_greedy_multi(
        instance, ctx.oracle, adaptive=True, compiled=ctx.compiled
    )
    return solve_splittable(instance, plan.orientations)


def _run_sector_greedy(instance, ctx):
    from repro.packing import solve_sector_greedy

    return solve_sector_greedy(instance, ctx.oracle, compiled=ctx.compiled)


def _run_sector_greedy_ls(instance, ctx):
    from repro.packing import improve_sector_solution, solve_sector_greedy

    base = solve_sector_greedy(instance, ctx.oracle, compiled=ctx.compiled)
    return improve_sector_solution(
        instance, base, ctx.oracle, compiled=ctx.compiled
    )


def _run_sector_independent(instance, ctx):
    from repro.packing import solve_sector_independent

    return solve_sector_independent(
        instance, ctx.oracle, compiled=ctx.compiled
    )


def _run_sector_exact(instance, ctx):
    from repro.packing import solve_exact_sector

    return solve_exact_sector(instance, compiled=ctx.compiled)


def _run_greedy_cover(instance, ctx):
    from repro.packing import cover_instance

    return cover_instance(instance, ctx.oracle, compiled=ctx.compiled)


def _knapsack_triple(payload) -> Optional[str]:
    if not (isinstance(payload, (tuple, list)) and len(payload) == 3):
        return "knapsack solvers take (weights, profits, capacity)"
    return None


def _make_knapsack_run(solver_name: str):
    def run(payload, ctx):
        from repro.knapsack import get_solver

        weights, profits, capacity = payload
        kwargs = {"eps": ctx.eps if ctx.eps < 1.0 else 0.5} if solver_name == "fptas" else {}
        solver = get_solver(solver_name, **kwargs)
        return solver.solve(
            np.asarray(weights, dtype=np.float64),
            np.asarray(profits, dtype=np.float64),
            float(capacity),
            compiled=ctx.compiled,
        )

    return run


def _make_online_run(policy_name: str):
    def run(instance, ctx):
        from repro.online import OnlineAdmission, replay_offline_reference
        from repro.packing import solve_greedy_multi

        plan = solve_greedy_multi(
            instance, ctx.oracle, adaptive=True, compiled=ctx.compiled
        )
        rng = np.random.default_rng(ctx.seed)
        order = rng.permutation(instance.n)
        thetas = instance.thetas[order]
        demands = instance.demands[order]
        sim = OnlineAdmission(instance.antennas, plan.orientations, policy=policy_name)
        accepted = sim.run(thetas, demands)
        offline = replay_offline_reference(
            instance.antennas, plan.orientations, thetas, demands
        )
        return {
            "value": float(accepted),
            "offline_reference": float(offline),
            "competitive": float(accepted / offline) if offline > 0 else 1.0,
            "rejected": int(sim.rejected_count),
            "orientations": plan.orientations.copy(),
        }

    return run


def _register_builtin() -> None:
    # ---- angle ------------------------------------------------------
    register(SolverSpec(
        name="greedy", family="angle", run=_run_greedy,
        guarantee="b/(1+b)", guarantee_fn=_beta_greedy, supports_budget=True,
        uses=("solve_greedy_multi",),
        accepts=_is_angle,
        description="separable-assignment greedy, one knapsack per antenna",
    ))
    register(SolverSpec(
        name="adaptive", family="angle", run=_run_adaptive,
        guarantee="b/(1+b)", guarantee_fn=_beta_greedy, supports_budget=True,
        uses=("solve_greedy_multi",),
        accepts=_is_angle,
        description="greedy re-evaluating every remaining antenna each round",
    ))
    register(SolverSpec(
        name="greedy+ls", family="angle", run=_run_greedy_ls,
        guarantee="b/(1+b) + polish", guarantee_fn=_beta_greedy,
        supports_budget=True,
        uses=("solve_greedy_multi", "improve_solution"),
        accepts=_is_angle,
        description="greedy followed by monotone local search",
    ))
    register(SolverSpec(
        name="dp-disjoint", family="angle", run=_run_dp_disjoint,
        variant="disjoint", guarantee="b (vs disjoint OPT)",
        guarantee_fn=_beta_identity, supports_budget=True,
        uses=("solve_non_overlapping_dp",),
        accepts=_angle_small_masks,
        description="exact-window DP for the non-overlapping variant",
    ))
    register(SolverSpec(
        name="shifting", family="angle", run=_run_shifting,
        variant="disjoint", guarantee="b(1 - rho/2pi - 1/t)",
        supports_budget=True,
        uses=("solve_shifting",),
        accepts=_angle_uniform,
        description="best-of-t-cuts shifted linear DP (identical antennas)",
    ))
    register(SolverSpec(
        name="insertion", family="angle", run=_run_insertion,
        variant="disjoint", guarantee="heuristic",
        uses=("solve_insertion",),
        accepts=_angle_uniform,
        description="conflict-greedy window insertion (identical antennas)",
    ))
    register(SolverSpec(
        name="lp-round", family="angle", run=_run_lp_round,
        guarantee="(1-1/e)b in expectation",
        uses=("solve_lp_rounding", "lp_upper_bound"),
        accepts=_is_angle,
        description="randomized rounding of the configuration LP",
    ))
    register(SolverSpec(
        name="exact", family="angle", run=_run_exact_angle,
        exact=True, guarantee="optimal", supports_eps=False,
        supports_budget=True, complexity="exponential",
        uses=("solve_exact_angle", "solve_exact_fixed_orientations"),
        accepts=_is_angle,
        description="orientation enumeration + branch-and-bound assignment",
    ))
    register(SolverSpec(
        name="exact-anytime", family="angle", run=_run_exact_anytime,
        exact=True, guarantee="optimal (certified bounds under budget)",
        supports_eps=False, supports_budget=True, complexity="exponential",
        uses=("solve_exact_anytime",),
        accepts=_is_angle,
        description="budget-bounded exact search, greedy-seeded incumbent",
    ))
    register(SolverSpec(
        name="single", family="angle", run=_run_single,
        guarantee="b", guarantee_fn=_beta_identity,
        uses=("solve_single_antenna", "best_rotation", "canonical_starts"),
        accepts=_angle_single,
        description="rotation search for the one-antenna case",
    ))
    register(SolverSpec(
        name="splittable", family="angle", run=_run_splittable,
        variant="fractional", guarantee="optimal for fixed orientations",
        uses=("solve_splittable", "splittable_value", "best_rotation_fractional"),
        accepts=_is_angle,
        description="greedy orientations + exact splittable flow/LP",
    ))

    # ---- sector -----------------------------------------------------
    register(SolverSpec(
        name="greedy", family="sector", run=_run_sector_greedy,
        guarantee="b/(1+b)", guarantee_fn=_beta_greedy, supports_budget=True,
        uses=("solve_sector_greedy",),
        partitionable=True,
        accepts=_is_sector,
        description="global greedy over every antenna of every station",
    ))
    register(SolverSpec(
        name="greedy+ls", family="sector", run=_run_sector_greedy_ls,
        guarantee="b/(1+b) + polish", guarantee_fn=_beta_greedy,
        supports_budget=True,
        uses=("solve_sector_greedy", "improve_sector_solution"),
        partitionable=True,
        accepts=_is_sector,
        description="sector greedy followed by monotone local search",
    ))
    register(SolverSpec(
        name="independent", family="sector", run=_run_sector_independent,
        guarantee="heuristic baseline",
        uses=("solve_sector_independent",),
        partitionable=True,
        accepts=_is_sector,
        description="nearest-station partition, independent 1-D solves",
    ))
    register(SolverSpec(
        name="exact", family="sector", run=_run_sector_exact,
        exact=True, guarantee="optimal", supports_eps=False,
        complexity="exponential",
        uses=("solve_exact_sector", "solve_exact_sector_single"),
        accepts=_is_sector,
        description="per-antenna orientation enumeration + exact assignment",
    ))

    # ---- covering ---------------------------------------------------
    register(SolverSpec(
        name="greedy-cover", family="covering", run=_run_greedy_cover,
        guarantee="O(OPT log(D/d_min))",
        uses=("greedy_cover", "cover_instance", "cover_lower_bound",
              "verify_cover"),
        accepts=_is_angle,
        description="greedy set cover over single-antenna packings",
    ))

    # ---- knapsack ---------------------------------------------------
    for kname, kguar, kexact in (
        ("exact", "optimal", True),
        ("fptas", "1-eps", False),
        ("greedy", "1/2", False),
    ):
        register(SolverSpec(
            name=kname, family="knapsack", run=_make_knapsack_run(kname),
            variant="-", exact=kexact, guarantee=kguar,
            supports_eps=(kname == "fptas"),
            complexity="exponential" if kname == "exact" else "poly",
            accepts=_knapsack_triple,
            description=f"inner knapsack oracle ({kname})",
        ))

    # ---- online -----------------------------------------------------
    for pname in ("first_fit", "best_fit", "worst_fit"):
        register(SolverSpec(
            name=pname, family="online", run=_make_online_run(pname),
            variant="-", guarantee="(1-d)/(2-d) work-conserving floor",
            uses=("solve_greedy_multi",),
            accepts=_is_angle,
            description=f"streaming admission under the {pname} policy",
        ))


_register_builtin()


# ======================================================================
# Completeness + smoke checks (wired into scripts/smoke.sh)
# ======================================================================
def check_registry() -> List[str]:
    """Return a list of completeness problems (empty = healthy).

    * every ``solve_*`` export of :mod:`repro.packing` — plus the named
      improvement/covering entry points — must appear in some registered
      spec's ``uses`` or in the building-block exemption list;
    * every :data:`repro.knapsack.api.KNAPSACK_SOLVERS` name must be a
      registered ``knapsack`` spec and vice versa;
    * every :data:`repro.online.admission.POLICIES` name must be a
      registered ``online`` spec.
    """
    import repro.packing as packing
    from repro.knapsack.api import KNAPSACK_SOLVERS
    from repro.online.admission import POLICIES

    problems: List[str] = []

    targets = {n for n in packing.__all__ if n.startswith("solve_")}
    targets |= {"improve_solution", "improve_sector_solution",
                "greedy_cover", "cover_instance"}
    covered = set(_BUILDING_BLOCKS)
    for spec in specs():
        covered |= set(spec.uses)
    for name in sorted(targets - covered):
        problems.append(
            f"packing export {name!r} is not claimed by any SolverSpec.uses "
            f"(register it or add it to the building-block list)"
        )
    for name in sorted(covered - _BUILDING_BLOCKS - set(dir(packing))):
        if not hasattr(packing, name):
            problems.append(f"SolverSpec.uses names unknown export {name!r}")

    knap_registered = set(solver_names("knapsack"))
    for name in sorted(set(KNAPSACK_SOLVERS) - knap_registered):
        problems.append(f"knapsack oracle {name!r} is not registered")
    for name in sorted(knap_registered - set(KNAPSACK_SOLVERS)):
        problems.append(f"registered knapsack spec {name!r} has no oracle")

    online_registered = set(solver_names("online"))
    for name in sorted(set(POLICIES) - online_registered):
        problems.append(f"online policy {name!r} is not registered")

    return problems


def smoke_check(seed: int = 0) -> List[str]:
    """Run every registered solver on a tiny instance; return failures.

    Each applicable spec must produce a result the engine can value.
    Exponential specs get the same tiny instances, so this stays fast
    (< a few seconds) and suitable for CI.
    """
    from repro.engine.core import SolveRequest, solve
    from repro.model.generators import grid_city, uniform_angles

    angle = uniform_angles(n=8, k=2, seed=seed)
    sector = grid_city(n=8, seed=seed)
    # Covering needs every demand to fit one antenna: loosen the capacity.
    cover = uniform_angles(n=8, k=2, capacity_fraction=0.6, seed=seed)
    knap = (angle.demands, angle.profits, float(angle.antennas[0].capacity))
    payloads = {"angle": angle, "sector": sector, "covering": cover,
                "knapsack": knap, "online": angle}

    failures: List[str] = []
    for spec in specs():
        if spec.family == "angle" and spec.name == "single":
            payload = uniform_angles(n=6, k=1, seed=seed)
        else:
            payload = payloads[spec.family]
        if spec.rejects(payload) is not None:
            continue
        try:
            report = solve(SolveRequest(
                instance=payload, family=spec.family, algorithm=spec.name,
                eps=0.5 if spec.supports_eps else 1.0, use_cache=False,
            ))
            if report.error is not None:
                failures.append(f"{spec.family}/{spec.name}: {report.error}")
        except Exception as exc:  # noqa: BLE001 - smoke surface, report all
            failures.append(f"{spec.family}/{spec.name}: {type(exc).__name__}: {exc}")
    return failures
