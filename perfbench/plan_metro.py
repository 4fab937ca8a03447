"""plan-metro: batch planning of one constrained metro instance per op.

A closed loop in the benchmark process: each op is one ``engine.solve``
of a fresh ``scenario_metro_blockage`` instance (n = 2·10⁴, 8 towns, one
blockage segment per town: 16 stations, 32 antennas).  The engine splits
it into 8 reach components, fans the parts out over the process pool,
merges and verifies.  No service and no cache is involved.

The traced phase makes the very same ``engine.solve`` call, with a span
around it and around each public call the partitioned strategy makes
(``partition_instance``, ``solve_many``, ``merge_partial_solutions``,
``SectorSolution.verify``).  After each plan it replays ``compile`` and
``compose_station_masks`` on the parts, which the pool workers run out
of sight.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional

from lib import (SOLVE_OPTIONS, BenchError, CpuProbe, Phase, Tracer,
                 check_bounds, median, require)
from repro.core.compiled import compile_instance
from repro.engine import SolveRequest, partition_instance, solve
from repro.engine import core
from repro.engine import partition as partition_module
from repro.model import generators
from repro.model.constraints import compose_station_masks
from repro.model.solution import SectorSolution

N = 20_000
TOWNS = 8
PARTS = 8
#: Each antenna's capacity as a share of total demand.  Above every
#: town's share (at most ~0.37 for 8 Zipf towns), so no sector window is
#: capacity-bound.  At the family default of 0.2 about 1 instance in 80
#: has a capacity-bound window in its largest town, where sector greedy
#: runs the FPTAS oracle per window for minutes (README.md, "Known cliff").
CAPACITY_FRACTION = 0.5
#: Set-ups per run; ``setup_s`` is their median.  One set-up is one plan.
SETUP_REPEATS = 7
#: The traced phase records its spans while it plans, so a traced run
#: measures an untraced half and a traced half.
TRACES_IN_PHASE = True


@dataclass
class Ctx:
    seed: int
    setup_parts: Dict[str, float]
    drawn: int = 0


def _instance(seed: int, stream: int, i: int):
    return generators.scenario_metro_blockage(
        n=N, towns=TOWNS, segments_per_town=1,
        capacity_fraction=CAPACITY_FRACTION, seed=[seed, stream, i])


def setup(seed: int, seconds: float) -> Ctx:
    t0 = time.perf_counter()
    instance = _instance(seed, 8, 0)
    t1 = time.perf_counter()
    solve(SolveRequest(instance=instance, **SOLVE_OPTIONS))
    return Ctx(seed, {"inputs_s": t1 - t0,
                      "warmup_s": time.perf_counter() - t1})


def teardown(ctx: Ctx) -> None:
    pass


@contextmanager
def _spans_around_public_calls(tracer: Tracer, op: int, part_solve_s: list):
    """Record a span around each public call the partitioned strategy makes.

    For the length of the block, ``partition_instance``,
    ``merge_partial_solutions``, ``solve_many`` and ``SectorSolution.verify``
    are replaced by wrappers that time the original inside a span; the sum
    of the part solves' ``seconds`` is appended to ``part_solve_s``.
    """
    def wrap(fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, op):
                return fn(*args, **kwargs)
        return traced

    fanout = wrap(core.solve_many, "parallel.pool.fanout")

    def solve_many_traced(*args, **kwargs):
        reports = fanout(*args, **kwargs)
        part_solve_s.append(sum(r.seconds for r in reports))
        return reports

    targets = [
        (partition_module, "partition_instance",
         wrap(partition_module.partition_instance, "engine.partition.partition")),
        (partition_module, "merge_partial_solutions",
         wrap(partition_module.merge_partial_solutions, "engine.partition.merge")),
        (core, "solve_many", solve_many_traced),
        (SectorSolution, "verify",
         wrap(SectorSolution.verify, "model.solution.verify")),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for owner, attr, wrapper in targets:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _replay_part_layers(parts, tracer: Tracer, op: int) -> None:
    """Replay ``compile`` and ``compose_station_masks`` on a plan's parts.

    The pool workers run both out of sight; the replays come after the
    plan and are not part of its time.
    """
    with tracer.span("core.compiled.compile", op):
        views = [compile_instance(part.sub) for part in parts]
        for view in views:
            view.ensure_stations()
    for backend in ("python", "numpy"):
        with tracer.span(f"model.constraints.compose_{backend}", op):
            for view, part in zip(views, parts):
                compose_station_masks(
                    part.sub, [view.station(s).rs for s in range(part.sub.m)],
                    backend=backend)


def phase(ctx: Ctx, seconds: float,
          tracer: Optional[Tracer] = None) -> Phase:
    """Plan until ``seconds`` of planning wall time have been spent.

    Drawing, verifying and bounding each instance happen between plans
    and are not counted.
    """
    probe = CpuProbe()
    latencies: List[float] = []
    plans: List[dict] = []
    busy = 0.0
    while busy < seconds:
        op = ctx.drawn
        instance = _instance(ctx.seed, 7, op)
        ctx.drawn += 1
        record = {"op": op, "n": instance.n}
        request = SolveRequest(instance=instance, **SOLVE_OPTIONS)
        part_solve_s: List[float] = []
        t0 = time.perf_counter()
        try:
            if tracer is None:
                report = solve(request)
            else:
                with _spans_around_public_calls(tracer, op, part_solve_s), \
                        tracer.span("plan", op):
                    report = solve(request)
            solution, value = report.solution, report.value
        except Exception as exc:  # noqa: BLE001 - a failed plan is recorded
            record["error"] = f"{type(exc).__name__}: {exc}"
            solution = None
        elapsed = time.perf_counter() - t0
        busy += elapsed
        latencies.append(elapsed if solution is not None else float("inf"))
        if solution is not None:
            try:
                solution.verify(instance)
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                raise BenchError(f"plan {op} fails verify: {exc}") from exc
            partition = partition_instance(instance)
            record.update(value=value, bound=partition.upper_bound,
                          parts=len(partition.parts),
                          unreachable=partition.unreachable,
                          part_solve_s=sum(part_solve_s))
            if tracer is not None:
                _replay_part_layers(partition.parts, tracer, op)
        plans.append(record)
    return Phase(latencies, busy, {"plans": plans, "env": probe.read()})


def check(ctx: Ctx, phases: List[Phase]) -> None:
    for p in phases:
        plans = p.data["plans"]
        for r in plans:
            require("error" not in r, f"plan {r['op']} failed: {r.get('error')}")
            require(r["n"] == N and r["parts"] == PARTS,
                    f"plan {r['op']}: n={r['n']} parts={r['parts']}, "
                    f"want n={N} parts={PARTS}")
        check_bounds([r["value"] for r in plans], [r["bound"] for r in plans])


def end_to_end(ctx: Ctx, result: Phase) -> Dict[str, float]:
    plans = result.data["plans"]
    return result.end_to_end(sum(r["value"] for r in plans)
                             / sum(r["bound"] for r in plans))


def per_layer(ctx: Ctx, result: Phase, tracer: Tracer) -> Dict[str, float]:
    plans = result.data["plans"]
    values = {name + "_ms": tracer.layer_ms(name) for name in (
        "core.compiled.compile", "model.constraints.compose_python",
        "model.constraints.compose_numpy", "engine.partition.partition",
        "parallel.pool.fanout", "engine.partition.merge",
        "model.solution.verify")}
    values.update({
        "plan.unaccounted_ms": tracer.layer_ms("plan"),
        "engine.part_solve_sum_ms": 1e3 * median(r["part_solve_s"] for r in plans),
        "engine.partition.parts": median(r["parts"] for r in plans),
        "engine.partition.unreachable": median(r["unreachable"] for r in plans),
        "engine.partition.merge_gap": median(
            (r["bound"] - r["value"]) / r["value"] for r in plans),
        "env.cpu_steal_pct": result.data["env"]["cpu_steal_pct"],
        "env.other_cpu_pct": result.data["env"]["other_cpu_pct"],
    })
    return values
