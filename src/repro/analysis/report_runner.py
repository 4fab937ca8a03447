"""One-shot evaluation report: regenerate the EXPERIMENTS.md headline rows.

``repro-sectors report`` (or :func:`run_report`) runs a compact version of
every experiment E1–E12 (except the retired E8) and prints the same
tables EXPERIMENTS.md records, so a user can re-verify the claimed
shapes on their machine in about a minute.  The heavy per-experiment
sweeps live in ``benchmarks/``; this runner trades statistical depth for
wall-clock friendliness.
"""

from __future__ import annotations

import math
import time
from typing import List

import numpy as np

from repro.analysis.metrics import geometric_mean
from repro.analysis.tables import format_table
from repro.geometry.angles import TWO_PI
from repro.knapsack import get_solver
from repro.model import generators as gen
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.packing.bounds import capacity_upper_bound
from repro.packing.covering import greedy_cover
from repro.packing.exact import (
    solve_exact_angle,
    solve_exact_fixed_orientations,
)
from repro.packing.flow import splittable_value
from repro.packing.insertion import solve_insertion
from repro.packing.multi import solve_greedy_multi, solve_non_overlapping_dp
from repro.packing.sectors import (
    solve_sector_greedy,
    solve_sector_independent,
    solve_sector_splittable,
)
from repro.packing.shifting import solve_shifting
from repro.packing.single import solve_single_antenna
from repro.online import (
    OnlineAdmission,
    POLICIES,
    replay_offline_reference,
    work_conserving_bound,
)

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")
NEAR_EXACT = get_solver("fptas", eps=0.05)


def _println(out: List[str], text: str = "") -> None:
    out.append(text)


def _e1(out: List[str], seeds: int) -> None:
    fams = {
        "uniform": gen.uniform_angles,
        "clustered": gen.clustered_angles,
        "hotspot": gen.hotspot_angles,
    }
    rows = []
    for fam, fn in fams.items():
        insts = [fn(n=9, k=2, seed=s) for s in range(seeds)]
        opts = [solve_exact_angle(i).value(i) for i in insts]
        ratios = [
            solve_greedy_multi(i, EXACT).value(i) / o
            for i, o in zip(insts, opts)
        ]
        rows.append([fam, min(ratios), geometric_mean(ratios), 0.5])
    adv = [gen.adversarial_greedy_angles(blocks=3, seed=s) for s in range(seeds)]
    aopts = [solve_exact_angle(i).value(i) for i in adv]
    aratios = [
        solve_greedy_multi(i, GREEDY).value(i) / o for i, o in zip(adv, aopts)
    ]
    rows.append(["adversarial (greedy oracle)", min(aratios),
                 geometric_mean(aratios), 1.0 / 3.0])
    _println(out, format_table(
        ["family", "min ratio", "geo ratio", "proven bound"],
        rows, title="E1  approximation ratio vs exact optimum",
    ))


def _e2(out: List[str]) -> None:
    rows = []
    for n in (50, 100, 200):
        inst = gen.clustered_angles(n=n, k=3, seed=11)
        t0 = time.perf_counter()
        solve_greedy_multi(inst, GREEDY)
        tg = time.perf_counter() - t0
        t0 = time.perf_counter()
        solve_shifting(inst, GREEDY, t=8)
        ts = time.perf_counter() - t0
        t0 = time.perf_counter()
        solve_insertion(inst, GREEDY)
        ti = time.perf_counter() - t0
        rows.append([n, tg * 1e3, ts * 1e3, ti * 1e3])
    _println(out, format_table(
        ["n", "greedy (ms)", "shifting (ms)", "insertion (ms)"],
        rows, float_fmt=".1f", title="E2  runtime scaling",
    ))


def _e3_e4(out: List[str]) -> None:
    rows = []
    for rho in (math.pi / 6, math.pi / 2, math.pi):
        inst = gen.clustered_angles(
            n=80, k=3, rho=rho, clusters=5, capacity_fraction=0.2, seed=21
        )
        v = solve_greedy_multi(inst, NEAR_EXACT, adaptive=True).value(inst)
        d = solve_non_overlapping_dp(inst, GREEDY).value(inst)
        rows.append([f"{rho:.2f}", v, d, capacity_upper_bound(inst)])
    _println(out, format_table(
        ["rho", "greedy", "disjoint DP", "capacity UB"],
        rows, title="E3  beam width sweep",
    ))
    rows = []
    for cf in (0.05, 0.2, 0.5):
        inst = gen.uniform_angles(n=70, k=3, capacity_fraction=cf, seed=33)
        v = solve_greedy_multi(inst, NEAR_EXACT, adaptive=True).value(inst)
        rows.append([cf, v / inst.total_demand])
    _println(out)
    _println(out, format_table(
        ["capacity fraction", "served fraction"],
        rows, title="E4  capacity tightness",
    ))


def _e5(out: List[str], seeds: int) -> None:
    rows = []
    for seed in range(seeds):
        inst = gen.hotspot_angles(n=10, k=2, seed=seed)
        free = solve_exact_angle(inst).value(inst)
        disj = solve_exact_angle(inst, require_disjoint=True).value(inst)
        rows.append([seed, free, disj, disj / free])
    _println(out, format_table(
        ["seed", "overlap OPT", "disjoint OPT", "ratio"],
        rows, title="E5  price of non-overlap (hotspot family)",
    ))


def _e6(out: List[str]) -> None:
    rows = []
    for scale in (1.0, 0.25):
        gaps = []
        for s in range(3):
            rng = np.random.default_rng(s)
            inst = AngleInstance(
                thetas=rng.uniform(0, TWO_PI, 12),
                demands=rng.uniform(0.5, 1.5, 12) * scale,
                antennas=(
                    AntennaSpec(rho=2.0, capacity=3.0),
                    AntennaSpec(rho=2.0, capacity=3.0),
                ),
            )
            ori = np.array([0.0, 2.5])
            sp = splittable_value(inst, ori)
            it = solve_exact_fixed_orientations(inst, ori).value(inst)
            gaps.append(0.0 if sp <= 0 else (sp - it) / sp)
        rows.append([scale, float(np.mean(gaps)), float(max(gaps))])
    _println(out, format_table(
        ["demand scale", "mean gap", "max gap"],
        rows, title="E6  splittable vs unsplittable",
    ))


def _e7(out: List[str]) -> None:
    inst = gen.subset_sum_angles(n=40, k=1, rho=2.0, seed=5)
    opt = solve_single_antenna(inst, EXACT).value(inst)
    rows = []
    for eps in (0.5, 0.1):
        v = solve_single_antenna(inst, get_solver("fptas", eps=eps)).value(inst)
        rows.append([eps, v / opt, 1 - eps])
    _println(out, format_table(
        ["eps", "measured ratio", "guarantee"],
        rows, title="E7  FPTAS trade-off",
    ))


def _e9(out: List[str], seeds: int) -> None:
    rows = []
    for seed in range(seeds):
        inst = gen.grid_city(n=100, grid=2, capacity_fraction=0.05, seed=seed)
        g = solve_sector_greedy(inst, NEAR_EXACT)
        b = solve_sector_independent(inst, NEAR_EXACT).value(inst)
        _, ub = solve_sector_splittable(inst, g.orientations)
        rows.append([seed, g.value(inst), b, ub])
    _println(out, format_table(
        ["seed", "global greedy", "baseline", "splittable UB"],
        rows, title="E9  2-D sector pipeline (2x2 grid)",
    ))


def _e10(out: List[str]) -> None:
    inst = gen.clustered_angles(n=40, k=3, capacity_fraction=0.15, seed=0)
    ref = solve_non_overlapping_dp(inst, EXACT).value(inst)
    rows = []
    for t in (2, 8, 32):
        v = solve_shifting(inst, EXACT, t=t).value(inst)
        rows.append([t, v, (ref - v) / ref])
    ins = solve_insertion(inst, EXACT).value(inst)
    rows.append(["insertion", ins, (ref - ins) / ref])
    _println(out, format_table(
        ["t / heuristic", "value", "loss vs DP"],
        rows, title=f"E10/A4  disjoint heuristics (DP ref {ref:.3f})",
    ))


def _e11(out: List[str], seeds: int) -> None:
    rows = []
    for seed in range(seeds):
        inst = gen.clustered_angles(n=40, k=1, capacity_fraction=0.15, seed=seed)
        res = greedy_cover(inst.thetas, inst.demands, inst.antennas[0], GREEDY)
        rows.append([seed, res.antennas_used, res.lower_bound, res.gap()])
    _println(out, format_table(
        ["seed", "antennas used", "lower bound", "gap"],
        rows, title="E11  dual covering",
    ))


def _e12(out: List[str]) -> None:
    ants = [AntennaSpec(rho=2.2, capacity=4.0) for _ in range(3)]
    oris = [0.0, 2.1, 4.2]
    rows = []
    for lo, hi in ((0.8, 2.0), (0.1, 0.3)):
        per_policy = {}
        floor = 0.0
        for name in sorted(POLICIES):
            vals = []
            for s in range(3):
                rng = np.random.default_rng(s)
                th = rng.uniform(0, TWO_PI, 50)
                d = rng.uniform(lo, hi, 50)
                floor = work_conserving_bound(ants, d)
                sim = OnlineAdmission(ants, oris, policy=name)
                on = sim.run(th, d)
                off = replay_offline_reference(ants, oris, th, d)
                vals.append(on / off if off > 0 else 1.0)
            per_policy[name] = float(np.mean(vals))
        rows.append(
            [f"U({lo},{hi})", floor]
            + [per_policy[n] for n in sorted(POLICIES)]
        )
    _println(out, format_table(
        ["demands", "floor"] + sorted(POLICIES),
        rows, title="E12  online admission",
    ))


def run_report(seeds: int = 3, quick: bool = False) -> str:
    """Run the compact evaluation and return the report text.

    ``quick=True`` limits to the fast experiments (skips E1/E5 exact
    solves), for smoke checks.
    """
    out: List[str] = []
    start = time.perf_counter()
    _println(out, "packing-to-angles-and-sectors: evaluation report")
    _println(out, "=" * 50)
    _println(out)
    if not quick:
        _e1(out, seeds)
        _println(out)
    _e2(out)
    _println(out)
    _e3_e4(out)
    _println(out)
    if not quick:
        _e5(out, seeds)
        _println(out)
    _e6(out)
    _println(out)
    _e7(out)
    _println(out)
    _e9(out, min(seeds, 2))
    _println(out)
    _e10(out)
    _println(out)
    _e11(out, seeds)
    _println(out)
    _e12(out)
    _println(out)
    _println(out, f"report generated in {time.perf_counter() - start:.1f}s")
    return "\n".join(out)
