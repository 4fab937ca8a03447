"""Integration tests: multi-module pipelines end to end."""

import numpy as np
import pytest

from repro import (
    AngleInstance,
    AntennaSpec,
    Customer,
    Station,
    get_solver,
    improve_solution,
    load_instance,
    save_instance,
    solve_exact_angle,
    solve_greedy_multi,
    solve_sector_greedy,
)
from repro.analysis.experiments import SolverSpec, ratio_study, report
from repro.analysis.stats import instance_stats
from repro.analysis.viz import render_loads, render_solution
from repro.model import generators as gen
from repro.model.serialization import (
    load_solution,
    save_solution,
)
from repro.online import OnlineAdmission, replay_offline_reference
from repro.packing.covering import cover_instance, verify_cover
from repro.packing.sectors import improve_sector_solution, solve_sector_splittable
from repro.parallel import parallel_map

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")


class TestFilePipeline:
    def test_generate_save_load_solve_save_load_verify(self, tmp_path):
        inst = gen.clustered_angles(n=25, k=2, seed=8)
        ipath = tmp_path / "inst.json"
        save_instance(inst, ipath)
        loaded = load_instance(ipath)
        assert loaded == inst

        sol = improve_solution(loaded, solve_greedy_multi(loaded, GREEDY), GREEDY)
        spath = tmp_path / "sol.json"
        save_solution(sol, spath)
        sol2 = load_solution(spath)
        sol2.verify(loaded)
        assert sol2.value(loaded) == pytest.approx(sol.value(loaded))

    def test_sector_pipeline(self, tmp_path):
        inst = gen.clustered_towns(n=50, seed=8)
        p = tmp_path / "city.json"
        save_instance(inst, p)
        city = load_instance(p)
        sol = solve_sector_greedy(city, GREEDY)
        better = improve_sector_solution(city, sol, GREEDY)
        better.verify(city)
        _, ub = solve_sector_splittable(city, better.orientations)
        assert better.value(city) <= ub + 1e-6


class TestCustomerApiPipeline:
    def test_build_from_customers_and_solve(self):
        customers = [
            Customer(demand=1.0, theta=0.1, label="a"),
            Customer(demand=2.0, theta=0.2, label="b"),
            Customer(demand=1.5, theta=3.0, label="c"),
        ]
        inst = AngleInstance.from_customers(
            customers, [AntennaSpec(rho=1.0, capacity=3.0)]
        )
        sol = solve_exact_angle(inst)
        sol.verify(inst)
        assert sol.value(inst) == pytest.approx(3.0)

    def test_planar_customers_to_sector_solve(self):
        st = Station(
            position=(0.0, 0.0),
            antennas=(AntennaSpec(rho=2.0, capacity=5.0, radius=3.0),),
        )
        customers = [
            Customer(demand=1.0, position=(1.0, 0.5)),
            Customer(demand=2.0, position=(0.5, 1.0)),
            Customer(demand=9.0, position=(10.0, 0.0)),  # unreachable
        ]
        from repro.model.instance import SectorInstance

        inst = SectorInstance.from_customers(customers, [st])
        sol = solve_sector_greedy(inst, EXACT)
        sol.verify(inst)
        assert sol.value(inst) == pytest.approx(3.0)
        assert sol.assignment[2] == -1


class TestPlanThenOperate:
    """Offline planning -> online operation -> dual covering audit."""

    def test_full_lifecycle(self):
        forecast = gen.clustered_angles(n=40, k=3, seed=10)
        plan = solve_greedy_multi(forecast, GREEDY, adaptive=True)

        rng = np.random.default_rng(11)
        thetas = rng.uniform(0, 2 * np.pi, 50)
        demands = rng.uniform(0.2, 0.8, 50)
        sim = OnlineAdmission(forecast.antennas, plan.orientations, policy="best_fit")
        online = sim.run(thetas, demands)
        offline = replay_offline_reference(
            forecast.antennas, plan.orientations, thetas, demands
        )
        assert 0 < online <= offline + 1e-6

        # audit: how many antennas would full coverage have needed?
        cover = cover_instance(forecast, GREEDY)
        verify_cover(forecast.thetas, forecast.demands, forecast.antennas[0], cover)
        assert cover.antennas_used >= cover.lower_bound


class TestHarnessIntegration:
    def test_ratio_study_with_report_and_stats(self):
        instances = {
            "uniform": [gen.uniform_angles(n=8, k=2, seed=s) for s in range(2)],
            "hotspot": [gen.hotspot_angles(n=8, k=2, seed=s) for s in range(2)],
        }
        solvers = [
            SolverSpec("greedy", lambda i: solve_greedy_multi(i, EXACT).value(i), 0.5),
            SolverSpec("exact", lambda i: solve_exact_angle(i).value(i), 1.0),
        ]
        records = ratio_study(
            instances, solvers, lambda i: solve_exact_angle(i).value(i)
        )
        text = report(records)
        assert "greedy" in text
        for fam, insts in instances.items():
            for inst in insts:
                s = instance_stats(inst)
                assert s.n == 8

    def test_parallel_fanout_of_solves(self):
        values = parallel_map(_solve_one_seed, list(range(8)), workers=2)
        assert values == [_solve_one_seed(s) for s in range(8)]


def _solve_one_seed(seed: int) -> float:
    inst = gen.uniform_angles(n=30, k=2, seed=seed)
    return solve_greedy_multi(inst, GREEDY).value(inst)


class TestVizIntegration:
    def test_render_solution_of_real_solver(self):
        inst = gen.hotspot_angles(n=30, k=2, seed=5)
        sol = solve_greedy_multi(inst, GREEDY)
        art = render_solution(inst, sol)
        bars = render_loads(inst, sol)
        assert len(art.splitlines()) == inst.k + 1
        assert len(bars.splitlines()) == inst.k
