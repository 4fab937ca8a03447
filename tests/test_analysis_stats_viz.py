"""Tests for instance statistics and ASCII visualisation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import (
    best_window_share,
    circular_concentration,
    gini,
    instance_stats,
)
from repro.analysis.viz import render_instance, render_loads, render_solution
from repro.geometry.angles import TWO_PI
from repro.knapsack import get_solver
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.model import generators as gen
from repro.packing.multi import solve_greedy_multi


class TestGini:
    def test_equal_values_zero(self):
        assert gini(np.ones(10)) == pytest.approx(0.0, abs=1e-12)

    def test_one_whale_near_one(self):
        v = np.array([1e-6] * 99 + [1.0])
        assert gini(v) > 0.9

    def test_known_value(self):
        # two values a, b: G = |a-b| / (2*(a+b)) * 2 = (b-a)/(a+b) for b>a... use direct
        assert gini(np.array([1.0, 3.0])) == pytest.approx(0.25)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            gini(np.array([]))
        with pytest.raises(ValueError):
            gini(np.array([1.0, 0.0]))

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=30))
    def test_range(self, vals):
        g = gini(np.array(vals))
        assert -1e-9 <= g < 1.0

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20),
           st.floats(min_value=0.1, max_value=10))
    def test_scale_invariant(self, vals, c):
        v = np.array(vals)
        assert gini(v) == pytest.approx(gini(c * v), abs=1e-9)


class TestCircularConcentration:
    def test_point_mass(self):
        assert circular_concentration(np.full(10, 1.3)) == pytest.approx(1.0)

    def test_uniform_near_zero(self):
        t = np.linspace(0, TWO_PI, 1000, endpoint=False)
        assert circular_concentration(t) < 1e-10

    def test_empty(self):
        assert circular_concentration(np.empty(0)) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=TWO_PI), min_size=1, max_size=30))
    def test_range(self, thetas):
        r = circular_concentration(np.array(thetas))
        assert -1e-9 <= r <= 1.0 + 1e-9


class TestBestWindowShare:
    def test_full_circle_is_one(self):
        inst = gen.uniform_angles(n=20, k=1, rho=TWO_PI, seed=0)
        assert best_window_share(inst) == pytest.approx(1.0)

    def test_cluster_captured(self):
        inst = AngleInstance(
            thetas=np.array([0.0, 0.1, 3.0]),
            demands=np.array([1.0, 1.0, 1.0]),
            antennas=(AntennaSpec(rho=0.5, capacity=1.0),),
        )
        assert best_window_share(inst) == pytest.approx(2.0 / 3.0)

    def test_explicit_rho(self):
        inst = gen.uniform_angles(n=20, k=1, rho=0.2, seed=0)
        assert best_window_share(inst, rho=TWO_PI) == pytest.approx(1.0)

    def test_empty(self):
        inst = AngleInstance(
            thetas=np.empty(0), demands=np.empty(0),
            antennas=(AntennaSpec(rho=1.0, capacity=1.0),),
        )
        assert best_window_share(inst) == 0.0


class TestInstanceStats:
    def test_fields(self):
        inst = gen.clustered_angles(n=30, k=2, seed=1)
        s = instance_stats(inst)
        assert s.n == 30 and s.k == 2
        assert s.tightness > 0
        assert 0 <= s.demand_gini < 1
        assert 0 <= s.concentration <= 1
        assert 0 < s.hotspot_share <= 1
        d = s.as_dict()
        assert set(d) == {
            "n", "k", "tightness", "demand_gini",
            "max_demand_ratio", "concentration", "hotspot_share",
        }

    def test_hotspot_family_concentrated(self):
        hot = instance_stats(gen.hotspot_angles(n=50, seed=0))
        uni = instance_stats(gen.uniform_angles(n=50, seed=0))
        assert hot.concentration > uni.concentration

    def test_empty_instance(self):
        inst = AngleInstance(
            thetas=np.empty(0), demands=np.empty(0),
            antennas=(AntennaSpec(rho=1.0, capacity=1.0),),
        )
        s = instance_stats(inst)
        assert s.n == 0 and s.tightness == 0.0


class TestViz:
    def make(self):
        inst = gen.clustered_angles(n=25, k=2, seed=3)
        sol = solve_greedy_multi(inst, get_solver("greedy"))
        return inst, sol

    def test_render_instance_shape(self):
        inst, _ = self.make()
        out = render_instance(inst, width=60)
        lines = out.splitlines()
        assert len(lines) == 2
        assert all(len(l) == 60 + len("customers  |") + 1 for l in lines)

    def test_render_instance_min_width(self):
        inst, _ = self.make()
        with pytest.raises(ValueError):
            render_instance(inst, width=8)

    def test_render_solution_rows(self):
        inst, sol = self.make()
        out = render_solution(inst, sol, width=60)
        lines = out.splitlines()
        assert len(lines) == inst.k + 1
        assert "=" in lines[0]

    def test_render_full_circle_arc(self):
        inst = gen.uniform_angles(n=5, k=1, rho=TWO_PI, seed=0)
        sol = solve_greedy_multi(inst, get_solver("greedy"))
        out = render_solution(inst, sol, width=40)
        assert out.splitlines()[0].count("=") >= 38

    def test_render_wrapping_arc(self):
        inst = AngleInstance(
            thetas=np.array([0.1]),
            demands=np.array([1.0]),
            antennas=(AntennaSpec(rho=1.0, capacity=2.0),),
        )
        from repro.model.solution import AngleSolution

        sol = AngleSolution(orientations=np.array([TWO_PI - 0.5]),
                            assignment=np.array([0]))
        out = render_solution(inst, sol, width=40)
        row = out.splitlines()[0]
        assert row.split("|")[1][0] == "="  # wraps into column 0

    def test_render_loads(self):
        inst, sol = self.make()
        out = render_loads(inst, sol, width=20)
        lines = out.splitlines()
        assert len(lines) == inst.k
        assert all("/" in l for l in lines)

    def test_served_glyphs(self):
        inst, sol = self.make()
        out = render_solution(inst, sol, width=72)
        served_line = out.splitlines()[-1]
        assert any(ch.isdigit() for ch in served_line)
