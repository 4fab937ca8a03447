"""Failure injection: corrupt outputs must be *caught*, never reported.

The library's trust model is "solvers never self-certify" — so these
tests take valid solver outputs, break them in every way a buggy solver
or a damaged file could, and assert that the independent verifiers flag
each corruption.
"""

import json

import numpy as np
import pytest

from repro.knapsack import KnapsackResult, get_solver
from repro.model import generators as gen
from repro.model.serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from repro.model.solution import AngleSolution, FeasibilityError, SectorSolution
from repro.packing.covering import CoverResult, cover_instance, verify_cover
from repro.packing.multi import solve_greedy_multi
from repro.packing.sectors import solve_sector_greedy

EXACT = get_solver("exact")
GREEDY = get_solver("greedy")


@pytest.fixture()
def angle_case():
    inst = gen.clustered_angles(n=20, k=2, seed=6)
    sol = solve_greedy_multi(inst, EXACT)
    assert sol.violations(inst) == []
    return inst, sol


@pytest.fixture()
def sector_case():
    inst = gen.grid_city(n=40, grid=1, seed=6)
    sol = solve_sector_greedy(inst, GREEDY)
    assert sol.violations(inst) == []
    return inst, sol


class TestAngleSolutionCorruption:
    def test_rotate_antenna_without_reassigning(self, angle_case):
        inst, sol = angle_case
        served = np.flatnonzero(sol.assignment >= 0)
        if served.size == 0:
            pytest.skip("empty solution")
        j = int(sol.assignment[served[0]])
        ori = sol.orientations.copy()
        ori[j] = ori[j] + np.pi  # point the beam away from its customers
        bad = AngleSolution(orientations=ori, assignment=sol.assignment)
        assert any("not in arc" in v for v in bad.violations(inst))

    def test_double_booking_capacity(self, angle_case):
        inst, sol = angle_case
        # cram every served customer onto one antenna it covers, if that
        # overloads it the verifier must complain
        served = np.flatnonzero(sol.assignment >= 0)
        if served.size < 2:
            pytest.skip("not enough served customers")
        asg = sol.assignment.copy()
        target = int(asg[served[0]])
        from repro.geometry.arcs import Arc

        arc = Arc(float(sol.orientations[target]), inst.antennas[target].rho)
        moved = 0
        for i in range(inst.n):
            if arc.contains(float(inst.thetas[i])):
                asg[i] = target
                moved += 1
        bad = AngleSolution(orientations=sol.orientations, assignment=asg)
        load = inst.demands[asg == target].sum()
        if load > inst.antennas[target].capacity * (1 + 1e-9):
            assert any("overloaded" in v for v in bad.violations(inst))
        else:
            pytest.skip("instance too loose to overload")

    def test_negative_index_corruption(self, angle_case):
        inst, sol = angle_case
        asg = sol.assignment.copy()
        asg[0] = -7
        bad = AngleSolution(orientations=sol.orientations, assignment=asg)
        assert bad.violations(inst)

    def test_out_of_range_antenna(self, angle_case):
        inst, sol = angle_case
        asg = sol.assignment.copy()
        asg[0] = inst.k + 3
        bad = AngleSolution(orientations=sol.orientations, assignment=asg)
        assert bad.violations(inst)

    def test_truncated_assignment(self, angle_case):
        inst, sol = angle_case
        bad = AngleSolution(
            orientations=sol.orientations, assignment=sol.assignment[:-1]
        )
        assert bad.violations(inst)

    def test_verify_raises_with_all_violations(self, angle_case):
        inst, sol = angle_case
        asg = sol.assignment.copy()
        asg[0] = inst.k + 3
        asg[1] = -9
        bad = AngleSolution(orientations=sol.orientations, assignment=asg)
        with pytest.raises(FeasibilityError) as ei:
            bad.verify(inst)
        assert len(ei.value.violations) >= 2


class TestSectorSolutionCorruption:
    def test_teleport_station(self, sector_case):
        inst, sol = sector_case
        served = np.flatnonzero(sol.assignment >= 0)
        if served.size == 0:
            pytest.skip("empty solution")
        # move a served customer's assignment to an antenna of a far station
        # by rotating that antenna's orientation arbitrarily: simpler — point
        # the serving antenna away.
        g = int(sol.assignment[served[0]])
        ori = sol.orientations.copy()
        ori[g] += np.pi
        bad = SectorSolution(orientations=ori, assignment=sol.assignment)
        assert any("outside its sector" in v for v in bad.violations(inst))

    def test_radius_violation(self, sector_case):
        inst, sol = sector_case
        # assign the customer farthest from station 0 to its antenna 0
        _, rs = inst.station_polar(0)
        far = int(np.argmax(rs))
        if rs[far] <= inst.stations[0].antennas[0].radius:
            pytest.skip("no out-of-radius customer")
        asg = sol.assignment.copy()
        asg[far] = 0
        bad = SectorSolution(orientations=sol.orientations, assignment=asg)
        # either outside the sector (radius or angle) — both are caught
        assert bad.violations(inst)


class TestSerializationCorruption:
    def test_tampered_demand_sign(self, tmp_path, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["demands"][0] = -1.0
        with pytest.raises(ValueError):
            instance_from_dict(d)

    def test_tampered_antenna_capacity(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["antennas"][0]["capacity"] = 0.0
        with pytest.raises(ValueError):
            instance_from_dict(d)

    def test_truncated_file(self, tmp_path, angle_case):
        inst, _ = angle_case
        p = tmp_path / "x.json"
        save_instance(inst, p)
        p.write_text(p.read_text()[:50])
        with pytest.raises(json.JSONDecodeError):
            load_instance(p)

    def test_mismatched_array_lengths(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["thetas"] = d["thetas"][:-1]
        with pytest.raises(ValueError):
            instance_from_dict(d)


class TestKnapsackResultCorruption:
    def test_forged_value(self):
        w = [1.0, 2.0, 3.0]
        res = EXACT.solve(w, w, 4.0)
        forged = KnapsackResult(
            selected=res.selected, value=res.value + 5.0, weight=res.weight
        )
        with pytest.raises(ValueError):
            forged.verify(w, w, 4.0)

    def test_forged_selection(self):
        w = [1.0, 2.0, 3.0]
        forged = KnapsackResult(selected=np.array([0, 1, 2]), value=6.0, weight=6.0)
        with pytest.raises(ValueError):
            forged.verify(w, w, 4.0)


class TestCoverCorruption:
    def test_dropped_customer(self):
        inst = gen.uniform_angles(n=15, k=1, rho=1.5, capacity_fraction=0.3, seed=9)
        res = cover_instance(inst, GREEDY)
        bad_assignment = res.assignment.copy()
        bad_assignment[0] = -1
        bad = CoverResult(
            orientations=res.orientations,
            assignment=bad_assignment,
            antennas_used=res.antennas_used,
            lower_bound=res.lower_bound,
        )
        with pytest.raises(ValueError):
            verify_cover(inst.thetas, inst.demands, inst.antennas[0], bad)

    def test_forged_antenna_count(self):
        inst = gen.uniform_angles(n=10, k=1, rho=1.5, capacity_fraction=0.3, seed=9)
        res = cover_instance(inst, GREEDY)
        bad = CoverResult(
            orientations=res.orientations,
            assignment=res.assignment,
            antennas_used=res.antennas_used + 1,
            lower_bound=res.lower_bound,
        )
        with pytest.raises(ValueError):
            verify_cover(inst.thetas, inst.demands, inst.antennas[0], bad)


class TestTypedInstanceValidation:
    """InvalidInstanceError names the offending field at deserialization."""

    def err_for(self, d):
        from repro.model import InvalidInstanceError

        with pytest.raises(InvalidInstanceError) as exc:
            instance_from_dict(d)
        return exc.value

    def test_nan_demand_names_field_and_entry(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["demands"][3] = float("nan")
        err = self.err_for(d)
        assert err.field == "demands"
        assert "entry 3" in str(err)

    def test_negative_demand_names_field_and_entry(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["demands"][0] = -1.0
        err = self.err_for(d)
        assert err.field == "demands"
        assert "entry 0" in str(err)

    def test_nonpositive_profit_names_field(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["profits"][2] = 0.0
        err = self.err_for(d)
        assert err.field == "profits"
        assert "entry 2" in str(err)

    def test_infinite_theta_names_field(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["thetas"][1] = float("inf")
        err = self.err_for(d)
        assert err.field == "thetas"
        assert "entry 1" in str(err)

    def test_out_of_range_rho_names_antenna(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["antennas"][1]["rho"] = 100.0
        assert self.err_for(d).field == "antennas[1]"

    def test_missing_key_names_field(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        del d["demands"]
        assert self.err_for(d).field == "demands"

    def test_unknown_kind(self, angle_case):
        inst, _ = angle_case
        d = instance_to_dict(inst)
        d["kind"] = "hexagon"
        assert self.err_for(d).field == "kind"

    def test_nonfinite_position_names_row(self, sector_case):
        inst, _ = sector_case
        d = instance_to_dict(inst)
        d["positions"][2][0] = float("nan")
        err = self.err_for(d)
        assert err.field == "positions"
        assert "row 2" in str(err)

    def test_error_is_a_value_error(self):
        # Callers that only know ValueError keep working.
        from repro.model import InvalidInstanceError

        assert issubclass(InvalidInstanceError, ValueError)
