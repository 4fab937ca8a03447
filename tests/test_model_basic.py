"""Tests for Customer, AntennaSpec, OrientedAntenna."""

import math

import pytest

from repro.geometry.angles import TWO_PI
from repro.model.antenna import AntennaSpec
from repro.model.customer import Customer


class TestCustomer:
    def test_angular_customer(self):
        c = Customer(demand=2.0, theta=-1.0)
        assert c.is_angular
        assert 0 <= c.theta < TWO_PI
        assert c.profit == 2.0

    def test_planar_customer(self):
        c = Customer(demand=1.0, position=(1, 2))
        assert not c.is_angular
        assert c.position == (1.0, 2.0)

    def test_explicit_profit(self):
        c = Customer(demand=1.0, theta=0.0, profit=5.0)
        assert c.profit == 5.0

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(ValueError):
            Customer(demand=0.0, theta=0.0)
        with pytest.raises(ValueError):
            Customer(demand=-1.0, theta=0.0)

    def test_rejects_nonpositive_profit(self):
        with pytest.raises(ValueError):
            Customer(demand=1.0, theta=0.0, profit=0.0)

    def test_rejects_both_coordinates(self):
        with pytest.raises(ValueError):
            Customer(demand=1.0, theta=0.0, position=(0, 0))

    def test_rejects_no_coordinates(self):
        with pytest.raises(ValueError):
            Customer(demand=1.0)

    def test_label_roundtrip(self):
        c = Customer(demand=1.0, theta=0.0, label="home")
        assert c.label == "home"


class TestAntennaSpec:
    def test_defaults(self):
        a = AntennaSpec(rho=1.0, capacity=5.0)
        assert math.isinf(a.radius)
        assert not a.is_omnidirectional

    def test_omnidirectional(self):
        a = AntennaSpec(rho=TWO_PI, capacity=1.0)
        assert a.is_omnidirectional

    def test_rho_clamped_to_two_pi(self):
        a = AntennaSpec(rho=TWO_PI + 1e-13, capacity=1.0)
        assert a.rho == TWO_PI

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            AntennaSpec(rho=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            AntennaSpec(rho=TWO_PI + 0.1, capacity=1.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            AntennaSpec(rho=1.0, capacity=0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            AntennaSpec(rho=1.0, capacity=1.0, radius=-1.0)

    def test_scaled_capacity(self):
        a = AntennaSpec(rho=1.0, capacity=2.0, name="x")
        b = a.scaled_capacity(2.0)
        assert b.capacity == 4.0
        assert b.name == "x"
        with pytest.raises(ValueError):
            a.scaled_capacity(0.0)


class TestOrientedAntenna:
    def test_arc(self):
        oa = AntennaSpec(rho=1.0, capacity=1.0).oriented(0.5)
        arc = oa.arc
        assert arc.start == pytest.approx(0.5)
        assert arc.width == pytest.approx(1.0)

    def test_sector_requires_finite_radius(self):
        oa = AntennaSpec(rho=1.0, capacity=1.0).oriented(0.0)
        with pytest.raises(ValueError):
            oa.sector((0.0, 0.0))

    def test_sector(self):
        oa = AntennaSpec(rho=1.0, capacity=1.0, radius=3.0).oriented(0.25)
        s = oa.sector((1.0, 1.0))
        assert s.radius == 3.0
        assert s.alpha == pytest.approx(0.25)
        assert s.apex == (1.0, 1.0)
