"""The online delta layer: bit-identity, atomic batches, event grammar.

The contract under test (``docs/ONLINE.md``): after *every* event, a
:class:`~repro.online.delta.DeltaCompiledInstance` must be value-identical
to throwing the instance away and recompiling from scratch — not just the
raw arrays but the compiled views too (stable angle order, doubled prefix
sums, eligibility masks) and the content fingerprint.  A hypothesis
property drives random event streams through both paths and compares
bitwise at each step; explicit units pin the known-sharp corners
(duplicate-angle inserts, remove-then-re-add, profit/demand divergence)
and the atomicity of a batch with an invalid event.  The event dict
grammar rounds out the file.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.cache import RESULT_CACHE, fingerprint, intern_instance
from repro.geometry.angles import TWO_PI
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance, InvalidInstanceError, SectorInstance, Station
from repro.online.delta import (
    AddCustomer,
    DeltaCompiledInstance,
    RemoveCustomer,
    UpdateDemand,
    event_from_dict,
    event_to_dict,
)

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _angle_instance(thetas, demands, profits=None):
    return AngleInstance(
        thetas=np.asarray(thetas, dtype=np.float64),
        demands=np.asarray(demands, dtype=np.float64),
        profits=None if profits is None else np.asarray(profits, dtype=np.float64),
        antennas=(AntennaSpec(rho=1.2, capacity=10.0),
                  AntennaSpec(rho=0.7, capacity=4.0)),
    )


def _sector_instance(positions, demands, profits=None):
    stations = (
        Station(position=(0.0, 0.0),
                antennas=(AntennaSpec(rho=np.pi / 2, capacity=8.0, radius=3.0),)),
        Station(position=(4.0, 0.0),
                antennas=(AntennaSpec(rho=np.pi, capacity=6.0, radius=2.5),)),
    )
    positions = np.asarray(positions, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    return SectorInstance(
        positions=positions, demands=demands,
        profits=None if profits is None else np.asarray(profits, dtype=np.float64),
        stations=stations,
    )


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_angle_identity(delta, ref_inst):
    """Delta generation == fresh compile of ``ref_inst``, bit for bit."""
    fresh = ref_inst.compile()
    inst, view = delta.instance, delta.compiled
    assert _bitwise(inst.thetas, ref_inst.thetas)
    assert _bitwise(inst.demands, ref_inst.demands)
    assert _bitwise(inst.profits, ref_inst.profits)
    assert _bitwise(view.order, fresh.order)
    assert _bitwise(view.sorted_thetas, fresh.sorted_thetas)
    assert _bitwise(view.rank_of_original, fresh.rank_of_original)
    assert _bitwise(view.demand_prefix, fresh.demand_prefix)
    assert _bitwise(view.profit_prefix, fresh.profit_prefix)
    assert fingerprint(inst) == fingerprint(ref_inst)
    # The session's view is the instance's own compile memo: compile()
    # returns it, with a matching staleness token (no raise).
    assert inst.compile() is view


def _assert_sector_identity(delta, ref_inst):
    fresh = ref_inst.compile()
    fresh.ensure_stations()
    inst, view = delta.instance, delta.compiled
    assert _bitwise(inst.positions, ref_inst.positions)
    assert _bitwise(inst.demands, ref_inst.demands)
    assert _bitwise(inst.profits, ref_inst.profits)
    for s in range(len(ref_inst.stations)):
        pv, fv = view.station(s), fresh.station(s)
        assert _bitwise(pv.thetas, fv.thetas)
        assert _bitwise(pv.rs, fv.rs)
        assert _bitwise(pv._angles.order, fv._angles.order)
        assert _bitwise(pv._angles.sorted_thetas, fv._angles.sorted_thetas)
        for radius, mask in pv._masks.items():
            assert _bitwise(mask, fv.fit_mask(radius))
    for patched_part, fresh_part in zip(view.eligibility(), fresh.eligibility()):
        for pa, fa in zip(patched_part, fresh_part):
            assert _bitwise(pa, fa)
    assert fingerprint(inst) == fingerprint(ref_inst)
    assert inst.compile() is view


# ----------------------------------------------------------------------
# Hypothesis: random event streams, identity after every event
# ----------------------------------------------------------------------
_theta = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9,
                   allow_nan=False, allow_infinity=False)
_pos = st.floats(min_value=0.2, max_value=20.0,
                 allow_nan=False, allow_infinity=False)


@st.composite
def _angle_stream(draw):
    n0 = draw(st.integers(min_value=1, max_value=8))
    thetas = [draw(_theta) for _ in range(n0)]
    demands = [draw(_pos) for _ in range(n0)]
    shared = draw(st.booleans())
    profits = None if shared else [draw(_pos) for _ in range(n0)]
    events = draw(st.lists(
        st.one_of(
            st.tuples(st.just("add"), _theta, _pos),
            st.tuples(st.just("add-dup"), st.integers(min_value=0), _pos),
            st.tuples(st.just("remove"), st.integers(min_value=0)),
            st.tuples(st.just("update"), st.integers(min_value=0), _pos,
                      st.sampled_from(["both", "demand", "profit"])),
        ),
        min_size=1, max_size=10,
    ))
    return thetas, demands, profits, events


@SLOW
@given(_angle_stream())
def test_random_angle_streams_match_fresh_compile(stream):
    thetas, demands, profits, raw_events = stream
    ref_thetas = list(thetas)
    ref_demands = list(demands)
    ref_profits = list(profits) if profits is not None else list(demands)
    delta = DeltaCompiledInstance(_angle_instance(thetas, demands, profits))
    for spec in raw_events:
        kind = spec[0]
        n = len(ref_thetas)
        if kind == "add":
            _, theta, demand = spec
            delta.apply(AddCustomer(demand=demand, theta=theta))
            ref_thetas.append(theta)
            ref_demands.append(demand)
            ref_profits.append(demand)
        elif kind == "add-dup":
            # Insert at an *existing* angle: exercises stable-sort ties.
            _, i, demand = spec
            theta = ref_thetas[i % n]
            delta.apply(AddCustomer(demand=demand, theta=theta))
            ref_thetas.append(theta)
            ref_demands.append(demand)
            ref_profits.append(demand)
        elif kind == "remove":
            if n == 1:
                continue  # keep the instance non-empty
            _, i = spec
            i %= n
            delta.apply(RemoveCustomer(index=i))
            del ref_thetas[i], ref_demands[i], ref_profits[i]
        else:
            _, i, value, which = spec
            i %= n
            if which == "both":
                delta.apply(UpdateDemand(index=i, demand=value, profit=value))
                ref_demands[i] = value
                ref_profits[i] = value
            elif which == "demand":
                delta.apply(UpdateDemand(index=i, demand=value))
                ref_demands[i] = value
            else:
                delta.apply(UpdateDemand(index=i, profit=value))
                ref_profits[i] = value
        _assert_angle_identity(
            delta, _angle_instance(ref_thetas, ref_demands, ref_profits)
        )


# ----------------------------------------------------------------------
# Explicit corners
# ----------------------------------------------------------------------
class TestAngleCorners:
    def test_duplicate_angle_insert_lands_after_ties(self):
        # Three customers at the same angle; a fourth inserted at that
        # angle must sort after all of them (stable argsort puts the
        # largest original index last within a tie run).
        delta = DeltaCompiledInstance(
            _angle_instance([1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        )
        delta.apply(AddCustomer(demand=5.0, theta=1.0))
        ref = _angle_instance([1.0, 1.0, 1.0, 2.0, 1.0],
                              [1.0, 2.0, 3.0, 4.0, 5.0])
        _assert_angle_identity(delta, ref)
        assert list(delta.compiled.order) == [0, 1, 2, 4, 3]

    def test_remove_then_re_add_same_angle(self):
        delta = DeltaCompiledInstance(
            _angle_instance([0.5, 1.5, 1.5, 2.5], [1.0, 2.0, 3.0, 4.0])
        )
        delta.apply(RemoveCustomer(index=1))
        _assert_angle_identity(
            delta, _angle_instance([0.5, 1.5, 2.5], [1.0, 3.0, 4.0])
        )
        delta.apply(AddCustomer(demand=2.0, theta=1.5))
        _assert_angle_identity(
            delta, _angle_instance([0.5, 1.5, 2.5, 1.5], [1.0, 3.0, 4.0, 2.0])
        )

    def test_theta_normalized_like_the_constructor(self):
        delta = DeltaCompiledInstance(_angle_instance([1.0], [1.0]))
        delta.apply(AddCustomer(demand=1.0, theta=-1.0))  # wraps to 2pi - 1
        _assert_angle_identity(delta, _angle_instance([1.0, -1.0], [1.0, 1.0]))

    def test_profit_divergence_breaks_sharing_correctly(self):
        # Starts with profits equal to demands, then an update splits
        # profit from demand; identity must hold through the transition
        # and afterwards.
        delta = DeltaCompiledInstance(_angle_instance([0.1, 0.9, 2.0],
                                                      [1.0, 2.0, 3.0]))
        delta.apply(UpdateDemand(index=1, profit=7.0))
        _assert_angle_identity(
            delta,
            _angle_instance([0.1, 0.9, 2.0], [1.0, 2.0, 3.0], [1.0, 7.0, 3.0]),
        )
        delta.apply(AddCustomer(demand=4.0, theta=1.5))
        _assert_angle_identity(
            delta,
            _angle_instance([0.1, 0.9, 2.0, 1.5], [1.0, 2.0, 3.0, 4.0],
                            [1.0, 7.0, 3.0, 4.0]),
        )

    def test_bad_events_raise_without_corrupting(self):
        delta = DeltaCompiledInstance(_angle_instance([1.0, 2.0], [1.0, 1.0]))
        with pytest.raises(InvalidInstanceError):
            delta.apply(RemoveCustomer(index=5))
        with pytest.raises(InvalidInstanceError):
            delta.apply(AddCustomer(demand=-1.0, theta=0.5))
        with pytest.raises(InvalidInstanceError):
            delta.apply(UpdateDemand(index=0, demand=float("nan")))
        _assert_angle_identity(delta, _angle_instance([1.0, 2.0], [1.0, 1.0]))

    def test_events_applied_counts(self):
        delta = DeltaCompiledInstance(_angle_instance([1.0], [1.0]))
        summary = delta.apply([AddCustomer(demand=1.0, theta=2.0),
                               UpdateDemand(index=0, demand=2.0, profit=2.0)])
        assert summary["applied"] == 2
        assert summary["n"] == 2
        assert delta.events_applied == 2


# ----------------------------------------------------------------------
# Sector kind
# ----------------------------------------------------------------------
class TestSectorDelta:
    def _seed(self):
        positions = [[1.0, 0.5], [3.0, 0.5], [4.5, -0.5], [0.5, -1.0]]
        demands = [1.0, 2.0, 3.0, 4.0]
        return _sector_instance(positions, demands)

    def test_stream_matches_fresh_compile(self):
        delta = DeltaCompiledInstance(self._seed())
        # Materialize reach masks on the first generation's view.
        for s in range(2):
            view = delta.compiled.station(s)
            for a in delta.instance.stations[s].antennas:
                view.fit_mask(a.radius)
        ref_pos = [[1.0, 0.5], [3.0, 0.5], [4.5, -0.5], [0.5, -1.0]]
        ref_dem = [1.0, 2.0, 3.0, 4.0]
        ref_pro = list(ref_dem)

        delta.apply(AddCustomer(demand=1.5, position=(2.0, 1.0)))
        ref_pos.append([2.0, 1.0]); ref_dem.append(1.5); ref_pro.append(1.5)
        _assert_sector_identity(delta, _sector_instance(ref_pos, ref_dem, ref_pro))

        delta.apply(RemoveCustomer(index=1))
        del ref_pos[1], ref_dem[1], ref_pro[1]
        _assert_sector_identity(delta, _sector_instance(ref_pos, ref_dem, ref_pro))

        delta.apply(UpdateDemand(index=0, demand=9.0, profit=2.0))
        ref_dem[0] = 9.0; ref_pro[0] = 2.0
        _assert_sector_identity(delta, _sector_instance(ref_pos, ref_dem, ref_pro))

    def test_add_requires_position_not_theta(self):
        delta = DeltaCompiledInstance(self._seed())
        with pytest.raises(ValueError):
            delta.apply(AddCustomer(demand=1.0, theta=0.5))


# ----------------------------------------------------------------------
# Atomic batches: an invalid event rejects its whole batch
# ----------------------------------------------------------------------
class TestAtomicBatches:
    def test_angle_batch_with_bad_remove_changes_nothing(self):
        seed = _angle_instance([0.5, 1.5, 2.5], [1.0, 2.0, 3.0])
        delta = DeltaCompiledInstance(seed)
        with pytest.raises(InvalidInstanceError):
            delta.apply([AddCustomer(demand=1.0, theta=0.7),
                         RemoveCustomer(index=9)])
        assert delta.n == 3
        assert delta.instance is seed
        assert delta.events_applied == 0
        delta.apply(AddCustomer(demand=1.0, theta=0.7))
        _assert_angle_identity(
            delta, _angle_instance([0.5, 1.5, 2.5, 0.7], [1.0, 2.0, 3.0, 1.0])
        )

    def test_sector_batch_with_bad_remove_changes_nothing(self):
        positions = [[1.0, 0.5], [3.0, 0.5], [4.5, -0.5]]
        seed = _sector_instance(positions, [1.0, 2.0, 3.0])
        delta = DeltaCompiledInstance(seed)
        with pytest.raises(InvalidInstanceError):
            delta.apply([AddCustomer(demand=1.5, position=(2.0, 1.0)),
                         RemoveCustomer(index=9)])
        assert delta.n == 3
        assert delta.instance is seed
        assert delta.events_applied == 0
        delta.apply(AddCustomer(demand=1.5, position=(2.0, 1.0)))
        _assert_sector_identity(
            delta,
            _sector_instance(positions + [[2.0, 1.0]], [1.0, 2.0, 3.0, 1.5]),
        )

    def test_bad_value_overwritten_later_in_the_batch_is_rejected(self):
        delta = DeltaCompiledInstance(_angle_instance([1.0, 2.0], [1.0, 1.0]))
        with pytest.raises(InvalidInstanceError):
            delta.apply([UpdateDemand(index=0, demand=-1.0),
                         UpdateDemand(index=0, demand=2.0)])
        _assert_angle_identity(delta, _angle_instance([1.0, 2.0], [1.0, 1.0]))


# ----------------------------------------------------------------------
# Engine caches
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_lru_evict_by_key_semantics(self):
        # LruCache.evict: present -> dropped and True, absent -> False,
        # idempotent, and untouched keys keep their values.
        RESULT_CACHE.put(("evict-test", "a"), "va")
        RESULT_CACHE.put(("evict-test", "b"), "vb")
        assert RESULT_CACHE.evict(("evict-test", "a")) is True
        assert RESULT_CACHE.get(("evict-test", "a")) is None
        assert RESULT_CACHE.evict(("evict-test", "a")) is False
        assert RESULT_CACHE.evict(("evict-test", "never-stored")) is False
        assert RESULT_CACHE.get(("evict-test", "b")) == "vb"

    def test_publish_seeds_the_compile_cache(self):
        from repro.engine.cache import COMPILE_CACHE

        delta = DeltaCompiledInstance(_angle_instance([1.0, 2.0], [1.0, 1.0]))
        delta.apply(AddCustomer(demand=1.0, theta=0.3))
        fp = delta.publish()
        assert COMPILE_CACHE.get(fp) is delta.instance
        # An equal-content instance solves on the published object's view.
        twin = pickle.loads(pickle.dumps(delta.instance))
        assert intern_instance(twin).compile() is delta.compiled


# ----------------------------------------------------------------------
# Event grammar (wire dicts)
# ----------------------------------------------------------------------
class TestEventGrammar:
    def test_round_trip_all_types(self):
        events = [
            AddCustomer(demand=2.0, theta=0.5),
            AddCustomer(demand=1.0, position=(1.0, -2.0), profit=3.0),
            RemoveCustomer(index=4),
            UpdateDemand(index=2, demand=5.0),
            UpdateDemand(index=0, profit=1.5),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event

    def test_unknown_type_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"type": "teleport_customer"})

    def test_missing_and_extra_fields_raise_value_error(self):
        with pytest.raises(ValueError):
            event_from_dict({"type": "remove_customer"})  # no index
        with pytest.raises(ValueError):
            event_from_dict({"type": "add_customer", "demand": 1.0,
                             "theta": 0.5, "frobnicate": True})
        with pytest.raises(ValueError):
            event_from_dict("not a dict")
