"""Tests for CircularIntervalSet, validated against point sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.angles import TWO_PI
from repro.geometry.arcs import Arc, union_measure
from repro.geometry.interval_set import CircularIntervalSet

arc_lists = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=TWO_PI - 1e-9),
        st.floats(min_value=0.0, max_value=TWO_PI),
    ),
    max_size=8,
)


class TestBasics:
    def test_empty(self):
        s = CircularIntervalSet()
        assert s.measure() == 0.0
        assert not s.contains(1.0)
        assert len(s) == 0
        assert s.gaps()[0].is_full_circle

    def test_single_arc(self):
        s = CircularIntervalSet([Arc(1.0, 0.5)])
        assert s.measure() == pytest.approx(0.5)
        assert s.contains(1.2)
        assert not s.contains(2.0)

    def test_full_circle(self):
        s = CircularIntervalSet([Arc(0.0, TWO_PI)])
        assert s.is_full
        assert s.measure() == pytest.approx(TWO_PI)
        assert s.gaps() == []
        assert s.largest_gap() == 0.0

    def test_zero_width_ignored(self):
        s = CircularIntervalSet([Arc(1.0, 0.0)])
        assert s.measure() == 0.0

    def test_disjoint_arcs_kept_separate(self):
        s = CircularIntervalSet([Arc(0.0, 1.0), Arc(2.0, 1.0)])
        assert len(s) == 2
        assert s.measure() == pytest.approx(2.0)

    def test_touching_arcs_merge(self):
        s = CircularIntervalSet([Arc(0.0, 1.0), Arc(1.0, 1.0)])
        assert len(s) == 1
        assert s.measure() == pytest.approx(2.0)

    def test_overlapping_merge(self):
        s = CircularIntervalSet([Arc(0.0, 1.5), Arc(1.0, 1.0)])
        assert len(s) == 1
        assert s.measure() == pytest.approx(2.0)

    def test_wrap_merge(self):
        s = CircularIntervalSet([Arc(TWO_PI - 0.5, 1.0), Arc(0.4, 0.5)])
        assert s.measure() == pytest.approx(1.4, abs=1e-9)

    def test_chain_merge_to_full(self):
        s = CircularIntervalSet()
        for k in range(4):
            s.add(Arc(k * TWO_PI / 4, TWO_PI / 4 + 0.01))
        assert s.is_full


class TestAgainstUnionMeasure:
    @settings(max_examples=200)
    @given(arc_lists)
    def test_measure_matches_union_measure(self, parts):
        arcs = [Arc(a, w) for a, w in parts]
        s = CircularIntervalSet(arcs)
        assert s.measure() == pytest.approx(union_measure(arcs), abs=1e-6)

    @settings(max_examples=150)
    @given(arc_lists, st.floats(min_value=0, max_value=TWO_PI - 1e-9))
    def test_contains_matches_any_arc(self, parts, theta):
        arcs = [Arc(a, w) for a, w in parts]
        s = CircularIntervalSet(arcs)
        # zero-width arcs carry no measure and are ignored by the set
        expected = any(a.contains(theta) for a in arcs if a.width > 0)
        if expected:
            assert s.contains(theta)
        # (a merged set may also contain boundary-tolerance points that no
        # single arc reports, so the reverse direction only holds away from
        # endpoints; tested separately below)

    @settings(max_examples=150)
    @given(arc_lists)
    def test_gap_points_are_outside_all_arcs(self, parts):
        arcs = [Arc(a, w) for a, w in parts]
        s = CircularIntervalSet(arcs)
        for g in s.gaps():
            mid = g.sample_angles(1)[0]
            if g.width > 1e-6:
                for a in arcs:
                    assert not a.contains(float(mid) )or a.width == 0.0

    @settings(max_examples=100)
    @given(arc_lists)
    def test_gaps_and_measure_complement(self, parts):
        arcs = [Arc(a, w) for a, w in parts]
        s = CircularIntervalSet(arcs)
        if not s.is_full:
            gap_total = sum(g.width for g in s.gaps())
            assert gap_total + s.measure() == pytest.approx(TWO_PI, abs=1e-6)


class TestIsFree:
    def test_free_in_gap(self):
        s = CircularIntervalSet([Arc(0.0, 1.0)])
        assert s.is_free(Arc(2.0, 1.0))

    def test_not_free_overlapping(self):
        s = CircularIntervalSet([Arc(0.0, 1.0)])
        assert not s.is_free(Arc(0.5, 1.0))

    def test_touching_is_free(self):
        s = CircularIntervalSet([Arc(0.0, 1.0)])
        assert s.is_free(Arc(1.0, 1.0))

    def test_nothing_free_when_full(self):
        s = CircularIntervalSet([Arc(0.0, TWO_PI)])
        assert not s.is_free(Arc(0.0, 0.1))
        assert s.is_free(Arc(0.0, 0.0))

    @settings(max_examples=100)
    @given(arc_lists,
           st.floats(min_value=0, max_value=TWO_PI - 1e-9),
           st.floats(min_value=0.01, max_value=2.0))
    def test_free_arc_interior_disjoint_from_all(self, parts, start, width):
        arcs = [Arc(a, w) for a, w in parts]
        s = CircularIntervalSet(arcs)
        probe = Arc(start, width)
        if s.is_free(probe):
            for a in arcs:
                assert not probe.overlaps_interior(a) or a.width <= 1e-9


class TestGaps:
    def test_single_arc_gap(self):
        s = CircularIntervalSet([Arc(1.0, 2.0)])
        gaps = s.gaps()
        assert len(gaps) == 1
        assert gaps[0].start == pytest.approx(3.0)
        assert gaps[0].width == pytest.approx(TWO_PI - 2.0)

    def test_two_arcs_two_gaps(self):
        s = CircularIntervalSet([Arc(0.0, 1.0), Arc(3.0, 1.0)])
        gaps = s.gaps()
        assert len(gaps) == 2
        assert s.largest_gap() == pytest.approx(TWO_PI - 4.0, abs=1e-9)
