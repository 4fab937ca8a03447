"""Sets of circular intervals: unions, gaps, and occupancy queries.

The non-overlapping solvers need to reason about *occupied* angular space:
"is this arc free?", "where are the gaps and how wide are they?".
:class:`CircularIntervalSet` maintains a union of arcs in normalized,
merged form and answers those queries in ``O(log m)`` / ``O(m)``.

Used by the insertion heuristic (:mod:`repro.packing.insertion`) and by
instance statistics; exactness of merging is property-tested against
point sampling.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.geometry.angles import TWO_PI, ccw_delta, normalize_angle
from repro.geometry.arcs import Arc

#: Endpoint tolerance consistent with Arc containment.
_EPS = 1e-12


class CircularIntervalSet:
    """A union of arcs on the circle, kept merged and sorted.

    The representation is a list of disjoint, non-touching closed arcs
    sorted by start angle; a full circle is the special flag
    :attr:`is_full`.  All mutation goes through :meth:`add`.
    """

    def __init__(self, arcs: Iterable[Arc] = ()):  # noqa: D401
        self._arcs: List[Arc] = []
        self.is_full = False
        for a in arcs:
            self.add(a)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, arc: Arc) -> None:
        """Insert an arc, merging it with everything it touches."""
        if self.is_full or arc.width <= 0.0:
            if arc.width > 0.0:
                return
            if not self.is_full and arc.width == 0.0:
                return  # zero-width arcs contribute no measure
            return
        if arc.is_full_circle:
            self._arcs = []
            self.is_full = True
            return
        start, end_off = arc.start, arc.width
        merged_start = start
        merged_width = end_off
        keep: List[Arc] = []
        for a in self._arcs:
            if _touches(Arc(merged_start, merged_width), a):
                merged_start, merged_width = _merge(
                    merged_start, merged_width, a
                )
                if merged_width >= TWO_PI - _EPS:
                    self._arcs = []
                    self.is_full = True
                    return
            else:
                keep.append(a)
        keep.append(Arc(merged_start, min(merged_width, TWO_PI)))
        keep.sort(key=lambda a: a.start)
        self._arcs = keep
        # A newly merged arc can now touch a previously-kept one; iterate
        # to a fixed point (at most m merges total over the set's life).
        changed = True
        while changed and not self.is_full:
            changed = False
            for i in range(len(self._arcs)):
                for j in range(i + 1, len(self._arcs)):
                    if _touches(self._arcs[i], self._arcs[j]):
                        s, w = _merge(
                            self._arcs[i].start, self._arcs[i].width, self._arcs[j]
                        )
                        if w >= TWO_PI - _EPS:
                            self._arcs = []
                            self.is_full = True
                            return
                        rest = [
                            a for k, a in enumerate(self._arcs) if k not in (i, j)
                        ]
                        rest.append(Arc(s, w))
                        rest.sort(key=lambda a: a.start)
                        self._arcs = rest
                        changed = True
                        break
                if changed:
                    break

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def arcs(self) -> Tuple[Arc, ...]:
        """The disjoint merged arcs, sorted by start."""
        return tuple(self._arcs)

    def measure(self) -> float:
        """Total occupied angular length."""
        if self.is_full:
            return TWO_PI
        return float(sum(a.width for a in self._arcs))

    def contains(self, theta: float) -> bool:
        """Is the angle inside the occupied set?"""
        if self.is_full:
            return True
        return any(a.contains(theta) for a in self._arcs)

    def is_free(self, arc: Arc) -> bool:
        """True iff the arc's *interior* does not intersect the set.

        Touching at endpoints is allowed (arcs may abut), matching the
        non-overlapping variant's interior-disjointness semantics.
        """
        if arc.width <= 0.0:
            return True
        if self.is_full:
            return False
        return not any(arc.overlaps_interior(a) for a in self._arcs)

    def gaps(self) -> List[Arc]:
        """The complement as a list of arcs (empty when full).

        An empty set's complement is the full circle.
        """
        if self.is_full:
            return []
        if not self._arcs:
            return [Arc(0.0, TWO_PI)]
        out: List[Arc] = []
        m = len(self._arcs)
        for i in range(m):
            cur = self._arcs[i]
            nxt = self._arcs[(i + 1) % m]
            gap_start = cur.end
            gap_width = ccw_delta(gap_start, nxt.start)
            if m == 1:
                gap_width = TWO_PI - cur.width
            if gap_width > _EPS:
                out.append(Arc(gap_start, gap_width))
        return out

    def largest_gap(self) -> float:
        """Width of the widest free arc (0 when full)."""
        gaps = self.gaps()
        return max((g.width for g in gaps), default=0.0)

    def __len__(self) -> int:
        return len(self._arcs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_full:
            return "CircularIntervalSet(FULL)"
        return f"CircularIntervalSet({list(self._arcs)!r})"


def _touches(a: Arc, b: Arc) -> bool:
    """Closed intersection (shared point is enough to merge)."""
    return a.intersects(b)


def _merge(start: float, width: float, other: Arc) -> Tuple[float, float]:
    """Merge ``[start, start+width]`` with a touching arc; returns (s, w).

    The union of two touching arcs is one arc unless together they wrap
    the whole circle (handled by the caller via the width cap).
    """
    # candidate starts: either existing start or other's start; pick the
    # one whose forward span covers both arcs with minimum width.
    best = None
    for s in (start, other.start):
        end1 = ccw_delta(s, normalize_angle(start + width))
        if ccw_delta(s, start) > end1 + _EPS:
            end1 = TWO_PI
        # offset of each arc's span from s
        off_a = ccw_delta(s, start)
        w1 = off_a + width
        off_b = ccw_delta(s, other.start)
        w2 = off_b + other.width
        # the union is representable from s only if both arcs start
        # "after" s without leaving a hole before them
        if off_a > _EPS and off_b > _EPS:
            continue
        w = max(w1, w2)
        if best is None or w < best[1]:
            best = (s, w)
    if best is None:
        # both arcs start strictly after each candidate (possible only
        # through accumulated float error); fall back to covering span
        s = start
        w = max(width, ccw_delta(s, other.start) + other.width)
        best = (s, w)
    return best[0], min(best[1], TWO_PI)
