"""Circular sweep: enumerate all canonical windows over a set of angles.

The canonical-rotation lemma (see :mod:`repro.packing.canonical`) shows that
a single arc of width ``rho`` may be assumed to *start at a customer angle*.
The sweep therefore only ever needs the ``n`` windows ``[theta_i,
theta_i + rho]``.  Because the customers covered by such a window form a
*contiguous run in sorted angular order* (wrapping around ``2*pi``), the
whole family of windows is represented by ``(lo, hi)`` index pairs into the
sorted order, computed in ``O(n log n)`` with one ``searchsorted`` call —
no Python-level loop (HPC-guide vectorization idiom).

:class:`CircularSweep` precomputes the sorted order and the window
boundaries once; :class:`WindowView` is a lightweight view of one window
that exposes the covered customers as *original* indices.  ``window_sums``
evaluates ``sum(values[covered])`` for *all* windows at once via a doubled
prefix sum, which is the workhorse of the greedy and DP solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.geometry.angles import TWO_PI, normalize_angles
from repro.obs.metrics import get_registry
from repro.resilience.budget import checkpoint as _budget_checkpoint

#: Tolerance for the closed right end of a window (matches Arc.contains).
_WINDOW_EPS = 1e-12

# Sweep telemetry: how many sweeps get built and how many canonical
# windows they expose (contract: docs/OBSERVABILITY.md).
_SWEEP_BUILDS = get_registry().counter("sweep.builds")
_SWEEP_WINDOWS = get_registry().counter("sweep.windows")


def _check_width(width: float) -> float:
    """Validate a window width and clamp it to ``[0, 2*pi]``."""
    if not (0.0 <= width <= TWO_PI + _WINDOW_EPS):
        raise ValueError(f"window width must be in [0, 2*pi], got {width}")
    return float(min(width, TWO_PI))


@dataclass(frozen=True)
class WindowView:
    """One canonical window of a :class:`CircularSweep`.

    Attributes
    ----------
    start:
        The window's start angle (a customer angle).
    lo, hi:
        Half-open range ``[lo, hi)`` into the sweep's sorted order; ``hi``
        may exceed ``n`` to express wrap-around (indices are taken mod n).
    sweep:
        The owning sweep (used to materialize indices lazily).
    """

    start: float
    lo: int
    hi: int
    sweep: "CircularSweep"

    @property
    def count(self) -> int:
        """Number of covered customers."""
        return self.hi - self.lo

    @property
    def sorted_positions(self) -> np.ndarray:
        """Positions of covered customers in sorted order (mod n)."""
        n = self.sweep.n
        return np.arange(self.lo, self.hi) % n

    @property
    def indices(self) -> np.ndarray:
        """Original (instance) indices of the covered customers."""
        return self.sweep.order[self.sorted_positions]

    def covers_original(self, original_index: int) -> bool:
        """True iff the customer with this original index is in the window."""
        pos = self.sweep.rank_of_original[original_index]
        if self.hi <= self.sweep.n:
            return self.lo <= pos < self.hi
        return pos >= self.lo or pos < self.hi - self.sweep.n


class CircularSweep:
    """All width-``rho`` windows starting at customer angles.

    Parameters
    ----------
    thetas:
        Customer angles (any radians; normalized internally).  May contain
        duplicates.
    width:
        Window width ``rho`` in ``[0, 2*pi]``.

    Notes
    -----
    ``O(n log n)`` preprocessing, ``O(1)`` per window afterwards.  Windows
    are indexed ``0..n-1`` in sorted-angle order; duplicate start angles
    produce identical windows (callers that care use
    :meth:`unique_window_ids`).
    """

    def __init__(self, thetas: Sequence[float] | np.ndarray, width: float):
        _budget_checkpoint()  # sweep builds are a phase boundary (ambient budget)
        self.width = _check_width(width)
        thetas = np.asarray(thetas, dtype=np.float64)
        self.thetas = normalize_angles(thetas)
        self.n = int(self.thetas.shape[0])
        #: order[k] = original index of the k-th smallest angle
        self.order = np.argsort(self.thetas, kind="stable")
        self.sorted_thetas = self.thetas[self.order]
        #: rank_of_original[i] = position of original customer i in sorted order
        self.rank_of_original = np.empty(self.n, dtype=np.intp)
        self.rank_of_original[self.order] = np.arange(self.n)
        self._attach_windows()

    @classmethod
    def from_sorted(
        cls,
        thetas: np.ndarray,
        width: float,
        order: np.ndarray,
        sorted_thetas: np.ndarray,
        rank_of_original: np.ndarray,
    ) -> "CircularSweep":
        """Build a sweep from a *precomputed* stable sort — no re-sorting.

        The compiled-instance layer (:mod:`repro.core.compiled`) sorts each
        angle array once and then instantiates one sweep per window width
        through this entry point.  The caller guarantees that ``thetas`` is
        already normalized to ``[0, 2*pi)`` and that ``order`` /
        ``sorted_thetas`` / ``rank_of_original`` came from
        ``np.argsort(thetas, kind="stable")`` — under that contract the
        result is indistinguishable from ``CircularSweep(thetas, width)``.
        """
        self = cls.__new__(cls)
        _budget_checkpoint()
        self.width = _check_width(width)
        self.thetas = thetas
        self.n = int(thetas.shape[0])
        self.order = order
        self.sorted_thetas = sorted_thetas
        self.rank_of_original = rank_of_original
        self._attach_windows()
        return self

    def _attach_windows(self) -> None:
        """Compute the ``(lo, hi)`` bounds of all ``n`` canonical windows."""
        _SWEEP_BUILDS.inc()
        _SWEEP_WINDOWS.inc(self.n)
        if self.n == 0:
            self._lo = np.empty(0, dtype=np.intp)
            self._hi = np.empty(0, dtype=np.intp)
            return
        if self.width >= TWO_PI:
            self._lo = np.arange(self.n)
            self._hi = self._lo + self.n
        else:
            # A window starting at theta_k also covers customers whose angle
            # equals theta_k but sorts *before* position k (duplicates), and
            # angles within the wrap-snap tolerance just below theta_k.
            self._lo = np.searchsorted(
                self.sorted_thetas, self.sorted_thetas - _WINDOW_EPS, side="left"
            )
            doubled = np.concatenate([self.sorted_thetas, self.sorted_thetas + TWO_PI])
            targets = self.sorted_thetas + self.width + _WINDOW_EPS
            hi = np.searchsorted(doubled, targets, side="right")
            # A window never covers more than all n customers.
            self._hi = np.minimum(hi, self._lo + self.n)

    # ------------------------------------------------------------------
    # Window access
    # ------------------------------------------------------------------
    def window(self, k: int) -> WindowView:
        """The window starting at the ``k``-th smallest customer angle."""
        if not (0 <= k < self.n):
            raise IndexError(f"window index {k} out of range [0, {self.n})")
        return WindowView(
            start=float(self.sorted_thetas[k]),
            lo=int(self._lo[k]),
            hi=int(self._hi[k]),
            sweep=self,
        )

    def windows(self) -> Iterator[WindowView]:
        """Iterate over all ``n`` canonical windows in sorted-start order."""
        for k in range(self.n):
            yield self.window(k)

    def window_at(self, start: float, closed_end: bool = True) -> WindowView:
        """The window ``[start, start + width]`` for an *arbitrary* start.

        Unlike :meth:`window`, the start need not be a customer angle; the
        non-overlapping DP probes the enriched candidate grid
        ``theta_i + j * rho`` with this method.  ``closed_end=False`` makes
        the window half-open ``[start, start + width)`` — used by the
        disjoint-arcs DP so that two stacked windows sharing a boundary
        never both claim a customer sitting exactly on it.  ``O(log n)``.

        The bounds arithmetic lives in
        :func:`repro.geometry.arcs.coverage_bounds`, the array-level entry
        point shared with the compiled-instance layer.
        """
        from repro.geometry.arcs import coverage_bounds

        s, lo, hi = coverage_bounds(
            self.sorted_thetas, start, self.width, closed_end=closed_end
        )
        return WindowView(start=s, lo=lo, hi=hi, sweep=self)

    def unique_window_ids(self) -> np.ndarray:
        """Window ids with duplicate (start angle, hi) pairs removed.

        Duplicate customer angles yield byte-identical windows; solvers that
        do expensive per-window work (knapsack) skip the duplicates.

        The result is memoized: a sweep's windows never change, and shared
        (compiled-instance) sweeps call this once per rotation search.
        """
        cached = getattr(self, "_uniq_ids", None)
        if cached is not None:
            return cached
        if self.n == 0:
            uniq = np.empty(0, dtype=np.intp)
        else:
            keep = np.ones(self.n, dtype=bool)
            same_start = np.isclose(np.diff(self.sorted_thetas), 0.0, atol=1e-15)
            keep[1:] = ~same_start
            uniq = np.flatnonzero(keep)
        uniq.setflags(write=False)
        self._uniq_ids = uniq
        return uniq

    def counts(self) -> np.ndarray:
        """Number of covered customers for every window (vectorized)."""
        return self._hi - self._lo

    def window_sums(self, values: np.ndarray) -> np.ndarray:
        """``sum(values[covered])`` for every canonical window at once.

        ``values`` is indexed by *original* customer index.  Runs in
        ``O(n)`` after preprocessing via a doubled prefix sum.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.n,):
            raise ValueError(
                f"values must have shape ({self.n},), got {values.shape}"
            )
        if self.n == 0:
            return np.empty(0, dtype=np.float64)
        v_sorted = values[self.order]
        prefix = np.concatenate([[0.0], np.cumsum(np.concatenate([v_sorted, v_sorted]))])
        return prefix[self._hi] - prefix[self._lo]

    def window_sums_from_prefix(self, prefix: np.ndarray) -> np.ndarray:
        """:meth:`window_sums` from a *precomputed* doubled prefix sum.

        ``prefix`` must be the ``(2n+1,)`` array
        ``concatenate([[0.0], cumsum(concatenate([v_sorted, v_sorted]))])``
        for values aligned with this sweep's sorted order — exactly what the
        compiled-instance layer stores (``demand_prefix`` /
        ``profit_prefix``).  The same cumulative array is built once and
        reused by every window width, since the sorted order does not depend
        on ``rho``; the result is bit-identical to :meth:`window_sums` on
        the original values.
        """
        prefix = np.asarray(prefix, dtype=np.float64)
        if prefix.shape != (2 * self.n + 1,):
            raise ValueError(
                f"prefix must have shape ({2 * self.n + 1},), got {prefix.shape}"
            )
        return prefix[self._hi] - prefix[self._lo]

    def best_window_by_sum(self, values: np.ndarray) -> tuple[int, float]:
        """Window id maximizing :meth:`window_sums` and its value."""
        sums = self.window_sums(values)
        if sums.size == 0:
            raise ValueError("sweep over empty instance has no windows")
        k = int(np.argmax(sums))
        return k, float(sums[k])
