"""Compiled instances: the precomputation every solver family shares.

Every solver in the packing layer starts from the same derived data — the
stable angular sort of the customer angles, doubled prefix sums of demands
and profits, the canonical candidate-angle grid of
:mod:`repro.packing.canonical`, and (for the 2-D problem) the per-station
polar conversion with per-antenna fitting-radius masks.  Before this layer
existed each solver re-derived all of it on every call (and
``packing/sectors.py`` grew a private ``polar_cache`` to paper over the
cost).

A *compiled instance* is a struct-of-arrays view holding exactly that
shared prefix.  There is one memo contract:

* inside the view, per width / per subset / per station (thread-safe
  memo dicts);
* per instance *object* via ``Instance.compile()`` (model layer) — the
  only way any solver, bound or verifier gets a view.

Sharing across equal-content objects is the engine's job, not this
layer's: :func:`repro.engine.cache.intern_instance` maps every instance
to one canonical equal-content object per fingerprint, and the engine
solves and verifies on it, so batched ``solve_many`` calls and each
service worker compile (and compose constraint masks for) each distinct
instance exactly once — observable through the ``engine.compile.*``
metrics.  ``Instance.compile()`` consults no process-wide cache, so a
view built outside the engine dies with its instance.

Everything a compiled view hands out is either read-only or freshly
derived, and every derived quantity is *bit-identical* to what the solvers
previously computed inline: sweeps are built through
:meth:`repro.geometry.sweep.CircularSweep.from_sorted` with the same stable
argsort, subset sweeps restrict the global stable order (which equals a
fresh stable sort of the subset), and prefix-sum reuse never changes float
summation order.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.sweep import CircularSweep
from repro.obs.metrics import get_registry

__all__ = [
    "CompiledInstance",
    "CompiledAngleInstance",
    "CompiledSectorInstance",
    "CompiledStation",
    "compile_instance",
]

_REG = get_registry()
# Wall time spent building compiled views (contract: docs/OBSERVABILITY.md).
_COMPILE_TIMER = _REG.timer("phase.compile")
# Eligibility timer predates the compiled layer (moved here from
# packing/sectors.py so the metric name survives the refactor).
_ELIG_TIMER = _REG.timer("phase.sector.eligibility")
# Wall time composing constraint masks (docs/SCENARIOS.md pipeline); a
# slow test gates this at <10% of the unconstrained compile.
_CONSTRAINT_TIMER = _REG.timer("phase.sector.constraints")

#: Distinguishes "not composed yet" from the composed-to-``None`` result
#: of an unconstrained instance in the constraint-mask memo.
_UNSET = object()

#: Relative slack for fitting-radius masks; matches
#: :meth:`repro.model.instance.SectorInstance.reachable_mask`.
_RADIUS_SLACK = 1.0 + 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only (compiled views are shared across threads)."""
    arr.flags.writeable = False
    return arr


def _doubled_prefix(sorted_values: np.ndarray) -> np.ndarray:
    """The ``(2n+1,)`` doubled cumulative sum used by ``window_sums``.

    Built with the exact operations of
    :meth:`repro.geometry.sweep.CircularSweep.window_sums` so that
    ``prefix[hi] - prefix[lo]`` reproduces its output bit-for-bit.
    """
    return _frozen(
        np.concatenate(
            [[0.0], np.cumsum(np.concatenate([sorted_values, sorted_values]))]
        )
    )


class _SortedAngles:
    """One stable angular sort plus the per-width sweeps derived from it.

    ``thetas`` must already be normalized to ``[0, 2*pi)`` — true for
    ``AngleInstance.thetas`` (normalized on construction) and for
    ``relative_polar`` outputs (normalized by ``cartesians_to_polar``), so
    the argsort here equals the one ``CircularSweep`` would compute.
    """

    __slots__ = ("thetas", "n", "order", "sorted_thetas", "rank_of_original",
                 "_sweeps", "_lock")

    def __init__(self, thetas: np.ndarray):
        self.thetas = thetas
        self.n = int(thetas.shape[0])
        self.order = _frozen(np.argsort(thetas, kind="stable"))
        self.sorted_thetas = _frozen(thetas[self.order])
        rank = np.empty(self.n, dtype=np.intp)
        rank[self.order] = np.arange(self.n)
        self.rank_of_original = _frozen(rank)
        self._sweeps: Dict[float, CircularSweep] = {}
        self._lock = threading.Lock()

    def sweep(self, width: float) -> CircularSweep:
        """The memoized sweep over *all* angles at this window width."""
        key = float(width)
        with self._lock:
            sweep = self._sweeps.get(key)
            if sweep is None:
                sweep = CircularSweep.from_sorted(
                    self.thetas, width, self.order,
                    self.sorted_thetas, self.rank_of_original,
                )
                self._sweeps[key] = sweep
            return sweep

    def subset_sweep(self, idx: np.ndarray, width: float) -> CircularSweep:
        """A sweep over ``thetas[idx]`` without re-sorting.

        ``idx`` must be strictly increasing original indices (the
        ``np.flatnonzero`` shape every caller produces).  Restricting the
        global stable order to the subset yields the same permutation as a
        fresh stable argsort of ``thetas[idx]`` — ties keep their original
        relative order in both — so the result is indistinguishable from
        ``CircularSweep(thetas[idx], width)``.  ``O(n)`` instead of
        ``O(m log m)`` plus re-normalization.
        """
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("subset indices must be strictly increasing")
        if idx.size == self.n:
            # Strictly increasing, in range, full length => identity.
            return self.sweep(width)
        mask = np.zeros(self.n, dtype=bool)
        mask[idx] = True
        sub_sorted = self.order[mask[self.order]]  # original ids, sorted order
        pos = np.empty(self.n, dtype=np.intp)
        pos[idx] = np.arange(idx.size)
        sub_order = pos[sub_sorted]  # local ids in sorted order
        rank = np.empty(idx.size, dtype=np.intp)
        rank[sub_order] = np.arange(idx.size)
        return CircularSweep.from_sorted(
            self.thetas[idx], width, sub_order,
            self.thetas[sub_sorted], rank,
        )


class CompiledInstance:
    """Base class for compiled struct-of-arrays instance views.

    Subclasses are cheap to hold and thread-safe to share: all arrays are
    read-only, and the internal memo dictionaries (per-width sweeps,
    per-station views, candidate grids) are guarded by locks so a service
    batch thread and worker threads can use one view concurrently.
    """

    #: ``"angle"`` or ``"sector"`` — mirrors the solver family split.
    kind: str = "?"


class CompiledAngleInstance(CompiledInstance):
    """Compiled view of an :class:`~repro.model.instance.AngleInstance`.

    Attributes
    ----------
    instance:
        The source instance (arrays are shared, not copied).
    order / sorted_thetas / rank_of_original:
        The stable angular sort — identical to what every
        :class:`~repro.geometry.sweep.CircularSweep` over the full customer
        set would recompute.
    demand_prefix / profit_prefix:
        Doubled prefix sums over the sorted order; valid for *every* window
        width because the sorted order does not depend on ``rho`` (feed to
        :meth:`~repro.geometry.sweep.CircularSweep.window_sums_from_prefix`).
    """

    kind = "angle"

    def __init__(self, instance) -> None:
        with _COMPILE_TIMER.time():
            self.instance = instance
            self.n = int(instance.n)
            self._angles = _SortedAngles(instance.thetas)
            self.order = self._angles.order
            self.sorted_thetas = self._angles.sorted_thetas
            self.rank_of_original = self._angles.rank_of_original
            self.demand_prefix = _doubled_prefix(instance.demands[self.order])
            self.profit_prefix = _doubled_prefix(instance.profits[self.order])
            self._grids: Dict[Optional[tuple], np.ndarray] = {}
            self._lock = threading.Lock()

    def sweep(self, width: float) -> CircularSweep:
        """Memoized full-instance sweep at window width ``width``."""
        return self._angles.sweep(width)

    def subset_sweep(self, idx: np.ndarray, width: float) -> CircularSweep:
        """Sweep over the customer subset ``idx`` (strictly increasing)."""
        return self._angles.subset_sweep(idx, width)

    def candidates(self, stacking=None) -> np.ndarray:
        """Memoized canonical rotation-candidate grid (read-only).

        Same contract as
        :func:`repro.packing.canonical.rotation_candidates` over this
        instance's angles and antenna widths; ``stacking`` distinguishes
        grids enriched for stacked windows.
        """
        key = None if stacking is None else tuple(int(s) for s in stacking)
        with self._lock:
            grid = self._grids.get(key)
            if grid is None:
                from repro.packing.canonical import rotation_candidates

                grid = _frozen(
                    rotation_candidates(
                        self.instance.thetas,
                        [a.rho for a in self.instance.antennas],
                        stacking=stacking,
                    )
                )
                self._grids[key] = grid
            return grid


class CompiledStation:
    """Per-station polar view of a sector instance.

    Holds the ``(thetas, rs)`` of every customer relative to the station
    (computed once, previously re-derived by each ``station_polar`` call),
    the stable angular sort over those relative angles, and memoized
    fitting-radius masks per antenna radius.
    """

    def __init__(
        self,
        instance,
        station_id: int,
        polar: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        if polar is None:
            from repro.geometry.points import relative_polar

            st = instance.stations[station_id]
            thetas, rs = relative_polar(
                instance.positions, np.asarray(st.position)
            )
        else:
            # Batched construction (repro.core.backend.batched_station_polar)
            # hands in this station's row of the (m, n) polar matrices —
            # bit-identical to the per-station conversion above.
            thetas, rs = np.ascontiguousarray(polar[0]), np.ascontiguousarray(polar[1])
        self.station_id = int(station_id)
        self.thetas = _frozen(thetas)
        self.rs = _frozen(rs)
        self._angles = _SortedAngles(self.thetas)
        self._masks: Dict[float, np.ndarray] = {}
        self._lock = threading.Lock()

    def fit_mask(self, radius: float) -> np.ndarray:
        """Read-only mask of customers within ``radius`` of the station.

        Uses the same relative slack as
        :meth:`~repro.model.instance.SectorInstance.reachable_mask`.
        """
        key = float(radius)
        with self._lock:
            m = self._masks.get(key)
            if m is None:
                m = _frozen(self.rs <= key * _RADIUS_SLACK)
                self._masks[key] = m
            return m

    def sweep(self, width: float) -> CircularSweep:
        """Memoized sweep over all relative angles at this width."""
        return self._angles.sweep(width)

    def subset_sweep(self, idx: np.ndarray, width: float) -> CircularSweep:
        """Sweep over the customer subset ``idx`` (strictly increasing)."""
        return self._angles.subset_sweep(idx, width)


class CompiledSectorInstance(CompiledInstance):
    """Compiled view of a :class:`~repro.model.instance.SectorInstance`.

    Station views build lazily (a solver touching two of ten stations pays
    for two polar conversions) and the per-antenna eligibility triple that
    the sector solvers share is memoized behind the
    ``phase.sector.eligibility`` timer.
    """

    kind = "sector"

    def __init__(self, instance) -> None:
        with _COMPILE_TIMER.time():
            self.instance = instance
            self.n = int(instance.n)
            self._stations: Dict[int, CompiledStation] = {}
            self._eligibility: Optional[tuple] = None
            self._constraint_masks: object = _UNSET
            self._lock = threading.Lock()

    def station(self, station_id: int) -> CompiledStation:
        """The lazily built, memoized view of one station."""
        key = int(station_id)
        with self._lock:
            view = self._stations.get(key)
            if view is None:
                view = CompiledStation(self.instance, key)
                self._stations[key] = view
            return view

    def ensure_stations(self) -> None:
        """Build every missing station view from one batched polar pass.

        One ``(m, n)`` broadcast conversion
        (:func:`repro.core.backend.batched_station_polar`) replaces ``m``
        separate per-station conversions; each row is bit-identical to
        what :meth:`station` would compute lazily, so views built either
        way are interchangeable.
        """
        m = len(self.instance.stations)
        with self._lock:
            missing = [s for s in range(m) if s not in self._stations]
        if not missing:
            return
        from repro.core.backend import batched_station_polar

        thetas_all, rs_all = batched_station_polar(self.instance)
        with self._lock:
            for s in missing:
                if s not in self._stations:
                    self._stations[s] = CompiledStation(
                        self.instance, s, polar=(thetas_all[s], rs_all[s])
                    )

    def constraint_masks(self) -> Optional[List[np.ndarray]]:
        """Per-station composed constraint masks (memoized; ``None`` = all-pass).

        Composes the instance's ``constraints`` tuple into one read-only
        ``(n,)`` boolean mask per station via the vectorized kernels of
        :func:`repro.model.constraints.compose_station_masks`, fed with
        one :func:`repro.core.backend.station_distances` pass — rows
        bit-identical to the stations' ``rs``, without the angles or
        sorts, so a view that is only verified (a partitioned parent)
        never builds a station view.
        The masks are bit-identical to the scalar reference
        (``backend="python"``), which the tests compare against.
        Unconstrained instances pay one attribute check and memoize
        ``None`` — the pre-pipeline fast path.

        The composition is timed under ``phase.sector.constraints`` (the
        distance pass before it is not, as the station views it replaced
        were not); the ``slow`` test
        ``tests/test_constraints.py::TestComposeOverheadGate`` keeps this
        phase under 10% of the unconstrained ``eligibility()`` compile.
        """
        return self._masks_from_distances(None)

    def _masks_from_distances(
        self, rs_all: Optional[np.ndarray]
    ) -> Optional[List[np.ndarray]]:
        """:meth:`constraint_masks`, composed from the caller's distances.

        ``rs_all`` is ``station_distances(self.instance)`` when the caller
        already holds it (the partitioner, which reads the same rows for
        its reach test), or ``None`` to compute it here on a memo miss.
        """
        with self._lock:
            cached = self._constraint_masks
        if cached is not _UNSET:
            return cached  # type: ignore[return-value]
        if not getattr(self.instance, "constraints", ()):
            with self._lock:
                self._constraint_masks = None
            return None
        from repro.model.constraints import compose_station_masks

        if rs_all is None:
            from repro.core.backend import station_distances

            rs_all = station_distances(self.instance)
        with _CONSTRAINT_TIMER.time():
            composed = compose_station_masks(
                self.instance, rs_all, backend="numpy"
            )
            if composed is not None:
                composed = [_frozen(mask) for mask in composed]
        with self._lock:
            if self._constraint_masks is _UNSET:
                self._constraint_masks = composed
            return self._constraint_masks  # type: ignore[return-value]

    def eligibility(
        self,
    ) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
        """Per-antenna ``(masks, thetas, rs)`` for the global antenna table.

        For global antenna ``g`` at station ``s`` with spec ``a``:
        ``masks[g]`` is the fitting-radius mask ``rs <= a.radius * (1 +
        1e-12)`` ANDed with the station's composed constraint mask
        (:meth:`constraint_masks` — all-pass for unconstrained instances,
        where ``masks[g]`` *is* the memoized fitting mask, unchanged from
        the pre-pipeline code), and ``thetas[g]`` / ``rs[g]`` are the
        station's relative polar arrays.  This is the one place
        constraints enter the solve path: every mask-consuming solver
        honors them without further changes.  Every station is read, so
        the views are built up front by one :meth:`ensure_stations` pass.
        """
        with self._lock:
            cached = self._eligibility
        if cached is not None:
            return cached
        self.ensure_stations()
        cmasks = self.constraint_masks()
        with _ELIG_TIMER.time():
            masks: List[np.ndarray] = []
            thetas: List[np.ndarray] = []
            rs: List[np.ndarray] = []
            for _, s_id, spec in self.instance.antenna_table():
                st = self.station(s_id)
                fit = st.fit_mask(spec.radius)
                if cmasks is not None:
                    fit = _frozen(fit & cmasks[s_id])
                masks.append(fit)
                thetas.append(st.thetas)
                rs.append(st.rs)
            triple = (masks, thetas, rs)
        with self._lock:
            if self._eligibility is None:
                self._eligibility = triple
            return self._eligibility


def compile_instance(instance) -> CompiledInstance:
    """Build the compiled view for an angle or sector instance.

    Prefer ``instance.compile()`` (memoized per object); this factory
    always builds fresh.
    """
    # Duck-typed dispatch keeps this module import-light; the model layer
    # imports us lazily from inside Instance.compile().
    if hasattr(instance, "stations"):
        return CompiledSectorInstance(instance)
    if hasattr(instance, "thetas"):
        return CompiledAngleInstance(instance)
    raise TypeError(
        f"cannot compile {type(instance).__name__}: "
        "expected an AngleInstance or SectorInstance"
    )
