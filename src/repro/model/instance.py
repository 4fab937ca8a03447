"""Problem instances: packing to angles (1-D) and packing to sectors (2-D).

Both instance classes are immutable-by-convention: their arrays are marked
read-only, and all "modification" methods return new instances.  Customers
live in parallel arrays (struct-of-arrays, per the HPC guides) so the
solvers can vectorize membership and prefix-sum computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.angles import normalize_angles
from repro.geometry.points import relative_polar
from repro.model.antenna import AntennaSpec
from repro.model.customer import Customer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports model users)
    from repro.core.compiled import CompiledAngleInstance, CompiledSectorInstance
    from repro.model.constraints import Constraint


class InvalidInstanceError(ValueError):
    """An instance failed validation; ``field`` names the offending input.

    Raised at construction and deserialization time so malformed data
    (NaN/negative demands, non-finite coordinates, out-of-range angles)
    is rejected at the boundary with a precise message instead of
    surfacing as solver misbehaviour deep inside a run.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"invalid instance field {field!r}: {message}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Adopt ``arr`` as an immutable float64 array.

    Arrays that are *already* read-only float64 are adopted as-is instead
    of being copied: the caller has given up write access, so sharing the
    buffer is safe.  This is what lets the partitioner
    (:mod:`repro.engine.partition`) build per-partition sub-instances as
    contiguous *views* of one permuted struct-of-arrays without paying a
    second O(n) copy per array per partition.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == np.float64
        and not arr.flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _compile_token(*arrays: np.ndarray) -> tuple:
    """Cheap content fingerprint guarding the ``compile()`` memo.

    Instance arrays are read-only by construction, but numpy cannot stop a
    caller that owns the buffer from re-enabling ``writeable`` and
    mutating in place — which would silently desynchronize the memoized
    compiled view (stale sorts, stale prefix sums, wrong answers).  Two
    O(n) reductions per array (plain sum + position-weighted sum, so
    permutations are caught too) make the memo self-checking at a cost
    far below one compile.  See ``docs/ARCHITECTURE.md`` (immutability
    contract); collisions are possible in principle but require a
    mutation preserving both reductions of some array.
    """
    parts = []
    for arr in arrays:
        a = np.asarray(arr, dtype=np.float64).ravel()
        parts.append(float(a.sum()))
        parts.append(
            float(np.dot(a, np.arange(1, a.size + 1, dtype=np.float64)))
            if a.size
            else 0.0
        )
    return tuple(parts)


def _validate_customer_arrays(
    demands: np.ndarray, profits: np.ndarray, n: int
) -> None:
    if demands.shape != (n,):
        raise InvalidInstanceError(
            "demands", f"must have shape ({n},), got {demands.shape}"
        )
    if profits.shape != (n,):
        raise InvalidInstanceError(
            "profits", f"must have shape ({n},), got {profits.shape}"
        )
    if n and (~np.isfinite(demands)).any():
        bad = int(np.flatnonzero(~np.isfinite(demands))[0])
        raise InvalidInstanceError(
            "demands", f"must be finite (entry {bad} is {demands[bad]})"
        )
    if n and (~np.isfinite(profits)).any():
        bad = int(np.flatnonzero(~np.isfinite(profits))[0])
        raise InvalidInstanceError(
            "profits", f"must be finite (entry {bad} is {profits[bad]})"
        )
    if n and (demands <= 0).any():
        bad = int(np.flatnonzero(demands <= 0)[0])
        raise InvalidInstanceError(
            "demands", f"must be positive (entry {bad} is {demands[bad]})"
        )
    if n and (profits <= 0).any():
        bad = int(np.flatnonzero(profits <= 0)[0])
        raise InvalidInstanceError(
            "profits", f"must be positive (entry {bad} is {profits[bad]})"
        )


@dataclass(frozen=True)
class AngleInstance:
    """Packing-to-angles instance: customers on a circle, arcs with capacity.

    Parameters
    ----------
    thetas:
        ``(n,)`` customer angles in radians (normalized on construction).
    demands:
        ``(n,)`` positive demands.
    antennas:
        One :class:`AntennaSpec` per antenna; at least one.  Radii are
        ignored in the 1-D problem (every customer is reachable).
    profits:
        ``(n,)`` positive profits; defaults to ``demands`` (the paper's
        maximize-served-demand objective).
    """

    thetas: np.ndarray
    demands: np.ndarray
    antennas: Tuple[AntennaSpec, ...]
    profits: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        raw_thetas = np.asarray(self.thetas, dtype=np.float64)
        if raw_thetas.size and (~np.isfinite(raw_thetas)).any():
            bad = int(np.flatnonzero(~np.isfinite(raw_thetas))[0])
            raise InvalidInstanceError(
                "thetas", f"must be finite (entry {bad} is {raw_thetas[bad]})"
            )
        thetas = normalize_angles(raw_thetas)
        demands = np.asarray(self.demands, dtype=np.float64)
        n = thetas.shape[0]
        profits = (
            demands.copy()
            if self.profits is None
            else np.asarray(self.profits, dtype=np.float64)
        )
        if thetas.ndim != 1:
            raise ValueError(f"thetas must be 1-D, got shape {thetas.shape}")
        _validate_customer_arrays(demands, profits, n)
        antennas = tuple(self.antennas)
        if not antennas:
            raise ValueError("instance needs at least one antenna")
        if not all(isinstance(a, AntennaSpec) for a in antennas):
            raise TypeError("antennas must be AntennaSpec objects")
        object.__setattr__(self, "thetas", _readonly(thetas))
        object.__setattr__(self, "demands", _readonly(demands))
        object.__setattr__(self, "profits", _readonly(profits))
        object.__setattr__(self, "antennas", antennas)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_customers(
        cls, customers: Sequence[Customer], antennas: Sequence[AntennaSpec]
    ) -> "AngleInstance":
        """Build from :class:`Customer` records (must all be angular)."""
        if any(not c.is_angular for c in customers):
            raise ValueError("AngleInstance requires angular customers (theta set)")
        return cls(
            thetas=np.array([c.theta for c in customers], dtype=np.float64),
            demands=np.array([c.demand for c in customers], dtype=np.float64),
            profits=np.array([c.profit for c in customers], dtype=np.float64),
            antennas=tuple(antennas),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of customers."""
        return int(self.thetas.shape[0])

    @property
    def k(self) -> int:
        """Number of antennas."""
        return len(self.antennas)

    @property
    def capacities(self) -> np.ndarray:
        """``(k,)`` vector of antenna capacities."""
        return np.array([a.capacity for a in self.antennas], dtype=np.float64)

    @property
    def widths(self) -> np.ndarray:
        """``(k,)`` vector of antenna angular widths."""
        return np.array([a.rho for a in self.antennas], dtype=np.float64)

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    @property
    def total_profit(self) -> float:
        return float(self.profits.sum())

    @property
    def has_uniform_antennas(self) -> bool:
        """True when all antennas share width and capacity."""
        first = self.antennas[0]
        return all(
            a.rho == first.rho and a.capacity == first.capacity
            for a in self.antennas
        )

    @property
    def profit_equals_demand(self) -> bool:
        """True for the paper's objective (profit == demand)."""
        return bool(np.array_equal(self.profits, self.demands))

    # ------------------------------------------------------------------
    # Derived instances
    # ------------------------------------------------------------------
    def restrict(self, indices: np.ndarray) -> Tuple["AngleInstance", np.ndarray]:
        """Sub-instance over the given customer indices.

        Returns ``(sub_instance, original_indices)`` where
        ``original_indices[j]`` is the index in *this* instance of the
        ``j``-th customer of the sub-instance.
        """
        idx = np.asarray(indices)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        idx = idx.astype(np.intp)
        sub = AngleInstance(
            thetas=self.thetas[idx],
            demands=self.demands[idx],
            profits=self.profits[idx],
            antennas=self.antennas,
        )
        return sub, idx

    def with_antennas(self, antennas: Sequence[AntennaSpec]) -> "AngleInstance":
        """Same customers, different antenna set."""
        return AngleInstance(
            thetas=self.thetas,
            demands=self.demands,
            profits=self.profits,
            antennas=tuple(antennas),
        )

    def compile(self) -> "CompiledAngleInstance":
        """The memoized compiled view of this instance.

        Builds the :class:`~repro.core.compiled.CompiledAngleInstance`
        struct-of-arrays view (stable angular sort, demand/profit prefix
        sums, per-width sweeps, candidate grids) on first call and caches
        it on the object.  This is the only compile memo: every solver,
        bound and verifier reads it, and no process-wide cache is
        consulted.  The engine shares it across equal-content instances by
        solving on one interned canonical object
        (:func:`repro.engine.cache.intern_instance`).

        The memo assumes the instance arrays are immutable (they are
        created read-only); a cheap content fingerprint re-checked on
        every memo hit raises ``RuntimeError`` if they were mutated in
        place anyway, so a stale view can never serve wrong answers.
        """
        token = _compile_token(self.thetas, self.demands, self.profits)
        view = self.__dict__.get("_compiled")
        if view is None:
            from repro.core.compiled import compile_instance

            view = compile_instance(self)
            object.__setattr__(self, "_compiled", view)
            object.__setattr__(self, "_compile_token", token)
        elif self.__dict__.get("_compile_token") != token:
            raise RuntimeError(
                "AngleInstance arrays were mutated after compile(); the "
                "memoized compiled view is stale. Instance arrays are "
                "immutable by contract (docs/ARCHITECTURE.md) — build a "
                "new instance instead of writing in place."
            )
        return view

    def __getstate__(self) -> dict:
        # The compiled view is derived data: drop it (and its staleness
        # token) from pickles — worker processes rebuild on demand instead
        # of shipping sweeps around.
        return {
            k: v for k, v in self.__dict__.items()
            if k not in ("_compiled", "_compile_token")
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AngleInstance):
            return NotImplemented
        return (
            np.array_equal(self.thetas, other.thetas)
            and np.array_equal(self.demands, other.demands)
            and np.array_equal(self.profits, other.profits)
            and self.antennas == other.antennas
        )

    def __hash__(self) -> int:  # dataclass(frozen) would use fields; arrays unhashable
        return hash((self.n, self.k, float(self.demands.sum()) if self.n else 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AngleInstance(n={self.n}, k={self.k}, total_demand={self.total_demand:.3f})"


@dataclass(frozen=True)
class Station:
    """A base station: a position holding one or more antennas.

    All antennas of a sector instance must have finite radii (otherwise the
    sector is unbounded and the 2-D problem degenerates to the 1-D one).
    """

    position: Tuple[float, float]
    antennas: Tuple[AntennaSpec, ...]

    def __post_init__(self) -> None:
        x, y = self.position
        object.__setattr__(self, "position", (float(x), float(y)))
        antennas = tuple(self.antennas)
        if not antennas:
            raise ValueError("a station needs at least one antenna")
        if any(math.isinf(a.radius) for a in antennas):
            raise ValueError("sector-instance antennas need finite radii")
        object.__setattr__(self, "antennas", antennas)

    @property
    def k(self) -> int:
        return len(self.antennas)

    @property
    def max_radius(self) -> float:
        return max(a.radius for a in self.antennas)


@dataclass(frozen=True)
class SectorInstance:
    """Packing-to-sectors instance: planar customers, stations with antennas.

    Parameters
    ----------
    positions:
        ``(n, 2)`` customer positions.
    demands / profits:
        As in :class:`AngleInstance`.
    stations:
        At least one :class:`Station`.
    constraints:
        Optional tuple of :class:`~repro.model.constraints.Constraint`
        specs (``reach``, ``los_blockage``, ``max_assignments``, …).
        They compose by AND into per-(station, customer) effective
        eligibility masks at compile time; the empty default is the
        paper's pure-reach model and solves bit-identically to the
        pre-pipeline code.  Grammar and semantics: ``docs/SCENARIOS.md``.
    """

    positions: np.ndarray
    demands: np.ndarray
    stations: Tuple[Station, ...]
    profits: Optional[np.ndarray] = None
    constraints: Tuple["Constraint", ...] = ()

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise InvalidInstanceError(
                "positions", f"must have shape (n, 2), got {pos.shape}"
            )
        if pos.size and (~np.isfinite(pos)).any():
            bad = int(np.flatnonzero(~np.isfinite(pos).all(axis=1))[0])
            raise InvalidInstanceError(
                "positions", f"must be finite (row {bad} is {pos[bad].tolist()})"
            )
        n = pos.shape[0]
        demands = np.asarray(self.demands, dtype=np.float64)
        profits = (
            demands.copy()
            if self.profits is None
            else np.asarray(self.profits, dtype=np.float64)
        )
        _validate_customer_arrays(demands, profits, n)
        stations = tuple(self.stations)
        if not stations:
            raise ValueError("instance needs at least one station")
        if not all(isinstance(s, Station) for s in stations):
            raise TypeError("stations must be Station objects")
        object.__setattr__(self, "positions", _readonly(pos))
        object.__setattr__(self, "demands", _readonly(demands))
        object.__setattr__(self, "profits", _readonly(profits))
        object.__setattr__(self, "stations", stations)
        if self.constraints:
            # Lazy import: constraints.py imports InvalidInstanceError from
            # this module, so the dependency must point one way at import
            # time.  The empty default skips the import entirely.
            from repro.model.constraints import validate_constraints

            object.__setattr__(
                self, "constraints", validate_constraints(self.constraints)
            )
        else:
            object.__setattr__(self, "constraints", ())

    @classmethod
    def from_customers(
        cls, customers: Sequence[Customer], stations: Sequence[Station]
    ) -> "SectorInstance":
        """Build from :class:`Customer` records (must all be planar)."""
        if any(c.is_angular for c in customers):
            raise ValueError("SectorInstance requires planar customers (position set)")
        return cls(
            positions=np.array([c.position for c in customers], dtype=np.float64),
            demands=np.array([c.demand for c in customers], dtype=np.float64),
            profits=np.array([c.profit for c in customers], dtype=np.float64),
            stations=tuple(stations),
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    @property
    def m(self) -> int:
        """Number of stations."""
        return len(self.stations)

    @property
    def total_antennas(self) -> int:
        return sum(s.k for s in self.stations)

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

    @property
    def total_profit(self) -> float:
        return float(self.profits.sum())

    def antenna_table(self) -> list[tuple[int, int, AntennaSpec]]:
        """Global antenna enumeration: ``(global_id, station_id, spec)``.

        Global ids are assigned station by station in declaration order and
        are the antenna indices used by :class:`SectorSolution`.
        """
        table = []
        g = 0
        for s_id, st in enumerate(self.stations):
            for spec in st.antennas:
                table.append((g, s_id, spec))
                g += 1
        return table

    # ------------------------------------------------------------------
    # Per-station geometry
    # ------------------------------------------------------------------
    def station_polar(self, station_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(thetas, rs)`` of every customer relative to the station."""
        st = self.stations[station_id]
        return relative_polar(self.positions, np.asarray(st.position))

    def reachable_mask(self, station_id: int, radius: Optional[float] = None) -> np.ndarray:
        """Customers within ``radius`` (default: station max) of the station."""
        st = self.stations[station_id]
        r = st.max_radius if radius is None else radius
        _, rs = self.station_polar(station_id)
        return rs <= r * (1.0 + 1e-12)

    def station_angle_instance(
        self, station_id: int
    ) -> Tuple[AngleInstance, np.ndarray]:
        """Reduce one station to a 1-D angle instance.

        Keeps only customers within the station's *minimum* antenna radius
        when radii differ (the conservative reduction that is exact for the
        common equal-radius case), and returns the original customer
        indices alongside.  Mixed-radius stations are handled exactly by
        the 2-D solvers in :mod:`repro.packing.sectors`, which work with
        per-antenna eligibility masks instead.
        """
        st = self.stations[station_id]
        r_min = min(a.radius for a in st.antennas)
        thetas, rs = self.station_polar(station_id)
        mask = rs <= r_min * (1.0 + 1e-12)
        idx = np.flatnonzero(mask)
        sub = AngleInstance(
            thetas=thetas[idx],
            demands=self.demands[idx],
            profits=self.profits[idx],
            antennas=st.antennas,
        )
        return sub, idx

    def compile(self) -> "CompiledSectorInstance":
        """The memoized compiled view of this instance.

        Station polar conversions, fitting-radius masks and the shared
        eligibility triple live on the returned
        :class:`~repro.core.compiled.CompiledSectorInstance`; see
        :meth:`AngleInstance.compile` for the memoization contract
        (including the in-place-mutation staleness guard).
        """
        token = _compile_token(self.positions, self.demands, self.profits)
        view = self.__dict__.get("_compiled")
        if view is None:
            from repro.core.compiled import compile_instance

            view = compile_instance(self)
            object.__setattr__(self, "_compiled", view)
            object.__setattr__(self, "_compile_token", token)
        elif self.__dict__.get("_compile_token") != token:
            raise RuntimeError(
                "SectorInstance arrays were mutated after compile(); the "
                "memoized compiled view is stale. Instance arrays are "
                "immutable by contract (docs/ARCHITECTURE.md) — build a "
                "new instance instead of writing in place."
            )
        return view

    def __getstate__(self) -> dict:
        # Derived data: never pickle the compiled view (see AngleInstance).
        return {
            k: v for k, v in self.__dict__.items()
            if k not in ("_compiled", "_compile_token")
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectorInstance):
            return NotImplemented
        return (
            np.array_equal(self.positions, other.positions)
            and np.array_equal(self.demands, other.demands)
            and np.array_equal(self.profits, other.profits)
            and self.stations == other.stations
            and self.constraints == other.constraints
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m, float(self.demands.sum()) if self.n else 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SectorInstance(n={self.n}, stations={self.m}, "
            f"antennas={self.total_antennas}, total_demand={self.total_demand:.3f})"
        )
