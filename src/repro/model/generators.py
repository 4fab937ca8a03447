"""Seeded synthetic instance families.

The paper has no public benchmark data (and none is available offline), so
the evaluation runs on synthetic families designed to stress different
regimes of the algorithms:

* ``uniform_angles`` -- customers spread uniformly on the circle: the easy
  regime where greedy is near-optimal.
* ``clustered_angles`` -- von-Mises-style hotspots: rotation placement
  matters; the regime the paper's intro (cellular demand hotspots)
  motivates.
* ``hotspot_angles`` -- one dominant hotspot exceeding a single antenna's
  capacity: overlapping orientations beat disjoint ones.
* ``adversarial_greedy_angles`` -- the textbook worst case that drives
  greedy knapsack packing toward its 1/2 bound.
* ``subset_sum_angles`` -- tight integer demands (knapsack-hard core).
* ``uniform_disk`` / ``clustered_towns`` / ``grid_city`` -- 2-D sector
  families with one or many stations.
* ``power_law_metro`` -- the million-customer scale family: Zipf-sized
  towns spaced so far apart that station reach disks never cross town
  borders, built in streamed numpy chunks (``docs/SCALE.md``).
* ``scenario_metro_blockage`` -- the realistic radio-planning scenario:
  the metro geometry plus ``los_blockage`` wall segments and a
  ``max_assignments`` deployment rule (``docs/SCENARIOS.md``).

All generators take a ``seed`` (or an ``numpy.random.Generator``) and are
fully reproducible.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.geometry.angles import TWO_PI
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance, SectorInstance, Station

RngLike = Union[int, None, np.random.Generator]


def _rng(seed: RngLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _demands(rng: np.random.Generator, n: int, dist: str, scale: float) -> np.ndarray:
    """Draw positive demands from a named distribution."""
    if dist == "uniform":
        return rng.uniform(0.2 * scale, 1.8 * scale, size=n)
    if dist == "exponential":
        return rng.exponential(scale, size=n) + 1e-3 * scale
    if dist == "integer":
        return rng.integers(1, max(2, int(10 * scale)) + 1, size=n).astype(np.float64)
    if dist == "constant":
        return np.full(n, scale, dtype=np.float64)
    if dist == "pareto":
        # Heavy-tailed but finite-mean (shape 2.5): a few customers carry
        # a large share of the demand, the regime power-law city models
        # predict and the large-scale `metro` family uses.
        return (rng.pareto(2.5, size=n) + 0.1) * scale
    raise ValueError(f"unknown demand distribution {dist!r}")


def _uniform_antennas(
    k: int, rho: float, capacity: float, radius: float = math.inf
) -> tuple[AntennaSpec, ...]:
    return tuple(
        AntennaSpec(rho=rho, capacity=capacity, radius=radius, name=f"a{j}")
        for j in range(k)
    )


# ----------------------------------------------------------------------
# 1-D families
# ----------------------------------------------------------------------
def uniform_angles(
    n: int = 60,
    k: int = 3,
    rho: float = math.pi / 3,
    capacity_fraction: float = 0.15,
    demand_dist: str = "uniform",
    demand_scale: float = 1.0,
    seed: RngLike = 0,
) -> AngleInstance:
    """Customers uniform on the circle; ``k`` identical antennas.

    ``capacity_fraction`` sets each antenna's capacity as a fraction of the
    total demand, so tightness is controlled independently of ``n``.
    """
    rng = _rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, size=n)
    demands = _demands(rng, n, demand_dist, demand_scale)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    return AngleInstance(
        thetas=thetas,
        demands=demands,
        antennas=_uniform_antennas(k, rho, capacity),
    )


def clustered_angles(
    n: int = 60,
    k: int = 3,
    clusters: int = 4,
    spread: float = 0.15,
    rho: float = math.pi / 3,
    capacity_fraction: float = 0.15,
    demand_dist: str = "uniform",
    demand_scale: float = 1.0,
    seed: RngLike = 0,
) -> AngleInstance:
    """Customers drawn around ``clusters`` random centers (wrapped normals).

    ``spread`` is the angular standard deviation of each cluster.  This is
    the regime where orientation choice matters most: a good arc swallows a
    whole cluster, a bad one straddles two half-clusters.
    """
    rng = _rng(seed)
    centers = rng.uniform(0.0, TWO_PI, size=clusters)
    which = rng.integers(0, clusters, size=n)
    thetas = np.mod(centers[which] + rng.normal(0.0, spread, size=n), TWO_PI)
    demands = _demands(rng, n, demand_dist, demand_scale)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    return AngleInstance(
        thetas=thetas,
        demands=demands,
        antennas=_uniform_antennas(k, rho, capacity),
    )


def hotspot_angles(
    n: int = 60,
    k: int = 2,
    rho: float = math.pi / 2,
    hotspot_fraction: float = 0.7,
    hotspot_width: float = 0.3,
    capacity_fraction: float = 0.25,
    seed: RngLike = 0,
) -> AngleInstance:
    """One dense hotspot holding ``hotspot_fraction`` of all customers.

    The hotspot's demand deliberately exceeds one antenna's capacity, so
    solutions that may *overlap* arcs (two antennas pointed at the hotspot)
    beat any non-overlapping rotation — the instance family that separates
    the general solvers from the non-overlapping DP.
    """
    rng = _rng(seed)
    n_hot = int(round(hotspot_fraction * n))
    n_bg = n - n_hot
    center = rng.uniform(0.0, TWO_PI)
    hot = np.mod(center + rng.uniform(-hotspot_width / 2, hotspot_width / 2, n_hot), TWO_PI)
    bg = rng.uniform(0.0, TWO_PI, size=n_bg)
    thetas = np.concatenate([hot, bg])
    demands = _demands(rng, n, "uniform", 1.0)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    return AngleInstance(
        thetas=thetas,
        demands=demands,
        antennas=_uniform_antennas(k, rho, capacity),
    )


def adversarial_greedy_angles(
    blocks: int = 4,
    rho: float = 0.5,
    eps: float = 0.01,
    seed: RngLike = 0,
) -> AngleInstance:
    """The greedy-knapsack worst case, tiled around the circle.

    Each block is a tight angular cluster of three items against a
    (single) antenna of capacity 2:

    * a **bait** item, demand ``1 + eps`` and profit ``1 + 2*eps`` — the
      highest profit density, placed in the *middle* of the block so every
      window covering both unit items covers it too;
    * two unit items (demand = profit = 1).

    An optimal packing serves the two unit items (value 2).  The density
    greedy grabs the bait first, after which neither unit item fits, and
    the best single item *is* the bait — value ``1 + 2*eps``, i.e. ratio
    ``(1 + 2*eps)/2``, arbitrarily close to the proven 1/2 bound.  (With
    the paper's profit==demand objective all densities tie and the
    extended greedy provably escapes; exhibiting the bound requires the
    generalized-profit objective, which this family therefore uses.)
    """
    rng = _rng(seed)
    if blocks < 1:
        raise ValueError("need at least one block")
    gap = TWO_PI / blocks
    if rho >= gap:
        raise ValueError("rho must be smaller than the block spacing 2*pi/blocks")
    thetas = []
    demands = []
    profits = []
    for b in range(blocks):
        base = b * gap + rng.uniform(0, 1e-3)
        step = rho / 10.0
        for pos, (d, p) in enumerate(
            ((1.0, 1.0), (1.0 + eps, 1.0 + 2 * eps), (1.0, 1.0))
        ):
            thetas.append((base + pos * step) % TWO_PI)
            demands.append(d)
            profits.append(p)
    return AngleInstance(
        thetas=np.array(thetas),
        demands=np.array(demands),
        profits=np.array(profits),
        antennas=(AntennaSpec(rho=rho, capacity=2.0, name="adv"),),
    )


def subset_sum_angles(
    n: int = 24,
    k: int = 1,
    rho: float = TWO_PI,
    max_demand: int = 50,
    capacity_fraction: float = 0.5,
    seed: RngLike = 0,
) -> AngleInstance:
    """Integer demands with a deliberately tight capacity.

    With ``rho = 2*pi`` this is exactly maximum subset-sum: the NP-hard core
    of the problem with no geometry to hide behind.  Used to validate the
    knapsack engine and the FPTAS guarantee under stress.
    """
    rng = _rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, size=n)
    demands = rng.integers(1, max_demand + 1, size=n).astype(np.float64)
    capacity = max(1.0, np.floor(capacity_fraction * demands.sum()))
    return AngleInstance(
        thetas=thetas,
        demands=demands,
        antennas=_uniform_antennas(k, rho, capacity),
    )


def mixed_antenna_angles(
    n: int = 50,
    widths: Sequence[float] = (math.pi / 6, math.pi / 3, math.pi / 2),
    capacity_fractions: Sequence[float] = (0.1, 0.15, 0.2),
    seed: RngLike = 0,
) -> AngleInstance:
    """Heterogeneous antennas (different widths and capacities)."""
    if len(widths) != len(capacity_fractions):
        raise ValueError("widths and capacity_fractions must align")
    rng = _rng(seed)
    thetas = rng.uniform(0.0, TWO_PI, size=n)
    demands = _demands(rng, n, "uniform", 1.0)
    total = demands.sum()
    antennas = tuple(
        AntennaSpec(rho=w, capacity=max(f * total, demands.min()), name=f"mix{j}")
        for j, (w, f) in enumerate(zip(widths, capacity_fractions))
    )
    return AngleInstance(thetas=thetas, demands=demands, antennas=antennas)


# ----------------------------------------------------------------------
# 2-D families
# ----------------------------------------------------------------------
def uniform_disk(
    n: int = 80,
    k: int = 3,
    rho: float = math.pi / 3,
    radius: float = 10.0,
    capacity_fraction: float = 0.15,
    occupancy: float = 1.2,
    seed: RngLike = 0,
) -> SectorInstance:
    """One central station; customers uniform on a disk of radius ``occupancy * R``.

    With ``occupancy > 1`` some customers are out of reach, exercising the
    radius filter of the 2-D reduction.
    """
    rng = _rng(seed)
    r = radius * occupancy * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    t = rng.uniform(0.0, TWO_PI, size=n)
    positions = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    demands = _demands(rng, n, "uniform", 1.0)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    station = Station(
        position=(0.0, 0.0),
        antennas=_uniform_antennas(k, rho, capacity, radius=radius),
    )
    return SectorInstance(positions=positions, demands=demands, stations=(station,))


def clustered_towns(
    n: int = 120,
    towns: int = 4,
    stations: int = 2,
    k_per_station: int = 2,
    rho: float = math.pi / 2,
    radius: float = 8.0,
    area: float = 20.0,
    capacity_fraction: float = 0.1,
    seed: RngLike = 0,
) -> SectorInstance:
    """Customers in Gaussian towns; stations placed at the largest towns.

    A multi-station family where customers near the midpoint of two
    stations can be served by either — the cross-station assignment
    interaction the 2-D pipeline must resolve.
    """
    rng = _rng(seed)
    centers = rng.uniform(-area / 2, area / 2, size=(towns, 2))
    which = rng.integers(0, towns, size=n)
    positions = centers[which] + rng.normal(0.0, radius / 6.0, size=(n, 2))
    demands = _demands(rng, n, "uniform", 1.0)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    counts = np.bincount(which, minlength=towns)
    big = np.argsort(-counts)[:stations]
    sts = tuple(
        Station(
            position=(float(centers[b, 0]), float(centers[b, 1])),
            antennas=_uniform_antennas(k_per_station, rho, capacity, radius=radius),
        )
        for b in big
    )
    return SectorInstance(positions=positions, demands=demands, stations=sts)


def grid_city(
    n: int = 150,
    grid: int = 2,
    spacing: float = 10.0,
    k_per_station: int = 3,
    rho: float = 2 * math.pi / 3,
    radius: float = 7.5,
    capacity_fraction: float = 0.08,
    seed: RngLike = 0,
) -> SectorInstance:
    """A ``grid x grid`` lattice of stations over uniformly spread customers.

    Models the classical cellular layout (three 120-degree sectors per
    site).  Coverage regions of adjacent stations overlap, so assignment
    must arbitrate shared customers.
    """
    rng = _rng(seed)
    span = spacing * grid
    positions = rng.uniform(-span / 2, span / 2, size=(n, 2))
    demands = _demands(rng, n, "uniform", 1.0)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    coords = (np.arange(grid) - (grid - 1) / 2.0) * spacing
    sts = []
    for gx in coords:
        for gy in coords:
            sts.append(
                Station(
                    position=(float(gx), float(gy)),
                    antennas=_uniform_antennas(
                        k_per_station, rho, capacity, radius=radius
                    ),
                )
            )
    return SectorInstance(positions=positions, demands=demands, stations=tuple(sts))


def macro_micro(
    n: int = 100,
    rho_macro: float = 2 * math.pi / 3,
    rho_micro: float = math.pi / 4,
    radius_macro: float = 12.0,
    radius_micro: float = 4.0,
    capacity_fraction: float = 0.1,
    seed: RngLike = 0,
) -> SectorInstance:
    """One station with heterogeneous antennas: a wide long-range macro
    sector plus two narrow short-range micro sectors.

    Exercises the per-antenna eligibility path of the 2-D solvers (mixed
    radii at one station), which the conservative per-station 1-D
    reduction cannot express.
    """
    rng = _rng(seed)
    r = radius_macro * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    t = rng.uniform(0.0, TWO_PI, size=n)
    positions = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    demands = _demands(rng, n, "uniform", 1.0)
    capacity = max(capacity_fraction * demands.sum(), demands.min())
    station = Station(
        position=(0.0, 0.0),
        antennas=(
            AntennaSpec(rho=rho_macro, capacity=2 * capacity, radius=radius_macro,
                        name="macro"),
            AntennaSpec(rho=rho_micro, capacity=capacity, radius=radius_micro,
                        name="micro0"),
            AntennaSpec(rho=rho_micro, capacity=capacity, radius=radius_micro,
                        name="micro1"),
        ),
    )
    return SectorInstance(positions=positions, demands=demands, stations=(station,))


def power_law_metro(
    n: int = 10_000,
    towns: int = 8,
    stations_per_town: int = 1,
    k_per_station: int = 2,
    rho: float = math.pi / 2,
    radius: float = 6.0,
    town_spacing: float = 40.0,
    alpha: float = 1.0,
    demand_dist: str = "pareto",
    capacity_fraction: float = 0.2,
    chunk: int = 1 << 16,
    seed: RngLike = 0,
) -> SectorInstance:
    """Million-customer metro family: Zipf towns, power-law demand.

    Capacities default deliberately *loose* (``capacity_fraction = 0.2``
    of total demand per antenna, well above any single sector window's
    demand): at this scale the binding constraint is angular coverage,
    not the knapsack core, which keeps the inner rotation searches on
    their everything-fits fast path instead of invoking an exact oracle
    on thousands of continuous demands per window.  Drop the fraction to
    study the capacity-tight regime at smaller ``n``.

    Built for the scale benchmarks (``docs/SCALE.md``): ``towns`` centers
    sit on a grid spaced ``town_spacing`` apart with
    ``town_spacing > 4 * radius``, so station reach disks of different
    towns can never overlap — the reach-components partition of
    :mod:`repro.engine.partition` recovers exactly the towns.  Town sizes
    follow a Zipf law with exponent ``alpha`` (one dominant metro, a long
    tail of suburbs) and demands default to a heavy-tailed Pareto draw.

    Construction is *streamed*: customers are generated town by town in
    numpy chunks of at most ``chunk`` rows and concatenated once — no
    per-customer python objects are ever materialized, so ``n`` up to
    10**6 stays cheap (a few O(n) array passes).
    """
    if towns < 1:
        raise ValueError("need at least one town")
    if town_spacing <= 4.0 * radius:
        raise ValueError(
            "town_spacing must exceed 4 * radius so reach components "
            "coincide with towns"
        )
    rng = _rng(seed)
    side = int(math.ceil(math.sqrt(towns)))
    grid_x, grid_y = np.divmod(np.arange(towns), side)
    centers = np.stack([grid_x, grid_y], axis=1).astype(np.float64) * town_spacing
    # Zipf town weights: town t gets weight (t+1)^-alpha.
    weights = (np.arange(1, towns + 1, dtype=np.float64)) ** (-alpha)
    weights /= weights.sum()
    counts = rng.multinomial(n, weights)

    pos_chunks = []
    demand_chunks = []
    spread = radius / 2.5
    for t in range(towns):
        # Two sequential chunk loops per town — all position chunks, then
        # all demand chunks.  Generator draws are element-sequential, so
        # splitting one draw into consecutive chunked draws concatenates
        # to the same stream: the instance is invariant to `chunk`
        # (regression-tested), which interleaving positions and demands
        # per chunk was not.
        left = int(counts[t])
        while left > 0:
            took = min(left, int(chunk))
            pos_chunks.append(centers[t] + rng.normal(0.0, spread, size=(took, 2)))
            left -= took
        left = int(counts[t])
        while left > 0:
            took = min(left, int(chunk))
            demand_chunks.append(_demands(rng, took, demand_dist, 1.0))
            left -= took
    if pos_chunks:
        positions = np.concatenate(pos_chunks, axis=0)
        demands = np.concatenate(demand_chunks)
    else:  # pragma: no cover - n == 0 is rejected by instance validation
        positions = np.zeros((0, 2))
        demands = np.zeros(0)

    capacity = max(
        capacity_fraction * float(demands.sum()),
        float(demands.max()) if n else 1.0,
    )
    sts = []
    for t in range(towns):
        for s in range(stations_per_town):
            angle = TWO_PI * s / max(1, stations_per_town)
            offset = (radius / 3.0) * np.array([math.cos(angle), math.sin(angle)])
            px, py = centers[t] + (offset if stations_per_town > 1 else 0.0)
            sts.append(Station(
                position=(float(px), float(py)),
                antennas=_uniform_antennas(k_per_station, rho, capacity,
                                           radius=radius),
            ))
    return SectorInstance(positions=positions, demands=demands,
                          stations=tuple(sts))


def scenario_metro_blockage(
    n: int = 2_000,
    towns: int = 4,
    stations_per_town: int = 2,
    k_per_station: int = 2,
    rho: float = math.pi / 2,
    radius: float = 6.0,
    town_spacing: float = 40.0,
    alpha: float = 1.0,
    demand_dist: str = "pareto",
    capacity_fraction: float = 0.2,
    segments_per_town: int = 3,
    segment_length: float = 4.0,
    max_assignments: int = 2,
    chunk: int = 1 << 16,
    seed: RngLike = 0,
) -> SectorInstance:
    """Realistic radio-planning scenario: metro + blockage + deployment rules.

    The first scenario-pack family (``docs/SCENARIOS.md``): the
    :func:`power_law_metro` geometry with eligibility constraints layered
    on top —

    * ``segments_per_town`` random *blockage segments* (walls, ridgelines)
      per town, each of length ``segment_length`` at a uniform angle, with
      midpoints scattered around the town center at the customer spread,
      compiled into one ``los_blockage`` constraint;
    * a ``max_assignments`` deployment rule (attach only to the
      ``max_assignments`` nearest reaching stations; ``0`` disables it) —
      only binding when a town holds more stations than the limit.

    The constraint specs are *global* (every sub-instance of a partition
    carries the same tuple), so reach-component decomposition stays exact
    — see ``docs/SCENARIOS.md`` for the argument.  Same streamed-chunk
    construction, same seeded reproducibility as the metro family.
    """
    from repro.model.constraints import Constraint, LosBlockage, MaxAssignments

    rng = _rng(seed)
    base = power_law_metro(
        n=n,
        towns=towns,
        stations_per_town=stations_per_town,
        k_per_station=k_per_station,
        rho=rho,
        radius=radius,
        town_spacing=town_spacing,
        alpha=alpha,
        demand_dist=demand_dist,
        capacity_fraction=capacity_fraction,
        chunk=chunk,
        seed=rng,
    )
    if segments_per_town < 0:
        raise ValueError("segments_per_town must be >= 0")
    side = int(math.ceil(math.sqrt(towns)))
    grid_x, grid_y = np.divmod(np.arange(towns), side)
    centers = np.stack([grid_x, grid_y], axis=1).astype(np.float64) * town_spacing
    spread = radius / 2.5
    segments = []
    for t in range(towns):
        if segments_per_town == 0:
            continue
        mids = centers[t] + rng.normal(0.0, spread, size=(segments_per_town, 2))
        angles = rng.uniform(0.0, TWO_PI, size=segments_per_town)
        half = 0.5 * float(segment_length)
        dx = half * np.cos(angles)
        dy = half * np.sin(angles)
        for j in range(segments_per_town):
            segments.append((
                float(mids[j, 0] - dx[j]), float(mids[j, 1] - dy[j]),
                float(mids[j, 0] + dx[j]), float(mids[j, 1] + dy[j]),
            ))
    constraints: tuple[Constraint, ...] = ()
    if segments:
        constraints += (LosBlockage(segments=tuple(segments)),)
    if max_assignments:
        constraints += (MaxAssignments(limit=int(max_assignments)),)
    return SectorInstance(
        positions=base.positions,
        demands=base.demands,
        profits=base.profits,
        stations=base.stations,
        constraints=constraints,
    )


#: Name → callable registry used by the CLI and the experiment harness.
ANGLE_FAMILIES = {
    "uniform": uniform_angles,
    "clustered": clustered_angles,
    "hotspot": hotspot_angles,
    "adversarial": adversarial_greedy_angles,
    "subset_sum": subset_sum_angles,
    "mixed": mixed_antenna_angles,
}

SECTOR_FAMILIES = {
    "disk": uniform_disk,
    "towns": clustered_towns,
    "grid": grid_city,
    "macro_micro": macro_micro,
    "metro": power_law_metro,
    "scenario": scenario_metro_blockage,
}
