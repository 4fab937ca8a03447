"""The numpy kernels against their scalar references (``docs/BACKENDS.md``).

Three families of guarantees frozen here:

* **kernel identity** — each kernel in :mod:`repro.core.backend` matches
  the scalar loop it replaced, at the identity class its docstring
  claims: bit-identical for `batched_station_polar` and
  `station_distances`, accept-set
  identical for `greedy_prefix_mask` (the sequential scans below are the
  reference loops);
* **pinned values** — the solvers that used to take a ``backend`` knob
  return, through the public engine, the literal values the scalar path
  returned before the knob was retired (caching disabled so each solve
  really runs);
* **staleness guard** — mutating instance arrays after ``compile()``
  raises instead of silently serving a stale view.
"""

import numpy as np
import pytest

from repro.core.backend import (
    batched_station_polar,
    greedy_prefix_mask,
    station_distances,
)
from repro.core.compiled import compile_instance
from repro.engine import SolveRequest, solve
from repro.engine.cache import clear_caches
from repro.geometry.points import relative_polar
from repro.knapsack.api import _fits
from repro.knapsack.greedy import solve_greedy
from repro.model import generators as gen
from repro.model.instance import SectorInstance


# ---------------------------------------------------------------------------
# kernel identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_prefix_mask_matches_sequential_scan(seed):
    rng = np.random.default_rng(seed)
    n = 400
    w = rng.uniform(0.05, 1.0, size=n)
    cap = float(0.3 * w.sum())

    accept = greedy_prefix_mask(w, cap)

    expect = np.zeros(n, dtype=bool)
    remaining = cap
    for i in range(n):
        if _fits(w[i], remaining):
            expect[i] = True
            remaining -= w[i]
    assert np.array_equal(accept, expect)


def test_greedy_prefix_mask_exact_boundary_weights():
    # Weights that exactly fill the capacity: the fits() slack must admit
    # the boundary item on both paths, and reject the one past it.
    w = np.array([0.5, 0.5, 0.5, 0.25, 0.25])
    accept = greedy_prefix_mask(w, 1.0)
    expect = np.zeros(5, dtype=bool)
    remaining = 1.0
    for i in range(5):
        if _fits(w[i], remaining):
            expect[i] = True
            remaining -= w[i]
    assert np.array_equal(accept, expect)
    assert accept[0] and accept[1] and not accept[2]


def test_greedy_prefix_mask_empty_and_nothing_fits():
    assert greedy_prefix_mask(np.array([]), 1.0).size == 0
    assert not greedy_prefix_mask(np.array([5.0, 7.0]), 1.0).any()


@pytest.mark.parametrize(
    "seed, on_station", [(0, False), (1, False), (2, True)],
    ids=["0", "1", "on-station"],
)
def test_batched_station_polar_bit_identical(seed, on_station):
    inst = gen.grid_city(n=80, seed=seed)
    if on_station:
        # Customer 0 moved exactly onto station 0 (r = 0).
        positions = inst.positions.copy()
        positions[0] = inst.stations[0].position
        inst = SectorInstance(
            positions=positions, demands=inst.demands,
            profits=inst.profits, stations=inst.stations,
        )
    thetas_all, rs_all = batched_station_polar(inst)
    distances = station_distances(inst)
    view = compile_instance(inst)
    for s, st in enumerate(inst.stations):
        th, r = relative_polar(
            inst.positions, np.asarray(st.position, dtype=np.float64)
        )
        # Bit identity, not approx: same ufuncs, batched shape.
        assert np.array_equal(thetas_all[s], th)
        assert np.array_equal(rs_all[s], r)
        assert np.array_equal(distances[s], r)
        assert np.array_equal(distances[s], view.station(s).rs)


def test_solve_greedy_matches_scalar_reference():
    rng = np.random.default_rng(11)
    w = rng.uniform(0.05, 1.0, size=500)
    p = rng.uniform(0.05, 1.0, size=500)
    cap = float(0.25 * w.sum())
    # Every item fits alone and has profit, so the reference visits all
    # of them in stable density order.
    chosen = []
    remaining = cap
    for i in np.argsort(-(p / w), kind="stable"):
        if _fits(w[i], remaining):
            chosen.append(i)
            remaining -= w[i]
    res = solve_greedy(w, p, cap)
    assert np.array_equal(np.sort(res.selected), np.sort(chosen))


# ---------------------------------------------------------------------------
# pinned values through the engine
# ---------------------------------------------------------------------------


def _instance_for(family: str, algorithm: str, seed):
    if seed == "duplicate-angles":
        # Duplicate angles stress the sweep's tie handling.
        base = gen.uniform_angles(n=40, k=2, capacity_fraction=0.4, seed=5)
        return type(base)(
            thetas=np.concatenate([base.thetas, base.thetas[:20]]),
            demands=np.concatenate([base.demands, base.demands[:20]]),
            antennas=base.antennas,
        )
    if seed == "empty-sector":
        return gen.grid_city(n=4, grid=1, spacing=2.0, capacity_fraction=1.0,
                             seed=0)
    if family == "angle":
        k = 1 if algorithm == "single" else 3
        return gen.uniform_angles(n=90, k=k, capacity_fraction=0.3, seed=seed)
    if family == "sector":
        return gen.grid_city(n=70, capacity_fraction=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 1.0, size=300)
    p = rng.uniform(0.05, 1.0, size=300)
    return (w, p, float(0.3 * w.sum()))


#: ``(family, algorithm, seed, value)``: the values these solves returned
#: on the scalar path when each solver still took a ``backend`` knob.
PINNED_VALUES = [
    ("angle", "greedy", 0, 63.25560245729908),
    ("angle", "greedy", 1, 59.91427165447211),
    ("angle", "greedy", 2, 58.22708314774628),
    ("angle", "adaptive", 0, 63.25560245729908),
    ("angle", "adaptive", 1, 59.91427165447211),
    ("angle", "adaptive", 2, 58.22708314774628),
    ("angle", "greedy+ls", 0, 63.25560245729908),
    ("angle", "greedy+ls", 1, 59.91427165447211),
    ("angle", "greedy+ls", 2, 58.22708314774628),
    ("angle", "single", 0, 23.206953907246163),
    ("angle", "single", 1, 22.636435408156235),
    ("angle", "single", 2, 21.414187951731552),
    ("sector", "greedy", 0, 74.2787585450679),
    ("sector", "greedy", 1, 68.74668838592753),
    ("sector", "greedy", 2, 70.6120321301943),
    ("sector", "greedy+ls", 0, 74.2787585450679),
    ("sector", "greedy+ls", 1, 68.74668838592753),
    ("sector", "greedy+ls", 2, 70.6120321301943),
    ("sector", "independent", 0, 73.19458012823384),
    ("sector", "independent", 1, 69.84883565477898),
    ("sector", "independent", 2, 70.6120321301943),
    ("knapsack", "greedy", 0, 93.15249200217922),
    ("knapsack", "greedy", 1, 94.01646562294525),
    ("knapsack", "greedy", 2, 98.56263238197073),
    ("angle", "greedy", "duplicate-angles", 32.15709985528459),
    ("sector", "independent", "empty-sector", 4.475663151271794),
]


@pytest.mark.parametrize(
    "family,algorithm,seed,value",
    [pytest.param(*case, id=f"{case[2]}-{case[0]}-{case[1]}")
     for case in PINNED_VALUES],
)
def test_solver_value_pinned(family, algorithm, seed, value):
    report = solve(SolveRequest(
        instance=_instance_for(family, algorithm, seed), family=family,
        algorithm=algorithm, use_cache=False,
    ))
    assert report.value == value


# ---------------------------------------------------------------------------
# staleness guard
# ---------------------------------------------------------------------------


def test_compile_memo_staleness_guard():
    clear_caches()
    inst = gen.uniform_angles(n=30, k=2, seed=9)
    inst.compile()
    # Break the immutability contract on purpose.
    inst.thetas.setflags(write=True)
    inst.thetas[0] += 0.125
    with pytest.raises(RuntimeError, match="mutated"):
        inst.compile()


def test_compile_memo_staleness_guard_catches_permutation():
    # The fingerprint is position-weighted, so a permutation (same sums)
    # must still be caught.
    inst = gen.uniform_angles(n=30, k=2, seed=10)
    inst.compile()
    inst.demands.setflags(write=True)
    inst.demands[:] = inst.demands[::-1].copy()
    with pytest.raises(RuntimeError, match="mutated"):
        inst.compile()
