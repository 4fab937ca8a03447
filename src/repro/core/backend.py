"""Vectorized numpy kernels for the hot loops of the compiled core.

The compiled layer (:mod:`repro.core.compiled`) stores struct-of-arrays
views — argsorted angles, doubled prefix sums, per-station polar arrays,
density orders.  The kernels here replace the consumer loops where the
vectorized form measured faster (``docs/BACKENDS.md`` holds the table):

* :func:`greedy_prefix_mask` — the sequential acceptance loop of the
  extended density greedy (:func:`repro.knapsack.greedy.solve_greedy`),
  replayed with cumulative sums in a handful of vectorized rounds;
* :func:`batched_station_polar` — every station's polar conversion of
  :class:`repro.core.compiled.CompiledSectorInstance`, batched into one
  ``(m, n)`` pass;
* :func:`station_distances` — the distance half of that conversion
  alone, the only input constraint composition and the partitioner read;
* :func:`los_blocked` / :func:`topk_station_mask` — the constraint-mask
  composition kernels of :mod:`repro.model.constraints`
  (``docs/SCENARIOS.md``): per-station line-of-sight occlusion against a
  segment set, and the per-customer top-``k`` nearest-reaching-station
  membership mask.

**Contract**: the solve path always runs these kernels, and each is
checked against a scalar reference loop — bit-identical for
``batched_station_polar``, ``station_distances``, ``los_blocked`` and
``topk_station_mask``
(elementwise ufuncs batched over a different shape; the scalar
references are the per-pair primitives of :mod:`repro.model.constraints`
and :func:`repro.geometry.points.relative_polar`), accept-set identical
for ``greedy_prefix_mask`` except at adversarial ulp boundaries.  The
tests in ``tests/test_backend.py`` and ``tests/test_constraints.py`` hold
the references.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.numerics import FIT_SLACK, fits

__all__ = [
    "greedy_prefix_mask",
    "batched_station_polar",
    "station_distances",
    "los_blocked",
    "topk_station_mask",
]


def _fits_elementwise(weight: np.ndarray, remaining: np.ndarray) -> np.ndarray:
    """:func:`repro.numerics.fits` with an *array* ``remaining``.

    Same expression, same ``FIT_SLACK``; the scalar original only
    broadcasts over ``weight`` (its slack term calls ``max``/``abs`` on
    the remaining capacity), so the per-position variant lives here.
    """
    return weight <= remaining + FIT_SLACK * np.maximum(1.0, np.abs(remaining))


def greedy_prefix_mask(weights: np.ndarray, capacity: float) -> np.ndarray:
    """Accept mask of the extended density greedy, in vectorized rounds.

    ``weights`` must already be in visit order (the stable density order
    of :func:`repro.knapsack.greedy.solve_greedy` over the useful items).  Reproduces the sequential scan "take while it fits, keep
    scanning past misfits": each round accepts the longest fitting prefix
    via one cumulative sum, drops the first misfit, and discards every
    remaining item that can no longer fit the (monotonically shrinking)
    remaining capacity — an item rejected now is rejected forever because
    the :func:`repro.numerics.fits` threshold is monotone in the
    remaining capacity.  Each round accepts at least one item, so the
    number of rounds is bounded by the accepted count (typically a
    handful) rather than ``n``.

    The remaining capacity is tracked through cumulative sums instead of
    one scalar subtraction per item; the shared ``FIT_SLACK`` admission
    band absorbs the one-ulp summation-order differences, so the accept
    set matches the scalar loop on everything but adversarially
    ulp-boundary weights (``tests/test_backend.py`` keeps that loop as
    the reference and asserts equality).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    accept = np.zeros(n, dtype=bool)
    cap = float(capacity)
    active = np.arange(n)
    spent = 0.0
    while active.size:
        wa = w[active]
        csum = np.cumsum(wa)
        rem_before = (cap - spent) - (csum - wa)
        ok = _fits_elementwise(wa, rem_before)
        bad = np.flatnonzero(~ok)
        if bad.size == 0:
            accept[active] = True
            break
        cut = int(bad[0])
        accept[active[:cut]] = True
        if cut > 0:
            spent += float(csum[cut - 1])
        tail = active[cut + 1:]
        tail = tail[fits(w[tail], cap - spent)]
        active = tail
    return accept


def batched_station_polar(instance) -> Tuple[np.ndarray, np.ndarray]:
    """Relative polar of every customer to every station, in one pass.

    Returns ``(thetas, rs)`` of shape ``(m, n)``; row ``s`` is
    bit-identical to ``relative_polar(positions, stations[s].position)``
    because the batch merely reshapes the inputs of the same elementwise
    ufuncs (subtract, hypot, arctan2, angle normalization).
    """
    from repro.geometry.points import cartesians_to_polar

    positions = np.asarray(instance.positions, dtype=np.float64)
    centers = np.asarray([s.position for s in instance.stations], np.float64)
    m = centers.shape[0]
    n = positions.shape[0]
    diff = positions[None, :, :] - centers[:, None, :]
    thetas, rs = cartesians_to_polar(diff.reshape(m * n, 2))
    return thetas.reshape(m, n), rs.reshape(m, n)


def station_distances(instance) -> np.ndarray:
    """Distance of every customer to every station, without the angles.

    Returns an ``(m, n)`` array; row ``s`` is ``np.hypot(xs - px, ys -
    py)`` for station ``s`` at ``(px, py)`` — the same subtract and
    hypot as ``relative_polar(positions, stations[s].position)[1]``, so
    it is bit-identical to that and to ``CompiledStation.rs``.  Rows are
    written one station at a time into the preallocated result, so the
    temporaries stay two length-``n`` arrays.
    """
    xy = np.asarray(instance.positions, dtype=np.float64)
    centers = np.asarray([s.position for s in instance.stations], np.float64)
    out = np.empty((centers.shape[0], xy.shape[0]), dtype=np.float64)
    for row, (px, py) in zip(out, centers):
        np.hypot(xy[:, 0] - px, xy[:, 1] - py, out=row)
    return out


def los_blocked(
    sx: float, sy: float, positions: np.ndarray, segments: np.ndarray
) -> np.ndarray:
    """Customers whose line of sight to station ``(sx, sy)`` is occluded.

    ``positions`` is the ``(n, 2)`` customer array, ``segments`` the
    ``(k, 4)`` blockage-segment array of ``(x1, y1, x2, y2)`` rows
    (:class:`repro.model.constraints.LosBlockage`).  A customer is
    blocked iff its open station→customer segment *properly crosses* any
    blockage segment — four strict orientation sign tests, written with
    the exact subtract/multiply expressions of the scalar primitive
    ``repro.model.constraints._cross_sign`` so the ``(n,)`` boolean
    result is bit-identical to the per-pair loop (touching endpoints and
    collinear overlap do not block in either path).
    """
    positions = np.asarray(positions, dtype=np.float64)
    segments = np.asarray(segments, dtype=np.float64).reshape(-1, 4)
    n = positions.shape[0]
    if segments.shape[0] == 0 or n == 0:
        return np.zeros(n, dtype=bool)
    x1 = segments[:, 0][:, None]
    y1 = segments[:, 1][:, None]
    x2 = segments[:, 2][:, None]
    y2 = segments[:, 3][:, None]
    cx = positions[:, 0][None, :]
    cy = positions[:, 1][None, :]
    # The three (k, n) scratch buffers below are reused via out= — the
    # subtract/multiply op order matches the scalar ``_cross_sign``
    # expression exactly, so buffer reuse changes no result bit.
    # d1: orientation of the station about each blockage segment
    # ((k, 1), broadcast over customers); d2: of each customer ((k, n)).
    d1 = (x2 - x1) * (sy - y1) - (y2 - y1) * (sx - x1)
    t1 = np.multiply(x2 - x1, np.subtract(cy, y1))
    t2 = np.multiply(y2 - y1, np.subtract(cx, x1))
    d2 = np.subtract(t1, t2, out=t1)
    crossed = np.multiply(d1, d2, out=d2) < 0.0
    # d3/d4: orientation of each blockage endpoint about station→customer.
    ux = cx - sx
    uy = cy - sy
    d3 = np.subtract(
        np.multiply(ux, y1 - sy, out=t2), np.multiply(uy, x1 - sx), out=t2
    )
    t3 = np.multiply(ux, y2 - sy)
    d4 = np.subtract(t3, np.multiply(uy, x2 - sx, out=t1), out=t3)
    crossed &= np.multiply(d3, d4, out=d3) < 0.0
    return crossed.any(axis=0)


def topk_station_mask(
    rs_all: np.ndarray,
    max_radii: np.ndarray,
    limit: int,
    slack: float = 1.0 + 1e-12,
) -> np.ndarray:
    """Membership mask of each customer's ``limit`` nearest reaching stations.

    ``rs_all`` is the ``(m, n)`` station-major distance matrix,
    ``max_radii`` the per-station maximum antenna radius.  Returns an
    ``(m, n)`` boolean mask: ``mask[s, i]`` iff station ``s`` is among
    customer ``i``'s ``limit`` nearest *reaching* stations, ranked by
    ``(distance, station_id)`` — ``limit`` column-wise argmin passes
    (each selecting then retiring one station per customer) break
    distance ties by first occurrence, i.e. lowest station id, matching
    the lexicographic sort of the scalar primitive
    ``repro.model.constraints._topk_stations`` exactly
    (:class:`repro.model.constraints.MaxAssignments`).

    Columns with at most ``limit`` reaching stations short-circuit to
    their reach column (every reaching station *is* in the top
    ``limit``), so the argmin ranking runs only on the contested
    columns — in clustered deployments (towns far apart relative to
    reach) that is a small fraction of ``n``, and the kernel's cost is
    dominated by the one reach comparison.
    """
    rs_all = np.asarray(rs_all, dtype=np.float64)
    radii = np.asarray(max_radii, dtype=np.float64).reshape(-1, 1)
    m, n = rs_all.shape
    reach = rs_all <= radii * slack
    limit = int(limit)
    if limit >= m:
        return reach.copy()
    mask = reach.copy()
    hard = np.flatnonzero(reach.sum(axis=0) > limit)
    if hard.size:
        sub = np.where(reach[:, hard], rs_all[:, hard], np.inf)
        picked = np.zeros((m, hard.size), dtype=bool)
        cols = np.arange(hard.size)
        # Contested columns have > limit finite entries, so every pass
        # retires a genuinely reaching station.
        for _ in range(limit):
            rows = sub.argmin(axis=0)
            picked[rows, cols] = True
            sub[rows, cols] = np.inf
        mask[:, hard] = picked
    return mask
