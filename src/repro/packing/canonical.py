"""Canonical orientations: the rotation lemma.

**Lemma (single arc).**  For any arc ``A = [alpha, alpha + rho]`` and any
set ``S`` of customers covered by ``A``, there is a customer angle
``theta_i`` such that the arc ``A' = [theta_i, theta_i + rho]`` covers all
of ``S``.

*Proof.*  If ``S`` is empty any customer angle works (or the arc is
irrelevant).  Otherwise let ``theta_i`` be the angle of the customer of
``S`` closest to ``alpha`` in counter-clockwise direction, i.e. minimizing
``ccw_delta(alpha, theta_i)``.  Every customer of ``S`` lies in
``[alpha, alpha + rho]`` at ccw-offset at least ``ccw_delta(alpha,
theta_i)`` from ``alpha``; shifting the window start forward to
``theta_i`` therefore keeps each of them inside: their offset from the new
start is the old offset minus ``ccw_delta(alpha, theta_i) >= 0`` and still
``<= rho``.  ∎

Consequently a single antenna only ever needs the ``n`` *canonical*
orientations ``{theta_1, ..., theta_n}``; this is what makes the sweep
solvers polynomial.

**Non-overlapping variant.**  When several arcs must be pairwise disjoint
the lemma does not apply arc-by-arc (rotating one arc can collide with the
next).  The correct canonical grid is larger: rotate all arcs counter-
clockwise simultaneously; an arc stops when its start reaches a covered
customer, and arcs behind/ahead of it stack end-to-start against it.  With
identical widths ``rho`` a stacked arc's start is a customer angle plus an
integer multiple ``j`` of ``rho`` with ``|j| <= k - 1``, giving the grid
``{theta_i + j * rho}`` of size ``n * (2k - 1)`` used by
:func:`rotation_candidates`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.geometry.angles import normalize_angles


def canonical_starts(thetas: Sequence[float] | np.ndarray) -> np.ndarray:
    """Distinct customer angles, sorted ascending.

    These are the canonical window starts for a *single* arc (or any number
    of arcs that may overlap freely).  Returns ``[0.0]`` for an empty
    instance so callers always have at least one orientation to use.
    """
    arr = normalize_angles(np.asarray(thetas, dtype=np.float64))
    if arr.size == 0:
        return np.array([0.0])
    return np.unique(arr)


def rotation_candidates(
    thetas: Sequence[float] | np.ndarray,
    widths: Sequence[float] | float,
    stacking: Optional[int] = None,
) -> np.ndarray:
    """Candidate starts for the *non-overlapping* multi-arc variant.

    Parameters
    ----------
    thetas:
        Customer angles.
    widths:
        Either a single width (identical antennas) or the per-antenna
        widths.  Identical widths produce the grid
        ``{theta_i + j * rho : |j| <= stacking}``; heterogeneous widths
        use all signed subset-sums of the widths as offsets (feasible for
        small antenna counts only).
    stacking:
        Maximum number of arcs that can stack against an aligned arc;
        defaults to ``k - 1`` where ``k`` is the number of widths given
        (or 1 when a scalar width is passed).

    Returns the sorted unique candidate start angles.
    """
    base = canonical_starts(thetas)
    if np.isscalar(widths):
        width_list = [float(widths)]
        k = 1 if stacking is None else stacking + 1
    else:
        width_list = [float(w) for w in widths]  # type: ignore[union-attr]
        k = len(width_list)
    if k <= 1 and stacking in (None, 0):
        return base
    uniform = len(set(width_list)) == 1
    if uniform:
        rho = width_list[0]
        s = (k - 1) if stacking is None else stacking
        js = np.arange(-s, s + 1)
        grid = (base[:, None] + js[None, :] * rho).ravel()
    else:
        if len(width_list) > 10:
            raise ValueError(
                "heterogeneous rotation candidates are exponential in k; "
                f"got k={len(width_list)} > 10"
            )
        offsets = {0.0}
        for w in width_list:
            offsets |= {o + w for o in offsets} | {o - w for o in offsets}
        off = np.array(sorted(offsets))
        grid = (base[:, None] + off[None, :]).ravel()
    return np.unique(normalize_angles(grid))
