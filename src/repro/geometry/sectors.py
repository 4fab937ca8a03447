"""Sectors: the paper's directional-antenna footprint.

A directional antenna with parameters ``(alpha, rho, R)`` anchored at a base
station ``apex`` serves exactly the points whose polar coordinates
``(theta, r)`` *relative to the apex* satisfy ``alpha <= theta <= alpha+rho``
and ``r <= R`` — the definition quoted verbatim in the paper's abstract.

:class:`Sector` is the geometric object; orientation-free antenna *specs*
live in :mod:`repro.model.antenna`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.geometry.angles import TWO_PI
from repro.geometry.arcs import Arc
from repro.geometry.points import cartesian_to_polar, relative_polar


@dataclass(frozen=True)
class Sector:
    """A closed sector ``{(theta, r) around apex : theta in arc, r <= radius}``.

    Parameters
    ----------
    apex:
        ``(x, y)`` position of the antenna / base station.
    arc:
        The angular footprint ``[alpha, alpha + rho]``.
    radius:
        Maximum serving distance ``R``; must be positive and finite, or
        ``math.inf`` for an unbounded sector (used when reducing pure angle
        instances to sector form).
    """

    apex: Tuple[float, float]
    arc: Arc
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValueError(f"sector radius must be positive, got {self.radius}")
        object.__setattr__(self, "apex", (float(self.apex[0]), float(self.apex[1])))

    @staticmethod
    def from_parameters(
        apex: Tuple[float, float], alpha: float, rho: float, radius: float
    ) -> "Sector":
        """Build a sector from the paper's ``(alpha, rho, R)`` parameters."""
        return Sector(apex=apex, arc=Arc(alpha, rho), radius=radius)

    @property
    def alpha(self) -> float:
        """Orientation (start angle) of the sector."""
        return self.arc.start

    @property
    def rho(self) -> float:
        """Angular width of the sector."""
        return self.arc.width

    def contains_point(self, x: float, y: float) -> bool:
        """Closed membership test for a single cartesian point.

        A point exactly on the apex is inside regardless of orientation
        (its angle is undefined; it is at distance 0 <= R).
        """
        theta, r = cartesian_to_polar(x - self.apex[0], y - self.apex[1])
        if r == 0.0:
            return True
        if r > self.radius * (1.0 + 1e-12):
            return False
        return self.arc.contains(theta)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an ``(n, 2)`` array of points."""
        thetas, rs = relative_polar(points, np.asarray(self.apex))
        mask = rs <= self.radius * (1.0 + 1e-12)
        ang = self.arc.contains_angles(thetas)
        # Apex-coincident points are covered by any orientation.
        return (mask & ang) | (rs == 0.0)

    @property
    def area(self) -> float:
        """Planar area ``rho/2 * R^2`` of the sector."""
        return 0.5 * self.arc.width * self.radius * self.radius

    def boundary_polygon(self, arc_samples: int = 32) -> np.ndarray:
        """Approximate polygon of the sector boundary (apex + arc samples).

        Intended for examples/visualisation (ASCII plots) and for sanity
        tests that compare polygon-area to the closed-form :attr:`area`.
        """
        ax, ay = self.apex
        if self.arc.is_full_circle:
            angles = np.linspace(0.0, TWO_PI, max(arc_samples, 8), endpoint=False)
            ring = np.stack(
                [ax + self.radius * np.cos(angles), ay + self.radius * np.sin(angles)],
                axis=1,
            )
            return ring
        angles = self.arc.sample_angles(max(arc_samples, 2))
        ring = np.stack(
            [ax + self.radius * np.cos(angles), ay + self.radius * np.sin(angles)],
            axis=1,
        )
        return np.vstack([[ax, ay], ring])
