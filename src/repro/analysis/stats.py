"""Instance statistics: how hard is this instance, and why?

Used by the experiment reports to characterise generated families and by
users to understand their own data before choosing a solver:

* **demand statistics** — Gini coefficient (are a few whales dominating?),
  max-demand-to-capacity ratio (drives the integrality gap, E6, and the
  online competitive floor, E12);
* **angular statistics** — circular concentration (mean resultant length),
  best-window demand share (is there one hotspot an arc can swallow?);
* **tightness** — total demand over total capacity (the knob of E4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.geometry.sweep import CircularSweep
from repro.model.instance import AngleInstance


def gini(values: np.ndarray) -> float:
    """Gini coefficient in ``[0, 1)``; 0 = perfectly equal demands.

    Standard mean-absolute-difference form; requires positive values.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0:
        raise ValueError("gini of empty array")
    if (v <= 0).any():
        raise ValueError("gini requires positive values")
    cum = np.cumsum(v)
    # G = (2 * sum_i i*v_i) / (n * sum v) - (n + 1) / n  with i starting at 1
    i = np.arange(1, n + 1)
    return float((2.0 * (i * v).sum()) / (n * cum[-1]) - (n + 1.0) / n)


def circular_concentration(thetas: np.ndarray) -> float:
    """Mean resultant length R in ``[0, 1]``: 0 = uniform, 1 = one point.

    The standard first trigonometric moment of directional statistics.
    """
    t = np.asarray(thetas, dtype=np.float64)
    if t.size == 0:
        return 0.0
    return float(np.hypot(np.cos(t).mean(), np.sin(t).mean()))


def best_window_share(instance: AngleInstance, rho: float | None = None) -> float:
    """Largest fraction of total demand reachable by one width-``rho`` arc.

    Defaults to the first antenna's width.  1.0 means a single beam can
    see everything (geometry never binds); small values mean demand is
    spread and orientation choice matters.
    """
    if instance.n == 0:
        return 0.0
    if rho is None:
        rho = instance.antennas[0].rho
    sweep = CircularSweep(instance.thetas, rho)
    sums = sweep.window_sums(instance.demands)
    return float(sums.max() / instance.total_demand)


@dataclass(frozen=True)
class InstanceStats:
    """Summary statistics of a 1-D instance."""

    n: int
    k: int
    tightness: float            # total demand / total capacity
    demand_gini: float
    max_demand_ratio: float     # d_max / c_min (the delta of E6/E12)
    concentration: float        # circular mean resultant length
    hotspot_share: float        # best single-window demand fraction

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": float(self.n),
            "k": float(self.k),
            "tightness": self.tightness,
            "demand_gini": self.demand_gini,
            "max_demand_ratio": self.max_demand_ratio,
            "concentration": self.concentration,
            "hotspot_share": self.hotspot_share,
        }


def instance_stats(instance: AngleInstance) -> InstanceStats:
    """Compute :class:`InstanceStats` for an angle instance."""
    if instance.n == 0:
        return InstanceStats(
            n=0, k=instance.k, tightness=0.0, demand_gini=0.0,
            max_demand_ratio=0.0, concentration=0.0, hotspot_share=0.0,
        )
    total_cap = float(sum(a.capacity for a in instance.antennas))
    c_min = min(a.capacity for a in instance.antennas)
    return InstanceStats(
        n=instance.n,
        k=instance.k,
        tightness=instance.total_demand / total_cap,
        demand_gini=gini(instance.demands),
        max_demand_ratio=float(instance.demands.max()) / c_min,
        concentration=circular_concentration(instance.thetas),
        hotspot_share=best_window_share(instance),
    )
