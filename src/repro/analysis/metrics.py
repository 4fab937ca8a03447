"""Metrics: timing, approximation ratios, summary statistics."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass
class RunRecord:
    """One (solver, instance) measurement."""

    solver: str
    family: str
    value: float
    seconds: float
    reference: Optional[float] = None  # OPT or an upper bound

    @property
    def ratio(self) -> Optional[float]:
        """``value / reference``; ``None`` when no reference is known.

        Against an exact reference this is the true approximation ratio;
        against an upper bound it is a *lower bound* on the true ratio.
        A zero reference with zero value counts as a perfect 1.0.
        """
        if self.reference is None:
            return None
        if self.reference <= 0:
            return 1.0 if self.value <= 0 else math.inf
        return self.value / self.reference


def approximation_ratio(value: float, reference: float) -> float:
    """``value / reference`` with the zero-optimum convention of RunRecord."""
    if reference <= 0:
        return 1.0 if value <= 0 else math.inf
    return value / reference


def geometric_mean(xs: Iterable[float]) -> float:
    """Geometric mean (the right average for ratios); 0/negatives rejected."""
    xs = list(xs)
    if not xs:
        raise ValueError("geometric mean of empty sequence")
    if any(x <= 0 for x in xs):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


@contextmanager
def timed():
    """Context manager yielding a dict that receives ``seconds`` on exit.

    >>> with timed() as t:
    ...     _ = sum(range(1000))
    >>> t["seconds"] >= 0
    True
    """
    box: Dict[str, float] = {}
    start = time.perf_counter()
    try:
        yield box
    finally:
        box["seconds"] = time.perf_counter() - start


def summarize(records: List[RunRecord]) -> Dict[str, Dict[str, float]]:
    """Aggregate records per solver: mean value/time, min & geo-mean ratio."""
    by_solver: Dict[str, List[RunRecord]] = {}
    for r in records:
        by_solver.setdefault(r.solver, []).append(r)
    out: Dict[str, Dict[str, float]] = {}
    for solver, rs in by_solver.items():
        ratios = [r.ratio for r in rs if r.ratio is not None and math.isfinite(r.ratio)]
        entry = {
            "runs": float(len(rs)),
            "mean_value": sum(r.value for r in rs) / len(rs),
            "mean_seconds": sum(r.seconds for r in rs) / len(rs),
        }
        if ratios:
            entry["min_ratio"] = min(ratios)
            entry["geo_mean_ratio"] = geometric_mean([max(r, 1e-12) for r in ratios])
        out[solver] = entry
    return out
