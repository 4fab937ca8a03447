"""A cheap proven upper bound on the optimum of any instance.

:func:`_upper_bound` is ``combined_upper_bound`` for angle instances and
the capacity/density bound for sector instances.  The repository
benchmark's ``serve-burst`` workload (``perfbench/``) reports
``quality_ratio`` as the returned values divided by this bound, so the
ratio is a certified lower bound on the true approximation ratio.
"""

from __future__ import annotations

from repro.model.instance import AngleInstance


def _upper_bound(instance) -> float:
    """A cheap proven upper bound for either instance kind."""
    if isinstance(instance, AngleInstance):
        from repro.packing.bounds import combined_upper_bound

        return float(combined_upper_bound(instance))
    # Sector analogue of capacity_upper_bound: any solution serves at most
    # each antenna's capacity worth of demand at the best profit density.
    if instance.n == 0:
        return 0.0
    density = float((instance.profits / instance.demands).max())
    cap_total = float(
        sum(spec.capacity for _, _, spec in instance.antenna_table())
    )
    return min(float(instance.total_profit), density * cap_total)
