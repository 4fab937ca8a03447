"""Cheap upper bounds on the packing optimum.

Used to certify approximation ratios on instances too large for the exact
solvers: ``measured / upper_bound`` is a *lower* bound on the true ratio,
so a solver that clears its guarantee against these bounds clears it
against OPT a fortiori.

Bounds (each is proved in its docstring):

* ``total_profit``: serve everyone.
* :func:`capacity_upper_bound`: no antenna can carry more than its
  capacity's worth of the best profit density.
* :func:`fractional_rotation_upper_bound`: per antenna, the best
  *fractional* single-antenna value over all orientations; summing over
  antennas over-counts shared customers and is therefore valid.
* :func:`combined_upper_bound`: the minimum of all of the above (and the
  LP bound when requested).
"""

from __future__ import annotations

from repro.model.instance import AngleInstance
from repro.packing.single import best_rotation_fractional


def capacity_upper_bound(instance: AngleInstance) -> float:
    """``sum_j c_j * max_i (profit_i / demand_i)``, capped by total profit.

    Any feasible solution serves, per antenna ``j``, customers of total
    demand at most ``c_j``; converting demand to profit at the best
    density overestimates every antenna's haul.  For the paper's
    profit-equals-demand objective the density is 1 and the bound is
    simply ``min(total_demand, sum of capacities)``.
    """
    if instance.n == 0:
        return 0.0
    density = float((instance.profits / instance.demands).max())
    cap_total = float(sum(a.capacity for a in instance.antennas))
    return min(instance.total_profit, density * cap_total)


def fractional_rotation_upper_bound(instance: AngleInstance) -> float:
    """Sum over antennas of their best fractional single-antenna value.

    Valid because OPT decomposes as ``sum_j (profit served by antenna j)``
    and each term is at most antenna ``j``'s best possible haul when given
    *all* customers to itself fractionally.  Tighter than
    :func:`capacity_upper_bound` whenever geometry (a narrow ``rho``)
    prevents an antenna from reaching enough demand to fill its capacity.
    """
    total = 0.0
    for spec in instance.antennas:
        _, _, value = best_rotation_fractional(
            instance.thetas, instance.demands, instance.profits, spec
        )
        total += value
    return min(total, instance.total_profit)


def combined_upper_bound(instance: AngleInstance, use_lp: bool = False) -> float:
    """Minimum of all available bounds (optionally including the LP).

    The LP bound (:func:`repro.packing.lp.lp_upper_bound`) is the tightest
    but costs a linear program; enable it with ``use_lp=True`` on small and
    medium instances.
    """
    bound = min(
        instance.total_profit,
        capacity_upper_bound(instance),
        fractional_rotation_upper_bound(instance),
    )
    if use_lp:
        from repro.packing.lp import lp_upper_bound

        bound = min(bound, lp_upper_bound(instance))
    return bound
