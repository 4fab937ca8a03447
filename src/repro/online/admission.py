"""Online admission with fixed orientations.

Model.  Antenna arcs are oriented up front (e.g. from the offline planner
run on a forecast).  Customers arrive one at a time as ``(theta, demand)``;
on arrival the algorithm must either assign the customer to an antenna
whose arc covers it and whose residual capacity fits the demand, or reject
it forever.  Objective: total accepted demand, compared to the *offline*
optimum on the same arrivals and orientations.

Policies (all work-conserving — they never reject a customer that fits
somewhere):

* ``first_fit``  -- lowest-index covering antenna with room;
* ``best_fit``   -- covering antenna whose residual is smallest but
  sufficient (keeps big residuals for big future demands);
* ``worst_fit``  -- covering antenna with the largest residual (load
  balancing);
* ``threshold``  -- best-fit, but rejects any demand exceeding a fraction
  ``tau`` of capacity (sacrifices whales to protect the long tail).

**Guarantee (work-conserving policies).**  Let ``d_max`` be the largest
demand, ``c_min`` the smallest capacity, and ``delta = d_max / c_min``.
When a work-conserving policy rejects a customer, every antenna covering
it has residual ``< d_max`` — and loads only grow, so at termination
every antenna in ``J`` (the set covering at least one rejected customer)
carries load ``> c_j - d_max >= (1 - delta) * c_j``.  The offline optimum
can serve rejected customers only on ``J``'s antennas, hence::

    OPT <= accepted + sum_{j in J} c_j <= accepted * (1 + 1/(1 - delta))

i.e. every work-conserving policy is ``(1 - delta) / (2 - delta)``-
competitive (→ 1/2 as demands become small, 1 when nothing is rejected).
:func:`work_conserving_bound` returns that floor; experiment E12 measures
how far above it the policies land.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.geometry.arcs import Arc
from repro.model.antenna import AntennaSpec
from repro.model.instance import AngleInstance
from repro.packing.exact import solve_exact_fixed_orientations
from repro.packing.flow import splittable_value

#: policy name -> selection function (residuals, covering_ids, demand) -> antenna or -1
AdmissionPolicy = Callable[[np.ndarray, np.ndarray, float], int]


def _first_fit(residuals: np.ndarray, covering: np.ndarray, demand: float) -> int:
    for j in covering:
        if demand <= residuals[j] * (1 + 1e-12):
            return int(j)
    return -1


def _best_fit(residuals: np.ndarray, covering: np.ndarray, demand: float) -> int:
    best, best_res = -1, np.inf
    for j in covering:
        r = residuals[j]
        if demand <= r * (1 + 1e-12) and r < best_res:
            best, best_res = int(j), r
    return best


def _worst_fit(residuals: np.ndarray, covering: np.ndarray, demand: float) -> int:
    best, best_res = -1, -np.inf
    for j in covering:
        r = residuals[j]
        if demand <= r * (1 + 1e-12) and r > best_res:
            best, best_res = int(j), r
    return best


def make_threshold_policy(tau: float) -> AdmissionPolicy:
    """Best-fit that rejects demands above ``tau`` x (largest capacity seen).

    ``tau`` in (0, 1]; ``tau=1`` degenerates to plain best-fit.  Not
    work-conserving (it rejects deliberately), so the work-conserving
    bound does not apply to it — that is the point of comparing them.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")

    def policy(residuals: np.ndarray, covering: np.ndarray, demand: float) -> int:
        cap_scale = residuals.max(initial=0.0)
        if demand > tau * max(cap_scale, 1e-300):
            return -1
        return _best_fit(residuals, covering, demand)

    return policy


POLICIES: Dict[str, AdmissionPolicy] = {
    "first_fit": _first_fit,
    "best_fit": _best_fit,
    "worst_fit": _worst_fit,
}


@dataclass
class OnlineAdmission:
    """Streaming admission simulator over fixed oriented antennas.

    Parameters
    ----------
    antennas:
        Antenna specs (capacities used as budgets).
    orientations:
        One start angle per antenna.
    policy:
        An :data:`AdmissionPolicy` or a registered name.
    """

    antennas: Sequence[AntennaSpec]
    orientations: Sequence[float]
    policy: AdmissionPolicy | str = "best_fit"

    def __post_init__(self) -> None:
        if len(self.antennas) != len(self.orientations):
            raise ValueError("antennas and orientations must align")
        if isinstance(self.policy, str):
            try:
                self.policy = POLICIES[self.policy]
            except KeyError:
                raise ValueError(
                    f"unknown policy {self.policy!r}; "
                    f"known: {sorted(POLICIES)} or a callable"
                ) from None
        self._arcs = [
            Arc(float(a), spec.rho)
            for a, spec in zip(self.orientations, self.antennas)
        ]
        self._residuals = np.array([s.capacity for s in self.antennas])
        self._accepted: List[Tuple[float, float, int]] = []
        self._rejected: List[Tuple[float, float]] = []

    # ------------------------------------------------------------------
    @property
    def residuals(self) -> np.ndarray:
        return self._residuals.copy()

    @property
    def accepted_demand(self) -> float:
        return float(sum(d for _, d, _ in self._accepted))

    @property
    def accepted_count(self) -> int:
        return len(self._accepted)

    @property
    def rejected_count(self) -> int:
        return len(self._rejected)

    def offer(self, theta: float, demand: float) -> int:
        """Offer one customer; returns the assigned antenna or ``-1``."""
        if demand <= 0:
            raise ValueError(f"demand must be positive, got {demand}")
        covering = np.array(
            [j for j, arc in enumerate(self._arcs) if arc.contains(float(theta))],
            dtype=np.intp,
        )
        j = self.policy(self._residuals, covering, float(demand)) if covering.size else -1
        if j >= 0:
            if not self._arcs[j].contains(float(theta)):
                raise RuntimeError("policy assigned a non-covering antenna")
            if demand > self._residuals[j] * (1 + 1e-9):
                raise RuntimeError("policy overfilled an antenna")
            self._residuals[j] -= demand
            self._accepted.append((float(theta), float(demand), int(j)))
        else:
            self._rejected.append((float(theta), float(demand)))
        return int(j)

    def run(self, thetas: Sequence[float], demands: Sequence[float]) -> float:
        """Offer a whole stream; returns total accepted demand."""
        for t, d in zip(thetas, demands):
            self.offer(float(t), float(d))
        return self.accepted_demand


def replay_offline_reference(
    antennas: Sequence[AntennaSpec],
    orientations: Sequence[float],
    thetas: Sequence[float],
    demands: Sequence[float],
    exact_limit: int = 18,
) -> float:
    """Offline reference value on the same arrivals and orientations.

    Uses the exact fixed-orientation solver when the stream is small,
    otherwise the splittable optimum (a valid upper bound on any offline
    integral solution, hence on any online run).
    """
    inst = AngleInstance(
        thetas=np.asarray(thetas, dtype=np.float64),
        demands=np.asarray(demands, dtype=np.float64),
        antennas=tuple(antennas),
    )
    ori = np.asarray(orientations, dtype=np.float64)
    if inst.n <= exact_limit:
        return solve_exact_fixed_orientations(inst, ori).value(inst)
    return splittable_value(inst, ori)


def work_conserving_bound(
    antennas: Sequence[AntennaSpec],
    demands: Sequence[float],
) -> float:
    """Competitive-ratio floor ``(1 - delta) / (2 - delta)`` for any
    work-conserving policy, where ``delta = d_max / c_min``.

    Derivation in the module docstring.  Returns 0.0 when some demand
    exceeds the smallest capacity (``delta >= 1`` — no guarantee), and
    1.0 for an empty stream.
    """
    demands = np.asarray(demands, dtype=np.float64)
    if demands.size == 0:
        return 1.0
    d_max = float(demands.max())
    c_min = min(s.capacity for s in antennas)
    delta = d_max / c_min
    if delta >= 1.0:
        return 0.0
    return (1.0 - delta) / (2.0 - delta)
