"""Online variant: customers arrive one at a time, decisions are final.

The SPAA 2007 problem is offline; two online relaxations live here:

* :mod:`repro.online.admission` — fixed orientations, an arrival stream
  of customers, and irrevocable accept/assign-or-reject decisions;
* :mod:`repro.online.delta` — the dynamic-instance workload: arrivals,
  departures and demand drift applied as atomic event batches to a
  :class:`~repro.online.delta.DeltaCompiledInstance`, whose every
  generation is a freshly constructed instance compiled on first use
  (``docs/ONLINE.md``).
"""

from repro.online.admission import (
    AdmissionPolicy,
    OnlineAdmission,
    POLICIES,
    replay_offline_reference,
    work_conserving_bound,
)
from repro.online.delta import (
    AddCustomer,
    DeltaCompiledInstance,
    Event,
    RemoveCustomer,
    UpdateDemand,
    event_from_dict,
    event_to_dict,
)

__all__ = [
    "AdmissionPolicy",
    "OnlineAdmission",
    "POLICIES",
    "work_conserving_bound",
    "replay_offline_reference",
    "AddCustomer",
    "RemoveCustomer",
    "UpdateDemand",
    "Event",
    "DeltaCompiledInstance",
    "event_from_dict",
    "event_to_dict",
]
