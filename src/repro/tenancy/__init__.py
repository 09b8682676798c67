"""Multi-tenant intent orchestration (ROADMAP item 3).

The paper's controller enforces one global policy set; this package turns
it into a shared platform.  Each tenant's policy chains are a *blueprint*
owned by a serialized lifecycle worker (one in-flight op per tenant, FIFO
queue), day-0/day-2 operations arrive as typed intents on a sim-time
message bus, and a capacity arbiter owns the shared host-core and TCAM
pools so tenants can never interfere with each other's deployments.

* :mod:`repro.tenancy.intents` — the typed intent API (``CreateChain`` /
  ``UpdateRates`` / ``ScaleChain`` / ``DeleteChain`` / ``Replan``);
* :mod:`repro.tenancy.bus` — validated, deterministic sim-time delivery;
* :mod:`repro.tenancy.arbiter` — delta grants against the shared pool,
  priority/FIFO admission queue, two-phase settlement;
* :mod:`repro.tenancy.worker` — the per-tenant lifecycle worker driving
  solve → sub-classes → tagging → capacity charge → southbound commit;
* :mod:`repro.tenancy.orchestrator` — the façade wiring bus, arbiter and
  workers over one topology, plus the cross-tenant isolation audit.
"""

import importlib

#: Re-exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "CapacityArbiter": "repro.tenancy.arbiter",
    "IntentBus": "repro.tenancy.bus",
    "Intent": "repro.tenancy.intents",
    "CreateChain": "repro.tenancy.intents",
    "UpdateRates": "repro.tenancy.intents",
    "ScaleChain": "repro.tenancy.intents",
    "DeleteChain": "repro.tenancy.intents",
    "Replan": "repro.tenancy.intents",
    "IntentValidationError": "repro.tenancy.intents",
    "TenantOrchestrator": "repro.tenancy.orchestrator",
    "TenantWorker": "repro.tenancy.worker",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
