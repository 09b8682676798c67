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

from repro.tenancy.arbiter import CapacityArbiter
from repro.tenancy.bus import IntentBus
from repro.tenancy.intents import (
    CreateChain,
    DeleteChain,
    Intent,
    IntentRecord,
    IntentValidationError,
    Replan,
    ScaleChain,
    UpdateRates,
)
from repro.tenancy.orchestrator import TenantOrchestrator
from repro.tenancy.worker import TenantWorker

__all__ = [
    "CapacityArbiter",
    "IntentBus",
    "Intent",
    "CreateChain",
    "UpdateRates",
    "ScaleChain",
    "DeleteChain",
    "Replan",
    "IntentRecord",
    "IntentValidationError",
    "TenantOrchestrator",
    "TenantWorker",
]
