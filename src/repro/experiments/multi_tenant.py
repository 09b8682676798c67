"""Multi-tenant orchestration at scale: churny intents, shared capacity.

Drives the tenancy subsystem (``repro.tenancy``) with hundreds of tenants
submitting seeded create / update / scale / delete intents against one
shared topology, and reports the platform invariants:

* **zero cross-tenant policy-violation-seconds** — the capacity arbiter
  charges each tenant exactly the plan it installs (cores per host, TCAM
  classification entries), and the isolation audit checks every tick that
  every running instance is charged and every host within its cores;
* **zero policy-violation-seconds** — the probe loop scores every
  tenant's data plane each tick: chain order and the fabric's live path;
* **Verify OK at every convergence** — each tenant's deployment re-runs
  the interference-free audit when its southbound epoch reaches zero
  drift;
* **bit-identical reruns** — the whole intent schedule lives on
  ``derive(seed, "tenancy.intents")``, so one seed is one platform
  history; the first sweep row is executed twice and its state signatures
  compared.

Intent-to-convergence latency (p50/p99, simulated seconds) is this
experiment's cost side; ``tests/test_tenancy.py`` holds the isolation
invariants on whole histories of up to 200 tenants.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import ExperimentResult
from repro.sim.rng import SeededRNG, derive
from repro.tenancy import (
    CreateChain,
    DeleteChain,
    Intent,
    ScaleChain,
    UpdateRates,
)
from repro.topology.datasets import internet2
from repro.topology.graph import Topology
from repro.vnf.chains import STANDARD_CHAINS

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.experiments.scenario import Scenario

#: Tenant counts swept (full mode includes the 200-tenant acceptance row).
FULL_TENANT_SWEEP = (50, 100, 200)
QUICK_TENANT_SWEEP = (8, 16)
#: Tenants arrive (first CreateChain) inside this window...
ARRIVAL_WINDOW = 10.0
#: ...and day-2 churn lands inside this one.
CHURN_WINDOW = 30.0
#: Run horizon: churn end + room for convergence tails + queued re-admits.
HORIZON = 45.0
#: The RNG substream every intent draw lives on.
INTENT_STREAM = "tenancy.intents"
TOPOLOGY = "internet2"


def _host_cores(tenants: int) -> int:
    """Per-PoP core budget scaled so grants mostly fit but can queue."""
    per_pop = max(64, int(math.ceil(tenants * 18 / 12 / 32.0)) * 32)
    return per_pop


def generate_intents(
    tenants: int, pops: Sequence[str], seed: int
) -> List[Tuple[float, Intent]]:
    """The seeded churny schedule: (submit delay, intent) pairs.

    Every draw rides ``derive(seed, "tenancy.intents")``; state-aware
    generation (ops only target chains still live at generation time)
    keeps the churn realistic while still exercising the failure paths —
    one in every 17 tenants gets an op against a chain it never created.
    """
    rng = SeededRNG(derive(seed, INTENT_STREAM))
    out: List[Tuple[float, Intent]] = []
    for i in range(tenants):
        tenant = f"t{i:04d}"
        # SLO tier rotates by tenant index (no RNG draw — the schedule
        # stays bit-identical to the pre-SLO generator).
        slo = ("gold", "silver", "bronze")[i % 3]
        arrival = rng.uniform(0.0, ARRIVAL_WINDOW)
        live: List[str] = []
        n_chains = rng.integer(1, 3)  # 1-2 chains at day 0
        for c in range(n_chains):
            chain_id = f"c{c}"
            src, dst = rng.choice(pops, size=2, replace=False)
            chain = tuple(rng.choice(STANDARD_CHAINS))
            rate = rng.uniform(80.0, 600.0)
            out.append(
                (
                    arrival + 0.01 * c,
                    CreateChain(
                        tenant,
                        chain_id=chain_id,
                        src=src,
                        dst=dst,
                        chain=chain,
                        rate_mbps=round(rate, 3),
                        slo=slo,
                    ),
                )
            )
            live.append(chain_id)
        n_ops = rng.integer(1, 4)  # 1-3 day-2 ops
        op_times = sorted(
            rng.uniform(arrival + 1.0, CHURN_WINDOW) for _ in range(n_ops)
        )
        for t in op_times:
            if not live:
                break
            kind = rng.choice(("update", "scale", "delete"))
            target = rng.choice(live)
            if kind == "update":
                out.append(
                    (
                        t,
                        UpdateRates(
                            tenant,
                            rates=(
                                (target, round(rng.uniform(80.0, 900.0), 3)),
                            ),
                        ),
                    )
                )
            elif kind == "scale":
                factor = rng.choice((0.5, 1.5, 2.0))
                out.append((t, ScaleChain(tenant, chain_id=target, factor=factor)))
            else:
                out.append((t, DeleteChain(tenant, chain_id=target)))
                live.remove(target)
        if i % 17 == 3:  # a tenant-scoped miss: UnknownClassError path
            out.append(
                (
                    CHURN_WINDOW + rng.uniform(0.0, 1.0),
                    ScaleChain(tenant, chain_id="ghost", factor=2.0),
                )
            )
    out.sort(key=lambda pair: pair[0])
    return out


def churn(tenants: int, seed: int) -> Tuple[Topology, List[Tuple[float, Intent]]]:
    """The shared Internet2 substrate and its seeded churny schedule."""
    topo = internet2(default_host_cores=_host_cores(tenants))
    return topo, generate_intents(tenants, sorted(topo.hosts), seed)


def history(tenants: int) -> Scenario:
    """One ``tenants``-tenant platform history to :data:`HORIZON`."""
    from repro.experiments.scenario import Scenario

    return Scenario(horizon=HORIZON, intents=partial(churn, tenants))


def _row(tenants: int, seed: int) -> Tuple[list, str]:
    from repro.experiments.scenario import play

    result = play(history(tenants), seed)
    m, sig = result.summary, result.state_signature
    pv = result.metrics["policy_violation_seconds"]
    if pv:
        raise RuntimeError(
            f"{tenants} tenants: probes left their chain or path for {pv}s"
        )
    row = [
        tenants,
        int(m["intents"]),
        int(m["completed"]),
        int(m["rejected"]),
        int(m["failed"]),
        int(m["waiting"]),
        int(m["queued_grants"]),
        int(m["convergences"]),
        f"{int(m['verify_ok'])}/{int(m['convergences'])}"
        + (" FAIL" if m["verify_failed"] else " OK"),
        round(m["latency_p50"], 4),
        round(m["latency_p99"], 4),
        m["cross_tenant_violation_seconds"],
        int(m["drift"]),
        sig,
    ]
    return row, sig


def run(
    tenant_counts: Optional[Sequence[int]] = None,
    seed: int = 0,
    quick: bool = False,
) -> ExperimentResult:
    """Tenant-count sweep of the multi-tenant intent orchestrator.

    Args:
        tenant_counts: explicit sweep override.
        seed: run seed; the intent schedule, every tenant's southbound
            channel and all chaos-free timing derive from it — same seed,
            same platform history, bit for bit.
        quick: smoke scale (8 and 16 tenants).
    """
    sweep = (
        tuple(tenant_counts)
        if tenant_counts is not None
        else (QUICK_TENANT_SWEEP if quick else FULL_TENANT_SWEEP)
    )
    rows: List[list] = []
    first_sig: Dict[int, str] = {}
    for tenants in sweep:
        row, sig = _row(tenants, seed)
        rows.append(row)
        first_sig[tenants] = sig
    # Determinism check: re-run the smallest row and compare signatures.
    smallest = min(sweep)
    _, rerun_sig = _row(smallest, seed)
    identical = rerun_sig == first_sig[smallest]
    return ExperimentResult(
        experiment="multi-tenant",
        description=(
            f"churny tenant intents on shared capacity (seed {seed}); "
            f"rerun of {smallest}-tenant row bit-identical: "
            f"{'yes' if identical else 'NO'}"
        ),
        paper_expectation=(
            "per-tenant serialized workers + a capacity arbiter charging "
            "each tenant exactly the plan it installs keep tenants "
            "interference-free: zero cross-tenant "
            "policy-violation-seconds, Verify OK at every epoch "
            "convergence, zero final drift"
        ),
        columns=[
            "Tenants",
            "Intents",
            "Done",
            "Rej",
            "Fail",
            "Wait",
            "GrantQ",
            "Conv",
            "Verify",
            "p50 (s)",
            "p99 (s)",
            "XT-PV (s)",
            "Drift",
            "Signature",
        ],
        rows=rows,
        notes=(
            "Done/Rej/Fail = terminal intent outcomes (Fail covers "
            "tenant-scoped misses the schedule injects deliberately); "
            "GrantQ counts arbiter admissions that had to wait for "
            "capacity; p50/p99 = intent submit -> converged, simulated "
            "seconds; XT-PV (s) = cross-tenant policy-violation-seconds "
            "from the isolation audit (must be 0); Signature digests every "
            "tenant's final deployment + the arbiter ledger."
        ),
    )
