"""The one commit step from a placement plan to a converged epoch.

The paper has exactly one way for a placement to become forwarding
state — Optimization Engine → sub-classes → Rule Generator → switches
(Fig. 1, Sec. V–VI).  There is one driver that computes a new plan
after day 0 and goes through the three functions here: each tenant's
``TenantWorker``.  Chaos recovery and the elastic loop submit intents to
it; crash recovery's rebuild uses :func:`realize` and :func:`bootstrap`,
then re-adopts the harvested network through the worker.

* :func:`realize` — plan → (sub-class plan, generated rules);
* :func:`bootstrap` — day 0: the rules written onto a fresh, empty
  network (the state a southbound fabric then ``adopt``s as epoch 0);
* :func:`commit` — every later change: one ``push_desired`` on the
  southbound fabric, with **exactly one** :class:`Outcome` per epoch, at
  its convergence.  A worker's ops are serialized, so an epoch is never
  superseded: committing while an epoch is open is an
  :class:`EpochOpenError`.

After epoch 0 nothing here (or in any caller) touches a switch: the one
rule writer, :func:`repro.southbound.channel.apply_ops`, is reached only by
a ``SwitchAgent`` applying an acked message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.core.placement import PlacementPlan
from repro.core.rulegen import GeneratedRules, RuleGenerator
from repro.core.subclasses import SubclassPlan, assign_subclasses
from repro.core.verify import VerificationReport, verify_deployment
from repro.dataplane.network import DataPlaneNetwork
from repro.sim.kernel import Simulator
from repro.topology.graph import Topology
from repro.vnf.instance import VNFInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.southbound.fabric import SouthboundFabric
    from repro.southbound.metrics import EpochConvergence


@dataclass
class Deployment:
    """A realised placement: everything needed to push packets."""

    plan: PlacementPlan
    subclass_plan: SubclassPlan
    rules: GeneratedRules
    network: DataPlaneNetwork
    instances: Dict[str, VNFInstance]


class EpochOpenError(RuntimeError):
    """A commit on a fabric whose previous epoch has not converged."""


@dataclass(frozen=True)
class Outcome:
    """A converged epoch: ``deployment`` is what now serves traffic
    (instances as the fabric holds them, drained ones gone),
    ``convergence`` the fabric's record (``None`` for a day-0 install),
    ``report`` the post-convergence audit."""

    deployment: Deployment
    convergence: Optional["EpochConvergence"]
    report: VerificationReport


def realize(
    rulegen: RuleGenerator, plan: PlacementPlan
) -> Tuple[SubclassPlan, GeneratedRules]:
    """Sub-class assignment and rule generation for one plan."""
    subclass_plan = assign_subclasses(plan)
    return subclass_plan, rulegen.generate(plan.classes, subclass_plan)


def bootstrap(
    rulegen: RuleGenerator,
    topo: Topology,
    plan: PlacementPlan,
    subclass_plan: SubclassPlan,
    rules: GeneratedRules,
    sim: Optional[Simulator] = None,
) -> Deployment:
    """Day 0: write realised rules onto a fresh data plane."""
    network = DataPlaneNetwork(topo)
    instances = rulegen.install(rules, network, plan.classes, sim=sim)
    return Deployment(plan, subclass_plan, rules, network, instances)


def commit(
    fabric: "SouthboundFabric",
    plan: PlacementPlan,
    subclass_plan: SubclassPlan,
    rules: GeneratedRules,
    *,
    on_done: Callable[[Outcome], None],
    stranded: Optional[Dict[str, str]] = None,
    instances: Optional[Dict[str, VNFInstance]] = None,
) -> None:
    """Open one epoch on the fabric; ``on_done`` fires once, at convergence.

    Until then the caller's current deployment keeps describing the state
    actually serving traffic — the make-before-break transaction leaves
    no partial-install window in between.  The converged epoch is audited
    by :func:`verify_deployment`, which reads the installed tables and
    sends no packet: auditing every epoch leaves the live network's
    ledger and admission windows alone, and a broken rule comes back as
    a violation in the report rather than an exception.  ``stranded`` and ``instances``
    are passed to ``push_desired`` unchanged.

    Raises:
        EpochOpenError: the fabric's previous epoch is still open.
    """
    if fabric.converged_epoch < fabric.epoch:
        raise EpochOpenError(
            f"epoch {fabric.epoch} has not converged; commits are serialized"
        )

    def settled(conv: "EpochConvergence") -> None:
        deployment = Deployment(
            plan, subclass_plan, rules, fabric.network, dict(fabric.instances)
        )
        report = verify_deployment(deployment, fabric.network.topo)
        on_done(Outcome(deployment, conv, report))

    fabric.push_desired(
        rules,
        plan.classes,
        stranded=stranded,
        instances=instances,
        on_converged=settled,
    )
