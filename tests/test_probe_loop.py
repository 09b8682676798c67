"""The one probe loop scores every tenant's chain order *and* path.

A probe that leaves its registered path but still visits its NFs in order
breaks interference freedom (Table I) without breaking the policy chain.
On a multi-tenant stack the loop must count it as policy-violation-seconds,
and in the downtime slice when it lands while the controller is dead.
"""

from dataclasses import replace

from repro.chaos.schedule import FaultEvent, FaultKind
from repro.experiments import controller_crash, multi_tenant
from repro.experiments.scenario import PROBE_INTERVAL, World, play

SEED = 0
#: The three tenants' day-0 chains have converged by then.
SABOTAGE_AT = 12.0


def _detour(world):
    """Rewrite one tenant's forwarding: its first class that can leaves the
    ingress for a neighbour off its path and comes back, then follows the
    path — the same NFs in the same order, on other switches.  Returns the
    undo."""
    orch = world.orch
    for tenant_id in sorted(orch.workers):
        deployment = orch.workers[tenant_id].deployment
        if deployment is None:
            continue
        network = deployment.network
        for cls in deployment.plan.classes:
            head = cls.path[0]
            away = [n for n in sorted(orch.topo.neighbors(head)) if n not in cls.path]
            if away:
                path = network.class_paths[cls.class_id]
                network.register_class_path(cls.class_id, (head, away[0], *path))
                return lambda: network.register_class_path(cls.class_id, path)
    raise AssertionError("no converged tenant class to detour")


def _violations(world):
    return [t for t in world.probes.ticks if t.policy_violations or t.interference_violations]


def test_off_path_probe_is_a_violation_on_a_multi_tenant_stack():
    world = World(replace(multi_tenant.history(3), horizon=16.0), SEED)
    world.sim.schedule_at(SABOTAGE_AT, lambda: _detour(world))
    result = world.play()

    bad = _violations(world)
    assert bad and all(t.time >= SABOTAGE_AT for t in bad)
    # Off its path, on its chain: interference, not a policy violation.
    assert all(t.interference_violations and not t.policy_violations for t in bad)
    assert result.metrics["policy_violation_seconds"] == PROBE_INTERVAL * len(bad)
    assert result.downtime_pv_seconds == 0


def test_off_path_probe_during_controller_downtime_is_counted_there():
    crash = FaultEvent(
        time=SABOTAGE_AT,
        kind=FaultKind.CONTROLLER_CRASH,
        target="controller",
        duration=2.0,
    )
    world = World(controller_crash.history(3, 0, (crash,)), SEED)
    undo = []
    world.sim.schedule_at(SABOTAGE_AT + 0.5, lambda: undo.append(_detour(world)))
    world.sim.schedule_at(SABOTAGE_AT + 1.5, lambda: undo[0]())
    result = world.play()

    bad = _violations(world)
    assert bad and all(SABOTAGE_AT < t.time < SABOTAGE_AT + 2.0 for t in bad)
    pv = result.metrics["policy_violation_seconds"]
    assert result.downtime_pv_seconds == pv == PROBE_INTERVAL * len(bad) > 0
    # The sabotage was undone before recovery: the platform history is the
    # never-crashed one.
    assert len(result.recoveries) == 1
    base = play(controller_crash.history(3, 0), SEED)
    assert result.state_signature == base.state_signature
