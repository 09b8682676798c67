"""The resilient southbound channel: acks, retries, transactions, fabric.

Four layers of coverage, bottom up:

* channel semantics — exactly-once application (idempotency cookies),
  epoch fencing, retry/backoff on loss, circuit breaker over a
  disconnect, and the single-source 70 ms install latency;
* transaction phasing — the three-phase make-before-break state machine
  and its per-phase failure outcomes (rollback / failed / partial /
  superseded);
* fabric lifecycle — adopt-is-a-no-op, acked pushes, and the
  anti-entropy reconciler repairing injected drift;
* run-level determinism — same-seed southbound-chaos runs are
  bit-identical, and control-plane chaos never perturbs an existing
  data-plane fault schedule (independent substreams).
"""

import sys
from pathlib import Path

import pytest

from repro.chaos import ChaosConfig, FaultKind, FaultSchedule, generate_schedule
from repro.cloud.opendaylight import RULE_INSTALL_SECONDS
from repro.core.controller import AppleController
from repro.core.subclasses import assign_subclasses
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import host_match_entry, pass_by_entry
from repro.experiments.harness import standard_setup
from repro.experiments.scenario import Scenario, World
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRNG, derive
from repro.southbound import (
    SouthboundChaosConfig,
    SouthboundFabric,
    generate_southbound_schedule,
)
from repro.southbound.channel import RESULT_FAILED, ControlChannel, SwitchAgent
from repro.southbound.config import (
    INSTALL_LATENCY,
    MAX_ATTEMPTS,
    MAX_BACKOFF,
    MAX_INFLIGHT,
    SOUTHBOUND_STREAM,
    rto,
)
from repro.southbound.messages import (
    ACK_APPLIED,
    ACK_DUPLICATE,
    ACK_STALE,
    ControlMessage,
    pass_by_spec,
)
from repro.southbound.metrics import SouthboundMetrics
from repro.southbound.state import (
    InstalledView,
    SwitchDiff,
    class_fingerprints,
    read_installed,
)
from repro.southbound.transaction import Transaction
from repro.topology.datasets import internet2
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS
from tests.deploy_series import chaos_deployment

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

SEED = 7


# ----------------------------------------------------------------------
# Channel semantics (one switch, real agent, real sim)
# ----------------------------------------------------------------------
def _tiny_network() -> DataPlaneNetwork:
    topo = Topology(
        "line",
        ["a", "b", "c"],
        [Link("a", "b"), Link("b", "c")],
        hosts={"b": AppleHostSpec(cores=8)},
    )
    return DataPlaneNetwork(topo)


def _channel(sim, network, chaos=None):
    metrics = SouthboundMetrics()
    agent = SwitchAgent("a", network)
    channel = ControlChannel(
        sim,
        agent,
        chaos or SouthboundChaosConfig(),
        SeededRNG(derive(derive(SEED, SOUTHBOUND_STREAM), "channel.a")),
        metrics,
    )
    return channel, agent, metrics


def _msg(epoch=1, txn_id=1, phase="add"):
    spec = host_match_entry("a").spec
    return ControlMessage.make("a", epoch, txn_id, phase, (("tcam_put", spec),))


def test_install_latency_single_source():
    # Satellite: the paper's measured 70 ms lives in exactly one place.
    assert INSTALL_LATENCY == RULE_INSTALL_SECONDS
    # Recovery has no install delay of its own any more: over a loss-free
    # channel every convergence takes a whole number of acked round trips
    # (one per non-empty make-before-break phase) at exactly that latency.
    result, _fabric = _southbound_chaos_run(sb_chaos=SouthboundChaosConfig())
    latencies = [c["convergence_latency"] for c in result.metrics["convergences"]]
    assert latencies and max(latencies) > 0
    for latency in latencies:
        trips = latency / RULE_INSTALL_SECONDS
        assert trips == pytest.approx(round(trips)) and 0 <= round(trips) <= 3


def test_lossless_roundtrip_is_exactly_install_latency():
    sim = Simulator()
    network = _tiny_network()
    channel, agent, metrics = _channel(sim, network)
    results = []
    channel.send(_msg(), lambda status: results.append((sim.now, status)))
    sim.run(until=1.0)
    assert results == [(pytest.approx(RULE_INSTALL_SECONDS), ACK_APPLIED)]
    assert agent.ops_applied == 1
    assert metrics.retries == 0 and metrics.messages_lost == 0


def test_duplicate_cookie_applied_exactly_once():
    network = _tiny_network()
    agent = SwitchAgent("a", network)
    msg = _msg()
    assert agent.receive(msg).status == ACK_APPLIED
    # A retransmission of an already-applied message is acked but inert.
    assert agent.receive(msg).status == ACK_DUPLICATE
    assert agent.ops_applied == 1


def test_epoch_fencing_rejects_stale_messages():
    network = _tiny_network()
    agent = SwitchAgent("a", network)
    assert agent.receive(_msg(epoch=2)).status == ACK_APPLIED
    # A delayed retransmission from a superseded epoch must not clobber
    # the newer desired state.
    assert agent.receive(_msg(epoch=1, txn_id=9)).status == ACK_STALE
    assert agent.ops_applied == 1


def test_malformed_bundle_is_refused_before_anything_is_sent():
    # Regression: the agent used to apply ops one by one and raise on an
    # unknown kind inside the delivery event, after the earlier ops were
    # installed and without recording the cookie: a half-applied bundle.
    spec = host_match_entry("a").spec
    with pytest.raises(ValueError, match=r"op 1 to 'a'.*'bogus'"):
        ControlMessage.make("a", 1, 1, "add", (("tcam_put", spec), ("bogus", 1)))
    with pytest.raises(ValueError, match=r"op 0 to 'a'.*'vsw_del' with 2 fields"):
        ControlMessage.make("a", 1, 1, "del", (("vsw_del", "c0"),))
    with pytest.raises(ValueError, match=r"op 0 to 'a'.*None"):
        ControlMessage.make("a", 1, 1, "del", ((),))
    network = _tiny_network()
    assert read_installed(network).tcam["a"] == {}


def test_cookies_name_each_message_of_a_fabric_once():
    sent = []
    send = ControlChannel.send

    def record(channel, msg, on_result):
        sent.append(msg)
        return send(channel, msg, on_result)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ControlChannel, "send", record)
        result, fabric = _southbound_chaos_run()
    assert fabric.metrics.retries > 0  # retransmissions happened
    cookies = [m.cookie for m in sent]
    assert len(set(cookies)) == len(cookies)
    for m in sent:
        assert m.cookie == f"{m.epoch}:{m.txn_id}:{m.switch}:{m.phase}"


def test_installed_paths_at_follows_a_reregistered_path():
    # Regression: ``InstalledView.state()`` reassigned ``paths`` on its
    # shared state but kept the ingress index built from the old ones.
    topo = Topology("line", ["s1", "s2", "s3"], [Link("s1", "s2"), Link("s2", "s3")])
    network = DataPlaneNetwork(topo)
    view = InstalledView(network)
    network.register_class_path("c0", ("s1", "s2"))
    assert view.state().paths_at("s1") == (("c0", ("s1", "s2")),)
    network.register_class_path("c0", ("s1", "s2", "s3"))
    state = view.state()
    assert state.paths["c0"] == ("s1", "s2", "s3")
    assert state.paths_at("s1") == (("c0", ("s1", "s2", "s3")),)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        # NaN used to read as enabled() == False and run loss-free.
        ({"loss_rate": float("nan")}, "loss_rate"),
        ({"loss_rate": 1.5}, "loss_rate"),
        # Negative: enabled() == False, yet every attempt would hit
        # numpy's "scale < 0" inside a simulator callback.
        ({"extra_delay_mean": -1.0}, "extra_delay_mean"),
        ({"extra_delay_mean": float("inf")}, "extra_delay_mean"),
        ({"disconnects": -1}, "disconnects"),
        ({"window": (float("nan"), 25.0)}, "window"),
        ({"window": (25.0, 5.0)}, "window"),
        ({"disconnect_duration": (6.0, 2.0)}, "disconnect_duration"),
    ],
)
def test_hostile_southbound_chaos_config_is_rejected(kwargs, field):
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        SouthboundChaosConfig(**kwargs)


def test_backoff_schedule_is_exponential_and_capped():
    assert rto(1) == pytest.approx(0.25)
    assert rto(2) == pytest.approx(0.5)
    assert rto(3) == pytest.approx(1.0)
    # ...and every later attempt is capped at MAX_BACKOFF.
    assert rto(6) == MAX_BACKOFF


def test_total_loss_retries_then_gives_up_and_opens_circuit():
    sim = Simulator()
    network = _tiny_network()
    channel, agent, metrics = _channel(
        sim, network, chaos=SouthboundChaosConfig(loss_rate=1.0)
    )
    results = []
    channel.send(_msg(), results.append)
    sim.run(until=60.0)
    assert results == [RESULT_FAILED]
    assert agent.ops_applied == 0
    assert metrics.messages_sent == 1
    assert metrics.retries == MAX_ATTEMPTS - 1
    assert metrics.timeouts == MAX_ATTEMPTS
    assert metrics.give_ups == 1
    # The breaker opened after circuit_threshold consecutive timeouts.
    assert metrics.circuit_opens == 1
    assert channel.circuit_open


def test_disconnect_recovers_via_retries_and_closes_circuit():
    sim = Simulator()
    network = _tiny_network()
    channel, agent, metrics = _channel(sim, network)
    channel.disconnect()
    results = []
    channel.send(_msg(), results.append)
    # Long enough for the circuit to open (3 consecutive timeouts).
    sim.run(until=3.0)
    assert channel.circuit_open and agent.ops_applied == 0
    channel.reconnect()
    sim.run(until=10.0)
    assert results == [ACK_APPLIED]
    assert agent.ops_applied == 1
    assert not channel.circuit_open  # first ack closed the breaker
    assert metrics.degraded_seconds > 0


def test_inflight_window_queues_excess_messages():
    sim = Simulator()
    network = _tiny_network()
    channel, agent, metrics = _channel(sim, network)
    done = []
    for txn in range(1, 6):
        channel.send(_msg(txn_id=txn), lambda s, t=txn: done.append(t))
    assert len(channel._inflight) == MAX_INFLIGHT
    sim.run(until=2.0)
    assert done == [1, 2, 3, 4, 5]  # FIFO drain, all applied
    assert agent.ops_applied == 5


# ----------------------------------------------------------------------
# Transaction phasing (scripted channels, no sim needed)
# ----------------------------------------------------------------------
class _ScriptedChannel:
    """Channel stub acking synchronously, with scripted phase failures."""

    def __init__(self, switch, log, fail_phases=(), stale_phases=()):
        self.switch = switch
        self.log = log
        self.fail_phases = set(fail_phases)
        self.stale_phases = set(stale_phases)

    def send(self, msg, on_result):
        self.log.append((msg.phase, msg.switch, msg.ops))
        if msg.phase in self.fail_phases:
            on_result(RESULT_FAILED)
        elif msg.phase in self.stale_phases:
            on_result(ACK_STALE)
        else:
            on_result(ACK_APPLIED)


_SPEC_A = ("entry-a", 300, None, None, None, "forward", None, None)
_SPEC_B = ("entry-b", 300, None, None, None, "forward", None, None)


def _diffs():
    return [
        SwitchDiff(
            switch="s1",
            adds=[("tcam_put", _SPEC_A), ("vsw_put", "c0", 1, ("i0",), "h")],
            swap=[("classify_sync", (), ())],
            dels=[("tcam_del", "old-1")],
        ),
        SwitchDiff(switch="s2", adds=[("tcam_put", _SPEC_B)]),
    ]


def _txn(log, **channel_kwargs):
    channels = {
        s: _ScriptedChannel(s, log, **channel_kwargs) for s in ("s1", "s2")
    }
    outcomes = []
    txn = Transaction(
        Simulator(), channels, 1, 1, _diffs(),
        on_done=lambda outcome, rb: outcomes.append((outcome, rb)),
    )
    txn.start()
    return txn, outcomes


def test_transaction_phases_are_globally_barriered():
    log = []
    txn, outcomes = _txn(log)
    assert outcomes == [("committed", 0)]
    phases = [p for p, _, _ in log]
    # Every add on every switch precedes every swap precedes every del.
    assert phases == sorted(phases, key=("add", "swap", "del").index)
    assert phases.count("add") == 2 and phases.count("swap") == 1


def test_add_failure_rolls_back_inverse_ops_everywhere():
    log = []
    txn, outcomes = _txn(log, fail_phases=("add",))
    assert outcomes == [("rolled_back", 3)]
    # No swap or del ever ran: the old state kept serving untouched.
    assert all(p in ("add", "rollback") for p, _, _ in log)
    rollbacks = {s: ops for p, s, ops in log if p == "rollback"}
    # Inverse ops in reverse order, sent to *every* add switch (an ack
    # may have been lost after the apply).
    assert rollbacks["s1"] == (("vsw_del", "c0", 1), ("tcam_del", "entry-a"))
    assert rollbacks["s2"] == (("tcam_del", "entry-b"),)


def test_swap_failure_stops_before_deletes():
    log = []
    txn, outcomes = _txn(log, fail_phases=("swap",))
    assert outcomes == [("failed", 0)]
    # Deletes never run, so nothing any class still references was
    # removed — old and new versions both remain complete.
    assert not any(p == "del" for p, _, _ in log)


def test_del_failure_commits_partially():
    log = []
    txn, outcomes = _txn(log, fail_phases=("del",))
    # The new state serves everywhere; only garbage survives for the
    # reconciler to sweep.
    assert outcomes == [("committed_partial", 0)]


def test_stale_ack_supersedes_transaction():
    log = []
    txn, outcomes = _txn(log, stale_phases=("add",))
    assert outcomes == [("superseded", 0)]
    assert not any(p in ("swap", "del", "rollback") for p, _, _ in log)


# ----------------------------------------------------------------------
# Fabric lifecycle on a real deployment
# ----------------------------------------------------------------------
def _deployed(seed=SEED):
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, 8000.0, seed=seed)
    sim = Simulator()
    deployment = controller.run(matrix, sim=sim)
    return topo, controller, sim, deployment


def _fabric(sim, controller, deployment, chaos=None, seed=SEED):
    # Draining: a chaos run's tenant worker retires what an epoch stops
    # referencing.
    fabric = SouthboundFabric(
        sim,
        deployment.network,
        seed,
        controller.rule_generator,
        chaos=chaos,
        drain_retired=True,
    )
    controller.attach_southbound(fabric)
    return fabric


def test_pass_by_spec_is_built_once_per_switch_name():
    # render_desired lists it for every switch on every render.
    for name in ("a", "SEAT", "s/1"):
        assert pass_by_spec(name) == pass_by_entry(name).spec
        assert pass_by_spec(name) is pass_by_spec(name)


def test_adopt_is_a_noop_on_the_wire():
    _topo, controller, sim, deployment = _deployed()
    fabric = _fabric(sim, controller, deployment)
    assert fabric.converged and fabric.epoch == 0
    assert fabric.drift_count() == 0
    assert fabric.metrics.messages_sent == 0
    # The probe oracle starts from the plan's registered paths.
    for cls in deployment.plan.classes:
        assert fabric.active_path(cls.class_id) == tuple(cls.path)


def _assert_day0_converged(fabric: SouthboundFabric) -> None:
    """Installed == the desired state the fabric adopted, with no drift."""
    assert fabric.desired is not None
    assert read_installed(fabric.network) == fabric.desired
    assert fabric.drift_count() == 0


@pytest.mark.parametrize("name", ["internet2", "geant"])
def test_controller_day0_is_already_converged(name):
    # Day 0 writes the rendered state through the applier; the fabric
    # adopts that very state, rendered once.
    _topo, controller, series = standard_setup(name, snapshots=1, seed=SEED)
    sim = Simulator(seed=SEED)
    deployment = controller.run(series.snapshots[0], sim=sim)
    fabric = SouthboundFabric(sim, deployment.network, SEED, controller.rule_generator)
    controller.attach_southbound(fabric)
    assert fabric.desired is deployment.rules.day0_state
    _assert_day0_converged(fabric)


def test_every_tenant_day0_of_a_churn_history_is_already_converged(monkeypatch):
    import churn_counts  # tools/
    from repro.tenancy import TenantWorker

    adopted = []
    inner = TenantWorker.adopt

    def adopt(worker, target, realised, fabric, *args, **kwargs):
        inner(worker, target, realised, fabric, *args, **kwargs)
        if fabric.epoch == 0:
            assert fabric.desired is realised[2].day0_state
            _assert_day0_converged(fabric)
            adopted.append(worker.tenant_id)

    monkeypatch.setattr(TenantWorker, "adopt", adopt)
    counts = churn_counts.Counts()
    churn_counts.run_history(counts, 16, derive(0, "pipeline.history.0"))
    assert len(adopted) == counts.day0s == counts.day0_renders == 16


def test_reconciler_repairs_injected_drift():
    _topo, controller, sim, deployment = _deployed()
    fabric = _fabric(sim, controller, deployment)

    # Rip out installed state behind the fabric's back: a vSwitch loses
    # its rules (VM restart) and a switch loses its classifications.
    victim_vsw = sorted(deployment.rules.vswitch_rules)[0]
    vsw = deployment.network.vswitch_at(victim_vsw)
    for class_id, sub_id, _rule in deployment.rules.vswitch_rules[victim_vsw]:
        vsw.remove_rule(class_id, sub_id)
    victim_sw = sorted(deployment.rules.switch_rule_sets)[0]
    deployment.network.switches[victim_sw].table.remove_where(
        lambda e: e.name.startswith(f"{victim_sw}/classify/")
    )
    drift = fabric.drift_count()
    assert drift > 0

    fabric.start()
    sim.run(until=5.0)
    fabric.stop()
    assert fabric.drift_count() == 0
    assert fabric.metrics.reconcile_repairs >= 1
    assert fabric.metrics.max_observed_drift >= drift
    assert fabric.metrics.transactions["committed"] >= 1


def test_reconciler_converges_even_under_loss():
    _topo, controller, sim, deployment = _deployed()
    fabric = _fabric(
        sim, controller, deployment, chaos=SouthboundChaosConfig(loss_rate=0.3)
    )
    # Strip every vSwitch and every classification table: the repair
    # spans many switches, so plenty of messages face the 30% loss.
    for victim, rows in deployment.rules.vswitch_rules.items():
        vsw = deployment.network.vswitch_at(victim)
        for class_id, sub_id, _rule in rows:
            vsw.remove_rule(class_id, sub_id)
    for victim in deployment.rules.switch_rule_sets:
        deployment.network.switches[victim].table.remove_where(
            lambda e, v=victim: e.name.startswith(f"{v}/classify/")
        )
    assert fabric.drift_count() > 0

    fabric.start()
    sim.run(until=30.0)
    fabric.stop()
    assert fabric.drift_count() == 0
    assert fabric.metrics.messages_lost > 0  # the chaos actually bit
    assert fabric.metrics.retries > 0


# ----------------------------------------------------------------------
# Run-level determinism and substream independence
# ----------------------------------------------------------------------
_SB_CHAOS = SouthboundChaosConfig(
    loss_rate=0.1,
    extra_delay_mean=0.01,
    disconnects=2,
    window=(3.0, 10.0),
    disconnect_duration=(1.5, 4.0),
)
_DP_CHAOS = ChaosConfig(
    link_flaps=1,
    host_crashes=0,
    vnf_crashes=1,
    brownouts=0,
    window=(3.0, 10.0),
    flap_duration=(4.0, 7.0),
)


def _southbound_chaos_run(seed=1, sb_chaos=_SB_CHAOS, until=24.0, deployed=_deployed):
    world = World(
        Scenario(
            until,
            day0=lambda seed: deployed(seed)[1:3],
            faults=_DP_CHAOS,
            loss=sb_chaos,
        ),
        seed,
    )
    return world.play(), world.fabric


def test_same_seed_southbound_runs_bit_identical():
    a, fa = _southbound_chaos_run()
    b, fb = _southbound_chaos_run()
    assert a.signature() == b.signature()
    assert fa.state_signature() == fb.state_signature()
    assert a.metrics["southbound"] == b.metrics["southbound"]


def test_southbound_chaos_holds_the_acceptance_bar():
    # ISSUE 5 acceptance: >=10% loss + two switch disconnects, and still
    # zero policy-violation-seconds, full convergence, verify ok.
    result, fabric = _southbound_chaos_run()
    sb = result.metrics["southbound"]
    assert sb["messages_lost"] > 0
    assert result.southbound_signature is not None
    assert result.metrics["policy_violation_seconds"] == 0
    assert result.final_verify_ok
    assert fabric.drift_count() == 0
    assert fabric.converged


def test_standard_setup_lossy_run_holds_the_acceptance_bar():
    """The same bar on the experiment's own deployment (seed 1)."""
    result, fabric = _southbound_chaos_run(deployed=chaos_deployment)
    assert result.metrics["southbound"]["messages_lost"] > 0
    assert result.metrics["policy_violation_seconds"] == 0
    assert result.final_verify_ok
    assert fabric.drift_count() == 0
    assert fabric.converged


def test_chaos_disabled_fabric_run_is_clean_and_converges():
    # Southbound chaos off: every message applies on the first attempt,
    # and the run ends converged with the installed state == desired.
    result, fabric = _southbound_chaos_run(sb_chaos=SouthboundChaosConfig())
    sb = result.metrics["southbound"]
    assert sb["messages_lost"] == 0
    assert sb["retries"] == 0
    assert sb["timeouts"] == 0
    assert sb["circuit_opens"] == 0
    assert sb["acks"]["stale"] == 0
    assert result.metrics["policy_violation_seconds"] == 0
    assert result.final_verify_ok
    assert fabric.drift_count() == 0
    installed = read_installed(fabric.network)
    assert installed.signature_payload() == fabric.desired.signature_payload()


def test_southbound_schedule_rides_an_independent_substream():
    topo, controller, sim, deployment = _deployed()
    kwargs = dict(
        instance_keys=sorted(deployment.instances),
        hosts_in_use=deployment.rules.hosts_in_use,
    )
    before = generate_schedule(topo, _DP_CHAOS, SEED, **kwargs)
    sb = generate_southbound_schedule(
        sorted(deployment.network.switches), _SB_CHAOS, SEED
    )
    after = generate_schedule(topo, _DP_CHAOS, SEED, **kwargs)
    # Drawing the southbound schedule moved no data-plane draw.
    assert before.signature() == after.signature()
    assert len(sb.events) == _SB_CHAOS.disconnects
    lo, hi = _SB_CHAOS.window
    for ev in sb.events:
        assert ev.kind is FaultKind.SWITCH_DISCONNECT
        assert lo <= ev.time <= hi
    assert len({ev.target for ev in sb.events}) == len(sb.events)


def test_fabricless_engine_runs_on_the_default_fabric():
    # No loss configured: the world builds the tenant worker's loss-free
    # default over the deployment's network and adopts it as epoch 0 — the
    # same run, bit for bit, as one on an equivalent loss-free config.
    def run(loss):
        world = World(
            Scenario(
                12.0,
                day0=lambda seed: _deployed(seed)[1:3],
                faults=_DP_CHAOS,
                loss=loss,
            ),
            SEED,
        )
        return world, world.play()

    world, result = run(loss=None)
    fabric = world.fabric
    assert world.worker.fabric is fabric
    assert fabric.network is world.worker.deployment.network
    assert fabric.chaos == SouthboundChaosConfig() and fabric.drain_retired
    assert result.reconvergences == len(result.metrics["convergences"]) > 0
    assert fabric.converged and fabric.drift_count() == 0
    # Every recovery push went over the wire, none was lost.
    sb = result.metrics["southbound"]
    assert sb["messages_sent"] > 0 and sb["messages_lost"] == 0
    # No control-plane fault schedule: the signature carries none.
    assert result.southbound_signature is None
    assert "southbound_schedule" not in result.signature()
    explicit = run(loss=SouthboundChaosConfig())[1]
    assert explicit.southbound_signature == FaultSchedule.empty(SEED).signature()
    assert result.metrics == explicit.metrics
    assert result.network_stats == explicit.network_stats


def test_a_chaos_fabric_must_drain_what_an_epoch_retires():
    # Whatever the loss, the adopted tenant's fabric drains what an epoch
    # stops referencing: the worker retires it.
    for loss in (None, _SB_CHAOS):
        scenario = Scenario(
            1.0, day0=lambda seed: _deployed(seed)[1:3], loss=loss
        )
        assert World(scenario, SEED).fabric.drain_retired


def test_every_reconvergence_leaves_exactly_one_record():
    # Seed 2's later verdict batches land while the link-flap epoch is still
    # open over the lossy channel.  The worker serializes them: each waits
    # for the open epoch, then converges, and is on record once.  The first
    # epoch was planned before the VNF crash and converges naming the dead
    # VM (verify reports its undelivered cells); the queued re-plan then
    # replaces it.
    result, fabric = _southbound_chaos_run(seed=2)
    records = result.metrics["convergences"]
    assert result.reconvergences == len(records) == 3
    assert [c["verify_ok"] for c in records] == [False, True, True]
    assert "delivery" in records[0]["verify_summary"]
    assert all(c["convergence_latency"] is not None for c in records)
    assert [c["time"] for c in records] == sorted(c["time"] for c in records)
    assert result.metrics["policy_violation_seconds"] == 0
    assert result.summary["cross_tenant_violation_seconds"] == 0
    assert result.final_verify_ok and fabric.drift_count() == 0


# ----------------------------------------------------------------------
# Single-pass class fingerprints
# ----------------------------------------------------------------------
def _reference_fingerprint(rules, cls):
    """One class's fingerprint by scanning every rule list for it alone."""
    cid = cls.class_id
    return (
        tuple(
            (switch, row)
            for switch, rs in sorted(rules.switch_rule_sets.items())
            for row in rs.classifications
            if row[0] == cid
        ),
        tuple(
            (switch, sub_id, tuple(rule.instance_ids), rule.exit_host_tag)
            for switch, lst in sorted(rules.vswitch_rules.items())
            for class_id, sub_id, rule in lst
            if class_id == cid
        ),
        tuple(
            (switch, row)
            for switch, lst in sorted(rules.origin_rules.items())
            for row in lst
            if row[0] == cid
        ),
        tuple(cls.path),
    )


def test_single_pass_fingerprints_equal_the_per_class_scan():
    _topo, controller, series = standard_setup("geant", snapshots=1)
    plan = controller.compute_placement(series[0])
    classes = plan.classes
    rules = controller.rule_generator.generate(classes, assign_subclasses(plan))
    # Stranded classes are withdrawn from the rules but may still be asked
    # about, and rules may carry classes that are not asked about.
    serving = classes[: len(classes) // 2]
    partial_plan = controller.engine.place(serving, controller.available_cores())
    partial = controller.rule_generator.generate(
        serving, assign_subclasses(partial_plan)
    )
    for rule_set, asked in ((rules, classes), (partial, classes), (rules, serving)):
        got = class_fingerprints(rule_set, asked)
        assert list(got) == [c.class_id for c in asked]
        for cls in asked:
            assert got[cls.class_id] == _reference_fingerprint(rule_set, cls)
    assert any(fp[0] for fp in class_fingerprints(rules, classes).values())
    stranded = class_fingerprints(partial, classes)[classes[-1].class_id]
    assert stranded == ((), (), (), tuple(classes[-1].path))
