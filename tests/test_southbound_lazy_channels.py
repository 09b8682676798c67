"""Control channels are built when a switch is first addressed.

A fabric that builds a switch's channel / agent / RNG on demand must be
indistinguishable from one that holds all of them from the start: each
channel draws from its own ``derive(..., "channel.<switch>")`` substream,
so neither the moment a channel appears nor which others exist can move a
draw.  The eager side of the differential is the same fabric with every
channel touched up front in sorted order (what ``__init__`` used to do).
"""

import numpy as np
import pytest

from repro.core.controller import AppleController
from repro.core.reconfigure import commit, realize
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundChaosConfig, SouthboundFabric
from repro.southbound.messages import ControlMessage
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.chains import STANDARD_CHAINS

SEED = 7
_LOSSY = SouthboundChaosConfig(loss_rate=0.2, extra_delay_mean=0.02)
_PAIRS = (("STTL", "SNVA"), ("NYCM", "WASH"), ("CHIN", "IPLS"))


def _world(chaos=None):
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    # Tenant-sized: three short-path pairs, so most switches stay silent.
    full = gravity_matrix(topo, 8000.0, seed=SEED)
    demands = np.zeros_like(full.array)
    for src, dst in _PAIRS:
        i, j = full.nodes.index(src), full.nodes.index(dst)
        demands[i, j] = 40.0 * full.array[i, j]
    matrix = TrafficMatrix(full.nodes, demands)
    sim = Simulator()
    deployment = controller.run(matrix, sim=sim)
    fabric = SouthboundFabric(
        sim,
        deployment.network,
        SEED,
        controller.rule_generator,
        chaos=chaos,
        drain_retired=True,
    )
    controller.attach_southbound(fabric)
    return controller, matrix, sim, fabric


def _pushed_run(eager: bool):
    """Three pushes under loss and delay, each left time to converge."""
    controller, matrix, sim, fabric = _world(chaos=_LOSSY)
    switches = sorted(fabric.network.switches)
    if eager:
        for s in switches:
            fabric.channels[s]
    fabric.start()
    outcomes = []
    for k, factor in enumerate((2.0, 3.0, 0.5)):
        scaled = TrafficMatrix(matrix.nodes, matrix.array * factor)
        plan = controller.compute_placement(scaled)
        commit(
            fabric,
            plan,
            *realize(controller.rule_generator, plan),
            on_done=outcomes.append,
        )
        sim.run(until=15.0 * (k + 1))
    fabric.stop()
    assert [o.report.ok for o in outcomes] == [True] * 3
    assert fabric.converged and fabric.drift_count() == 0
    ops = {
        s: fabric.channels[s].agent.ops_applied if s in fabric.channels else 0
        for s in switches
    }
    return fabric, ops


def test_on_demand_channels_equal_channels_built_up_front():
    eager, eager_ops = _pushed_run(eager=True)
    lazy, lazy_ops = _pushed_run(eager=False)
    assert eager.metrics.messages_lost > 0 and eager.metrics.retries > 0
    assert len(eager.channels) == len(eager.network.switches)
    # The differential is only worth something if some switch stayed silent.
    assert 0 < len(lazy.channels) < len(eager.channels)
    assert lazy.state_signature() == eager.state_signature()
    assert lazy_ops == eager_ops
    assert sorted(lazy.channels) == sorted(s for s, n in eager_ops.items() if n)


def _degraded(fabric):
    """Switches whose channel has its circuit breaker open."""
    return sorted(s for s, c in fabric.channels.items() if c.circuit_open)


def test_a_fabric_that_only_adopts_builds_no_channel():
    _controller, _matrix, sim, fabric = _world()
    fabric.start()
    sim.run(until=5.0)  # reconciler ticks over a converged epoch 0
    fabric.stop()
    assert fabric.converged and fabric.metrics.messages_sent == 0
    assert len(fabric.channels) == 0
    assert _degraded(fabric) == []
    assert fabric.metrics.degraded_seconds == 0.0


def test_kill_before_first_use_leaves_the_channel_dead_when_born():
    _controller, _matrix, sim, fabric = _world()
    fabric.kill()
    switch = sorted(fabric.network.switches)[0]
    assert switch not in fabric.channels
    channel = fabric.channels[switch]
    assert channel.dead
    results = []
    channel.send(
        ControlMessage.make(switch, 1, 1, "add", (("tcam_del", "absent"),)),
        results.append,
    )
    sim.run(until=30.0)
    assert results == [] and channel.agent.ops_applied == 0
    assert fabric.metrics.messages_sent == 0 and len(sim._queue) == 0


def test_fault_hooks_on_a_never_messaged_switch():
    _controller, _matrix, sim, fabric = _world()
    silent = sorted(fabric.network.switches)[0]
    assert _degraded(fabric) == []
    fabric.disconnect(silent)
    assert fabric.channels[silent].disconnected
    assert _degraded(fabric) == []  # degraded needs timeouts, not a cut
    fabric.reconnect(silent)
    assert not fabric.channels[silent].disconnected
    # A cut switch that is then addressed loses every leg until reconnected.
    fabric.disconnect(silent)
    results = []
    fabric.channels[silent].send(
        ControlMessage.make(silent, 1, 1, "add", (("tcam_del", "absent"),)),
        results.append,
    )
    sim.run(until=3.0)
    assert results == [] and _degraded(fabric) == [silent]
    fabric.reconnect(silent)
    sim.run(until=30.0)
    assert results == ["applied"] and _degraded(fabric) == []
    fabric.stop()
    assert fabric.metrics.degraded_seconds > 0.0


def test_unknown_switch_is_still_a_key_error():
    _controller, _matrix, _sim, fabric = _world()
    for addressed in (fabric.disconnect, fabric.reconnect):
        with pytest.raises(KeyError):
            addressed("no-such-switch")
    assert len(fabric.channels) == 0
