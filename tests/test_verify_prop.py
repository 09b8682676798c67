"""Property-based tests for the core verifier (S3 of the chaos PR).

The three Table I properties, checked over randomly seeded deployments:

* **policy enforcement** — every delivered probe traverses exactly its
  class's policy chain, in order;
* **interference freedom** — no delivered probe is ever rerouted off its
  class's registered routing path;
* and both must *survive recovery*: after a fault and an incremental
  re-placement, the re-verified deployment still shows zero violations.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos import FaultEvent, FaultKind, FaultSchedule
from repro.core.controller import AppleController
from repro.core.verify import verify_deployment
from repro.dataplane.packet import Packet
from repro.experiments.scenario import Scenario, play
from repro.sim.kernel import Simulator
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS

_SETTINGS = dict(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _deploy(seed: int, demand: float):
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, demand, seed=seed)
    deployment = controller.run(matrix, sim=Simulator())
    return topo, controller, deployment


@settings(**_SETTINGS)
@given(seed=st.integers(0, 2**16), demand=st.sampled_from([4000.0, 8000.0]))
def test_seeded_deployments_verify_clean(seed, demand):
    topo, _controller, deployment = _deploy(seed, demand)
    report = verify_deployment(deployment, topo)
    assert report.ok, report.summary()
    assert report.probes_delivered == report.probes_sent
    assert report.violations == []


@settings(**_SETTINGS)
@given(seed=st.integers(0, 2**16), hash_bits=st.integers(1, 10))
def test_probe_chain_order_and_path(seed, hash_bits):
    """Direct restatement of the two properties on raw probes: for any
    sub-class hash point, the delivered packet's VNF trace equals the
    class chain and its switch trace equals the registered path."""
    topo, _controller, deployment = _deploy(seed, 6000.0)
    network = deployment.network
    h = (2 * hash_bits - 1) / (2 ** (1 + hash_bits.bit_length()))  # in (0,1)
    for cls in deployment.plan.classes[:20]:
        packet = Packet(
            class_id=cls.class_id, flow_hash=h % 1.0, src=cls.src, dst=cls.dst
        )
        record = network.inject(packet)
        assert record.delivered
        visited = [v.split("[")[0] for v in packet.vnfs_visited()]
        assert visited == list(cls.chain.names)
        assert tuple(packet.switches_visited()) == cls.path


@settings(**_SETTINGS)
@given(seed=st.integers(0, 2**12), victim=st.integers(0, 10**6))
def test_verify_still_clean_after_crash_and_recovery(seed, victim):
    """Interference freedom survives churn: kill an arbitrary VNF VM, let
    the chaos pipeline detect and re-place, and the re-verified deployment
    is as clean as the original."""
    topo, controller, deployment = _deploy(seed, 6000.0)
    sim = Simulator()
    # Rebind timers to a fresh simulator-independent run.
    keys = sorted(deployment.instances)
    target = keys[victim % len(keys)]
    schedule = FaultSchedule(
        seed=seed,
        events=(FaultEvent(time=1.0, kind=FaultKind.VNF_CRASH, target=target),),
    )
    result = play(
        Scenario(4.0, day0=lambda _seed: (controller, sim), faults=schedule), seed
    )
    assert result.faults_detected == 1
    assert all(c["verify_ok"] for c in result.metrics["convergences"])
    # The final audit of the re-placed deployment the worker holds.
    assert result.final_verify_ok
    assert result.final_policy_violations == 0
    assert result.final_interference_violations == 0
