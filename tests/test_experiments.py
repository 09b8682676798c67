"""Experiment plumbing: result formatting, the standard setup, pinned
signatures and ``--jobs`` fan-out.  The paper's claims, one test per
figure or table, are in ``tests/test_paper_claims.py``."""

from collections import Counter

import pytest

from repro.experiments import fig12
from repro.experiments.harness import ExperimentResult, standard_setup


def test_result_formatting():
    result = ExperimentResult(
        experiment="X",
        description="desc",
        paper_expectation="expect",
        columns=["a", "b"],
        rows=[[1, 2.34567], ["x", "y"]],
        notes="n",
    )
    text = result.format()
    assert "X: desc" in text and "paper: expect" in text and "note: n" in text
    assert "2.346" in text  # float formatting


def test_standard_setup_shapes():
    topo, controller, series = standard_setup("internet2", snapshots=3)
    assert topo.name == "internet2"
    assert len(series) == 3
    classes = controller.build_classes(series.mean())
    assert classes


def test_standard_setup_univ1_edge_only():
    topo, controller, series = standard_setup("univ1", snapshots=2)
    for src, dst, _ in series.mean().pairs(min_rate=1e-6):
        assert src.startswith("edge") and dst.startswith("edge")
    assert controller.router.ecmp  # data center uses multipath


def test_pinned_quick_seed1_signatures():
    """The ``--quick --seed 1`` state signatures every change to the
    control plane has been compared against by hand since the southbound
    fabric became the only writer.  A plan, an epoch or a ledger entry
    that moves changes them; a deliberate change updates them here."""
    from repro.experiments import controller_crash, multi_tenant

    tenants = multi_tenant.run(seed=1, quick=True)
    assert [(row[0], row[-1]) for row in tenants.rows] == [
        (8, "914c8d7386e003ba"),
        (16, "2f854a307bdb5e37"),
    ]
    crash = controller_crash.run(seed=1, quick=True)
    signature = crash.columns.index("Signature")
    assert [(row[0], row[signature]) for row in crash.rows] == [
        (name, "f5cc3d053f05fd5c")
        for name in ("baseline", "crash#1", "crash#2", "all-crashes")
    ]


def _transactions(committed):
    return {
        "committed": committed, "committed_partial": 0, "failed": 0,
        "rolled_back": 0, "superseded": 0,
    }


#: ``result.metrics["southbound"]`` of each chaos run the test below makes,
#: in run order.  No table column reads ``max_observed_drift`` or the
#: convergence instants; a tick on the wrong side of a same-instant push
#: moves them.
_CHAOS_SOUTHBOUND = [
    # failure-recovery
    {
        "acks": {"applied": 72, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 72, "reconcile_repairs": 0,
        "reconcile_ticks": 44, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=2),
        "convergences": [
            {"converged_at": 9.0, "epoch": 1, "latency": 0.0, "pushed_at": 9.0},
            {"converged_at": 10.71, "epoch": 2, "latency": 0.21, "pushed_at": 10.5},
            {"converged_at": 16.21, "epoch": 3, "latency": 0.21, "pushed_at": 16.0},
        ],
    },
    # southbound-chaos 0%
    {
        "acks": {"applied": 72, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 72, "reconcile_repairs": 0,
        "reconcile_ticks": 48, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=2),
        "convergences": [
            {"converged_at": 9.0, "epoch": 1, "latency": 0.0, "pushed_at": 9.0},
            {"converged_at": 10.841807441, "epoch": 2, "latency": 0.341807441, "pushed_at": 10.5},
            {"converged_at": 16.324877477, "epoch": 3, "latency": 0.324877477, "pushed_at": 16.0},
        ],
    },
    # southbound-chaos 10%
    {
        "acks": {"applied": 63, "duplicate": 9, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 225,
        "messages_lost": 12, "messages_sent": 72, "reconcile_repairs": 0,
        "reconcile_ticks": 48, "retries": 12, "rollback_ops": 0, "timeouts": 12,
        "transactions": _transactions(committed=2),
        "convergences": [
            {"converged_at": 9.0, "epoch": 1, "latency": 0.0, "pushed_at": 9.0},
            {"converged_at": 11.976244962, "epoch": 2, "latency": 1.476244962, "pushed_at": 10.5},
            {"converged_at": 16.841867302, "epoch": 3, "latency": 0.841867302, "pushed_at": 16.0},
        ],
    },
    # flash-crowd 2x
    {
        "acks": {"applied": 70, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 70, "reconcile_repairs": 0,
        "reconcile_ticks": 40, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=2),
        "convergences": [
            {"converged_at": 7.21, "epoch": 1, "latency": 0.21, "pushed_at": 7.0},
            {"converged_at": 15.21, "epoch": 2, "latency": 0.21, "pushed_at": 15.0},
        ],
    },
    # flash-crowd 8x
    {
        "acks": {"applied": 107, "duplicate": 0, "stale": 0}, "circuit_opens": 0,
        "degraded_seconds": 0.0, "give_ups": 0, "max_observed_drift": 0,
        "messages_lost": 0, "messages_sent": 107, "reconcile_repairs": 0,
        "reconcile_ticks": 40, "retries": 0, "rollback_ops": 0, "timeouts": 0,
        "transactions": _transactions(committed=3),
        "convergences": [
            {"converged_at": 6.71, "epoch": 1, "latency": 0.21, "pushed_at": 6.5},
            {"converged_at": 11.21, "epoch": 2, "latency": 0.21, "pushed_at": 11.0},
            {"converged_at": 14.21, "epoch": 3, "latency": 0.21, "pushed_at": 14.0},
        ],
    },
]

#: Per ``flash-crowd --quick --seed 1`` amplitude (2x, 8x), the elastic
#: shedding chain: verdicts the elastic loop submitted (``_act`` calls),
#: verdicts the worker refused (each one re-submitted with one more class
#: shed), tenant ops that placed (``TenantWorker._place``) and the
#: ``place()`` calls they made (``TenantWorker.solve``, make-before-break
#: re-solves included).  At 8x the hosts are near full, a re-solve has no
#: tie to the running instances, and most epochs cannot be made before
#: they break (ROADMAP item 12(c)).
_FLASH_CHAIN = [
    {"verdicts": 2, "refused": 0, "placing ops": 2, "place() calls": 4},
    {"verdicts": 296, "refused": 290, "placing ops": 293, "place() calls": 521},
]


def test_pinned_quick_seed1_single_controller_tables(monkeypatch):
    """The chaos stack's ``--quick --seed 1`` tables: chaos recovery
    (``failure-recovery``, ``southbound-chaos``) and the elastic loop
    (``flash-crowd`` signatures), each re-planning through the tenant
    worker that adopted the controller's day-0 deployment; every run's
    southbound metrics dict, read from the same runs; and per flash-crowd
    amplitude the length of the elastic shedding chain (see
    ``_FLASH_CHAIN``).  A deliberate change updates them here."""
    from repro.elastic.loop import ElasticController
    from repro.experiments import failure_recovery, flash_crowd, southbound_chaos
    from repro.experiments.scenario import World
    from repro.tenancy.worker import TenantWorker

    chain = Counter()
    act, finished = ElasticController._act, ElasticController.finished
    place, solve = TenantWorker._place, TenantWorker.solve

    def counting_act(elastic, *args, **kwargs):
        chain["verdicts"] += 1
        return act(elastic, *args, **kwargs)

    def counting_finished(elastic, record, outcome):
        chain["refused"] += outcome is None
        return finished(elastic, record, outcome)

    def counting_place(worker, *args, **kwargs):
        chain["placing ops"] += 1
        return place(worker, *args, **kwargs)

    def counting_solve(worker, *args, **kwargs):
        chain["place() calls"] += 1
        return solve(worker, *args, **kwargs)

    monkeypatch.setattr(ElasticController, "_act", counting_act)
    monkeypatch.setattr(ElasticController, "finished", counting_finished)
    monkeypatch.setattr(TenantWorker, "_place", counting_place)
    monkeypatch.setattr(TenantWorker, "solve", counting_solve)

    southbound = []
    finish = World.finish

    def recording_finish(world):
        result = finish(world)
        southbound.append(result.metrics["southbound"])
        # The one-tenant orchestrator's isolation audit ran all along.
        assert result.summary["cross_tenant_violation_seconds"] == 0
        return result

    monkeypatch.setattr(World, "finish", recording_finish)

    assert failure_recovery.run(seed=1, quick=True).rows == [
        ["internet2", 2, 2, 0.646015, 0.751016, 0.891515, 1.5, 27, 0.0, 3, 866,
         2, 0, 0, "OK"]
    ]
    assert southbound_chaos.run(seed=1, quick=True).rows == [
        ["0%", 72, 0, 0, 0, 0, 2, 0, 0, 3, 0.222228, 1.5, 0.0, 0, "OK"],
        ["10%", 72, 12, 12, 12, 0, 2, 0, 0, 3, 0.772704, 2.25, 0.0, 0, "OK"],
    ]
    signatures, chains = [], []
    for amplitude in (2.0, 8.0):
        chain.clear()
        signatures.append(flash_crowd._flash_row(amplitude, seed=1, quick=True)[1])
        chains.append(dict(chain))
    assert signatures == ["0e4b7f52db4bdb6d", "f35619f81cddf1aa"]
    assert chains == _FLASH_CHAIN
    assert southbound == _CHAOS_SOUTHBOUND


@pytest.mark.parametrize("name", ["failure_recovery", "southbound_chaos", "failure_sweep"])
def test_jobs_auto_rows_equal_serial_rows(name):
    """``--jobs auto`` (the CLI help documents it) lets the tuner decide;
    it must run, and give the serial rows."""
    import importlib

    run = importlib.import_module(f"repro.experiments.{name}").run
    kwargs = {} if name == "failure_sweep" else {"seed": 1}
    assert run(quick=True, jobs="auto", **kwargs).rows == run(
        quick=True, jobs=1, **kwargs
    ).rows


def test_fig12_jobs_auto_rows_equal_serial_rows():
    """Full-scale Fig. 12 (three topologies, 120 snapshots): the tuner's
    fan-out gives the serial rows in the serial order."""
    assert fig12.run(jobs="auto").rows == fig12.run(jobs=1).rows
