"""Property test: recovery is bit-identical at *every* crash point.

The deterministic sweep crashes the controller just after every distinct
journal-record time of a small never-crashed reference run — i.e. at
every point where the write-ahead journal grew — and asserts the
recovered run converges to the reference ``state_signature()`` with zero
policy-violation-seconds.  The hypothesis layer then samples crash
times from the *continuous* timeline (between, before and after journal
positions), catching any dependence on crashing exactly at a record
boundary.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.schedule import FaultEvent, FaultKind
from repro.experiments.controller_crash import history
from repro.experiments.scenario import play

TENANTS = 2
BURST = 0
SEED = 1
DOWNTIME = 0.8
#: Crash epsilon: just after the journal record lands (same sim time
#: would race the record's own event on insertion order).
EPS = 1e-6

_BASE = None
_CRASH_TIMES = None


def _reference():
    """The never-crashed run + the distinct journal-growth times."""
    global _BASE, _CRASH_TIMES
    if _BASE is None:
        _BASE = play(history(TENANTS, BURST), SEED)
        times = sorted({rec.time for rec in _BASE.journal})
        # Crashing after the horizon is meaningless; keep room to recover.
        _CRASH_TIMES = tuple(t + EPS for t in times if t + DOWNTIME < 40.0)
    return _BASE, _CRASH_TIMES


def _crash_at(t: float) -> FaultEvent:
    return FaultEvent(
        time=t,
        kind=FaultKind.CONTROLLER_CRASH,
        target="controller",
        duration=DOWNTIME,
    )


def _assert_recovers_bit_identically(t: float) -> None:
    base, _ = _reference()
    out = play(history(TENANTS, BURST, (_crash_at(t),)), SEED)
    assert len(out.recoveries) == 1, f"crash at t={t} never recovered"
    assert out.state_signature == base.state_signature, (
        f"crash at t={t}: recovered signature {out.state_signature} != "
        f"never-crashed {base.state_signature}"
    )
    pv = out.metrics["policy_violation_seconds"]
    assert pv == 0, f"crash at t={t}: {pv} policy-violation-seconds"
    assert out.downtime_pv_seconds == 0
    assert out.summary["cross_tenant_violation_seconds"] == 0
    assert out.summary["drift"] == 0
    assert out.summary["waiting"] == 0


def test_every_journal_position_recovers_bit_identically():
    """The full deterministic sweep: one crash per journal-growth point."""
    base, crash_times = _reference()
    assert len(base.journal) > 20, "reference journal suspiciously short"
    assert crash_times, "no crashable journal positions"
    for t in crash_times:
        _assert_recovers_bit_identically(t)


@settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(t=st.floats(min_value=0.1, max_value=35.0, allow_nan=False))
def test_sampled_crash_times_recover_bit_identically(t):
    """Continuous sampling between/around the journal positions."""
    _assert_recovers_bit_identically(t)
