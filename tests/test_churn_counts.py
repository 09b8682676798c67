"""tools/churn_counts.py: the counts repeat, and its wrappers come off."""

import gc
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402
from repro.core.engine import OptimizationEngine  # noqa: E402
from repro.sim.rng import derive  # noqa: E402
from repro.southbound.channel import ControlChannel  # noqa: E402


def _history(tenants=8, seed=7):
    counts = churn_counts.Counts()
    churn_counts.run_history(counts, tenants, derive(seed, "pipeline.history.0"))
    return counts


def test_counts_repeat_and_channels_follow_messages():
    first, again = _history(), _history()
    for counts in (first, again):
        assert counts.places > 0 and counts.fabrics == 8
        assert counts.switch_slots == 8 * 12
        assert 0 < counts.channels_built == counts.channels_messaged < 8 * 12
        assert sum(counts.solves_per_place.values()) == counts.places
        assert counts.warm_places + counts.assemblies <= counts.places
    for name in ("solves_per_place", "places", "warm_places", "failed_places",
                 "assemblies", "channels_built", "channels_messaged", "intents"):
        assert getattr(first, name) == getattr(again, name), name


def test_cli_check_passes_and_leaves_nothing_installed(capsys):
    place, send, callbacks = (
        OptimizationEngine.place, ControlChannel.send, list(gc.callbacks)
    )
    assert churn_counts.main(["--tenants", "8", "--check"]) == 0
    out = capsys.readouterr().out
    assert "channels built" in out and "solves per place()" in out
    assert OptimizationEngine.place is place and ControlChannel.send is send
    assert gc.callbacks == callbacks
