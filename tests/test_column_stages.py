"""tools/column_stages.py: the counts repeat and add up, and its wrappers come off."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import column_stages  # noqa: E402
import repro.dataplane.sharded as sharded  # noqa: E402


def _installed():
    walker = sharded._ColumnWalker
    return (
        sharded._merge_runs,
        walker._group,
        walker._certify,
        walker._check_bulk,
        walker._bulk_apply,
    )


def test_cli_check_passes_and_leaves_nothing_installed(capsys):
    before = _installed()
    args = ["--sim-seconds", "2", "--repeats", "2", "--check"]
    assert column_stages.main(args) == 0
    first = capsys.readouterr().out
    assert column_stages.main(args) == 0
    again = capsys.readouterr().out
    assert _installed() == before

    def rows(out):
        return {line[:21].strip(): line[21:] for line in out.splitlines() if line[0] != " "}

    keys = (
        "window", "groups", "instances", "instances certified", "instances merged",
        "arrivals per packet", "arrivals merged", "ledger",
    )
    assert [rows(first)[key] for key in keys] == [rows(again)[key] for key in keys]
    counts = {key: int(rows(first)[key]) for key in keys[2:5]}
    assert counts["instances certified"] + counts["instances merged"] == counts["instances"]
    for stage in column_stages.STAGES + ("walk", "other"):
        assert any(line.split()[0] == stage for line in first.splitlines())
    assert ", 0, 0], sequential_packets 0" in first
