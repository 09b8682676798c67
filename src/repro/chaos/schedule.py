"""Deterministic fault schedules: what breaks, when, for how long.

A :class:`FaultSchedule` is a declarative, time-ordered list of
:class:`FaultEvent` drawn from a dedicated named substream of the run seed
(``derive(seed, "chaos.schedule")``, see :mod:`repro.sim.rng`).  Identical
seeds yield identical schedules, and — because the chaos stream is derived
independently — generating a schedule never perturbs traffic synthesis or
any other seeded component.

Fault taxonomy (Sec. "Failure model" of DESIGN.md):

* ``LINK_FLAP`` — a link goes down and comes back after ``duration``.
  Candidates exclude bridges, so a single flap never partitions the
  topology (recovery must always have a surviving path to converge onto).
* ``HOST_CRASH`` — an APPLE host dies: every VNF VM on it stops and its
  cores leave the resource pool until the end of the run.
* ``VNF_CRASH`` — one VNF VM dies; its host (and cores) stay up, so
  recovery typically re-places the same slot and restarts the VM.
* ``BROWNOUT`` — partial degradation: a VM keeps running at
  ``severity`` × nominal capacity for ``duration`` (unless the operator
  replaces it first); both are drawn from :data:`BROWNOUT_SEVERITY` /
  :data:`BROWNOUT_DURATION`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.sim.rng import SeededRNG, check_count, check_span, derive
from repro.topology.graph import Topology

#: Label of the chaos substream (satellite: RNG stream hygiene).
CHAOS_STREAM = "chaos.schedule"

#: Controller-crash schedules ride their own substream so the resilience
#: experiment never perturbs data-plane or southbound chaos draws.
CONTROLLER_STREAM = "chaos.controller"

#: Separator inside link targets ("u|v", canonically ordered).
LINK_SEP = "|"

#: Brownout duration range (seconds).
BROWNOUT_DURATION = (8.0, 20.0)
#: Remaining-capacity fraction range for brownouts.
BROWNOUT_SEVERITY = (0.2, 0.6)
#: Per-crash controller downtime range (seconds until recovery runs).
CONTROLLER_DOWNTIME = (0.5, 2.0)


class FaultKind(enum.Enum):
    """The fault classes the injector knows how to apply.

    The first four break the *data plane*; ``SWITCH_DISCONNECT`` breaks
    the *control plane* — the southbound channel to one switch drops every
    message until the fault lifts.  Disconnect schedules are drawn on
    their own substream (``derive(seed, "chaos.southbound")``, see
    :func:`repro.southbound.faults.generate_southbound_schedule`) so
    data-plane schedules generated from the same seed stay bit-identical
    whether or not southbound chaos is enabled.
    """

    LINK_FLAP = "link-flap"
    HOST_CRASH = "host-crash"
    VNF_CRASH = "vnf-crash"
    BROWNOUT = "brownout"
    SWITCH_DISCONNECT = "switch-disconnect"
    #: The controller itself dies for ``duration`` seconds; the data
    #: plane keeps forwarding on installed rules and recovery replays the
    #: write-ahead journal (see :mod:`repro.resilience`).  Drawn on its
    #: own substream (``derive(seed, "chaos.controller")``) so enabling
    #: controller crashes never perturbs any other schedule.
    CONTROLLER_CRASH = "controller-crash"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: injection time (simulation seconds).
        kind: what breaks.
        target: link ``"u|v"`` (canonical order), host switch name, or VNF
            instance slot key (``nf[i]@switch``).
        duration: for self-lifting faults (link flaps, brownouts) the time
            until the fault lifts; ``None`` for permanent faults.
        severity: brownouts only — remaining capacity fraction in (0, 1).
    """

    time: float
    kind: FaultKind
    target: str
    duration: Optional[float] = None
    severity: float = 1.0

    @property
    def lift_time(self) -> Optional[float]:
        return None if self.duration is None else self.time + self.duration

    def link_endpoints(self) -> Tuple[str, str]:
        if self.kind is not FaultKind.LINK_FLAP:
            raise ValueError(f"{self.kind} has no link endpoints")
        u, v = self.target.split(LINK_SEP)
        return u, v

@dataclass
class ChaosConfig:
    """Knobs of schedule generation (counts per fault kind + timing).

    Validated on construction: a ``ValueError`` names the bad field.
    """

    link_flaps: int = 1
    host_crashes: int = 1
    vnf_crashes: int = 2
    brownouts: int = 1
    #: Faults are injected at uniform times inside this window (seconds).
    window: Tuple[float, float] = (5.0, 45.0)
    flap_duration: Tuple[float, float] = (8.0, 20.0)

    def __post_init__(self) -> None:
        for name in ("link_flaps", "host_crashes", "vnf_crashes", "brownouts"):
            check_count(name, getattr(self, name))
        check_span("window", self.window)
        check_span("flap_duration", self.flap_duration)

@dataclass(frozen=True)
class FaultSchedule:
    """A time-ordered, immutable fault schedule for one run."""

    seed: int
    events: Tuple[FaultEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @classmethod
    def empty(cls, seed: int = 0) -> "FaultSchedule":
        return cls(seed=seed, events=())

    def signature(self) -> str:
        """Canonical JSON of the schedule — bit-identical across runs."""
        return json.dumps(
            [
                {
                    "time": ev.time,
                    "kind": ev.kind.value,
                    "target": ev.target,
                    "duration": ev.duration,
                    "severity": ev.severity,
                }
                for ev in self.events
            ],
            sort_keys=True,
        )


def _flappable_links(topo: Topology) -> List[str]:
    """Non-bridge links, as canonical ``"u|v"`` targets, sorted.

    Removing a bridge partitions the graph — no surviving path exists for
    the severed classes, so recovery could never converge.  Chaos tools
    avoid partitioning for the same reason; so does the generator.
    """
    bridges = topo.bridges()
    out = []
    for link in topo.links:
        key = Topology.link_key(link.u, link.v)
        if key not in bridges:
            out.append(f"{key[0]}{LINK_SEP}{key[1]}")
    return sorted(out)


def _pick(rng: SeededRNG, pool: Sequence[str], count: int) -> List[str]:
    """Up to ``count`` distinct targets (deterministic draw order)."""
    if count <= 0 or not pool:
        return []
    count = min(count, len(pool))
    return rng.choice(list(pool), size=count, replace=False)


def generate_schedule(
    topo: Topology,
    config: ChaosConfig,
    seed: int,
    instance_keys: Sequence[str] = (),
    hosts_in_use: Sequence[str] = (),
) -> FaultSchedule:
    """Draw a deterministic schedule from the run seed's chaos substream.

    Args:
        topo: the (healthy) topology; link candidates exclude bridges.
        config: fault counts and timing ranges.
        seed: the *run* seed; the chaos stream is derived internally.
        instance_keys: deployed VNF slot keys (targets for VNF crashes and
            brownouts); pass them sorted for a canonical draw order.
        hosts_in_use: switches whose APPLE hosts run instances (host-crash
            targets).  Falls back to every host when empty.
    """
    rng = SeededRNG(derive(seed, CHAOS_STREAM))
    lo, hi = config.window

    events: List[FaultEvent] = []

    def stamp(kind: FaultKind, target: str, duration=None, severity=1.0) -> None:
        events.append(
            FaultEvent(
                time=round(float(rng.uniform(lo, hi)), 6),
                kind=kind,
                target=target,
                duration=None if duration is None else round(float(duration), 6),
                severity=round(float(severity), 6),
            )
        )

    for target in _pick(rng, _flappable_links(topo), config.link_flaps):
        stamp(
            FaultKind.LINK_FLAP,
            target,
            duration=rng.uniform(*config.flap_duration),
        )

    host_pool = sorted(hosts_in_use) if hosts_in_use else sorted(topo.hosts)
    for target in _pick(rng, host_pool, config.host_crashes):
        stamp(FaultKind.HOST_CRASH, target)

    # VNF crashes and brownouts draw from disjoint slots so a brownout
    # never targets an already-dead VM.
    inst_pool = sorted(instance_keys)
    wanted = config.vnf_crashes + config.brownouts
    picked = _pick(rng, inst_pool, wanted)
    crash_targets = picked[: config.vnf_crashes]
    brown_targets = picked[config.vnf_crashes :]
    for target in crash_targets:
        stamp(FaultKind.VNF_CRASH, target)
    for target in brown_targets:
        stamp(
            FaultKind.BROWNOUT,
            target,
            duration=rng.uniform(*BROWNOUT_DURATION),
            severity=rng.uniform(*BROWNOUT_SEVERITY),
        )

    events.sort(key=lambda ev: (ev.time, ev.kind.value, ev.target))
    return FaultSchedule(seed=seed, events=tuple(events))


# ---------------------------------------------------------------------------
# Controller crashes (repro.resilience)
# ---------------------------------------------------------------------------
@dataclass
class ControllerCrashConfig:
    """Knobs of controller-crash schedule generation (validated).

    Attributes:
        crashes: how many times the controller dies during the run.
        window: crash times are drawn uniformly inside this window; each
            crash's downtime from :data:`CONTROLLER_DOWNTIME`.
    """

    crashes: int = 2
    window: Tuple[float, float] = (8.0, 34.0)

    def __post_init__(self) -> None:
        check_count("crashes", self.crashes)
        check_span("window", self.window)


def generate_controller_crashes(
    config: ControllerCrashConfig, seed: int
) -> FaultSchedule:
    """Seeded controller-crash schedule on the ``chaos.controller`` stream.

    Every event is a :data:`FaultKind.CONTROLLER_CRASH` with target
    ``"controller"`` and ``duration`` = downtime before recovery starts.
    Crashes are spaced by construction: a draw landing within one second
    of an earlier crash's recovery is shifted past it, so recoveries
    never overlap (the controller cannot die while it is already dead).
    """
    rng = SeededRNG(derive(seed, CONTROLLER_STREAM))
    lo, hi = config.window
    events: List[FaultEvent] = []
    busy_until = float("-inf")
    for _ in range(config.crashes):
        t = float(rng.uniform(lo, hi))
        d = float(rng.uniform(*CONTROLLER_DOWNTIME))
        if t < busy_until + 1.0:
            t = busy_until + 1.0
        busy_until = t + d
        events.append(
            FaultEvent(
                time=round(t, 6),
                kind=FaultKind.CONTROLLER_CRASH,
                target="controller",
                duration=round(d, 6),
            )
        )
    events.sort(key=lambda ev: (ev.time, ev.kind.value, ev.target))
    return FaultSchedule(seed=seed, events=tuple(events))
