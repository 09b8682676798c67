"""Shared experiment scaffolding: standard workloads and result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.controller import AppleController
from repro.sim.rng import derive
from repro.core.engine import EngineConfig
from repro.topology.datasets import load_topology
from repro.topology.graph import Topology
from repro.traffic.classes import hashed_assignment
from repro.traffic.diurnal import DiurnalModel, synthesize_series
from repro.traffic.matrix import TrafficMatrixSeries
from repro.vnf.chains import STANDARD_CHAINS

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.parallel import Jobs

#: Aggregate demand driving each topology (Mbps).  Chosen so the placement
#: needs multiple instances per NF without saturating host resources —
#: the regime the paper's simulations operate in.
TOPOLOGY_DEMAND_MBPS: Dict[str, float] = {
    "internet2": 12_000.0,
    "geant": 15_000.0,
    "univ1": 20_000.0,
    "as3679": 60_000.0,
}

#: Small time-scale dynamics for replay experiments: mild diurnal swing,
#: moderate MVR noise, occasional 3x bursts (the transient overloads fast
#: failover absorbs).
REPLAY_MODEL = DiurnalModel(
    daily_amplitude=0.1,
    weekend_dip=0.1,
    mvr_phi=0.08,
    mvr_beta=0.8,
    burst_prob=0.01,
    burst_scale=2.5,
)

#: Number of random edge-to-edge pairs carrying UNIV1's demand.
UNIV1_PAIRS = 70

#: Engine headroom used by replay experiments: the placement keeps 20%
#: capacity slack for dynamics (the paper's threshold-below-knee practice).
REPLAY_HEADROOM = 0.8


def normalize_name(name: str) -> str:
    """Canonical experiment key: lower-case, hyphens folded to underscores.

    The single place where ``failure-recovery`` and ``failure_recovery``
    become the same experiment — the CLI's argument parser, the registry
    lookup and the tests all route through here.
    """
    return name.strip().lower().replace("-", "_")


def display_name(name: str) -> str:
    """User-facing spelling of an experiment name (hyphenated)."""
    return normalize_name(name).replace("_", "-")


@dataclass
class ExperimentResult:
    """A reproduced table/figure: rows plus the paper's expectation."""

    experiment: str
    description: str
    paper_expectation: str
    columns: List[str]
    rows: List[List[Any]]
    notes: str = ""
    #: Wall time of the producing run (filled by the CLI / benchmarks).
    elapsed_seconds: float = 0.0

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Canonical per-run metrics dict.

        The one shape every consumer renders from: :meth:`format`'s
        footer, the CLI's registry update (``experiment_runs_total`` and
        friends) and the run manifest's ``experiments`` list all read
        this instead of assembling their own ad-hoc dicts.
        """
        return {
            "experiment": display_name(self.experiment),
            "rows": len(self.rows),
            "columns": len(self.columns),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
        }

    def format(self) -> str:
        """Monospace rendering of the result table."""
        widths = [len(c) for c in self.columns]
        rendered = [[_fmt(v) for v in row] for row in self.rows]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            f"== {self.experiment}: {self.description}",
            f"   paper: {self.paper_expectation}",
            "   " + " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "   " + "-+-".join("-" * w for w in widths),
        ]
        for row in rendered:
            lines.append(
                "   " + " | ".join(c.ljust(w) for c, w in zip(row, widths))
            )
        if self.notes:
            lines.append(f"   note: {self.notes}")
        snap = self.metrics_snapshot()
        if snap["elapsed_seconds"] > 0:
            lines.append(f"   [{snap['elapsed_seconds']:.1f}s]")
        return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def parallel_map(
    fn: Callable[[Any], Any], items: Iterable[Any], jobs: Jobs = 1
) -> List[Any]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Experiment rows (one per topology / failure count) are independent and
    each re-runs the full setup + replay pipeline, so process fan-out
    scales near-linearly *when the work is big enough to amortise the
    pool*.  This is a thin shim over :func:`repro.parallel.parallel_map`
    (kept for callers importing it from the harness): ``jobs`` may be a
    positive integer or ``"auto"``, which measures the first unit's cost
    and only fans out when the pool can pay for itself.  ``fn`` must be
    picklable for any fanned-out path — a module-level function,
    :func:`functools.partial` of one, or a cheap-to-ship
    :class:`repro.parallel.FnSpec`.  Result order matches input order.
    """
    from repro.parallel import parallel_map as _parallel_map

    return _parallel_map(fn, items, jobs=jobs)


def standard_setup(
    topology: str,
    snapshots: int = 672,
    interval: float = 900.0,
    seed: int = 0,
    ecmp: Optional[bool] = None,
    demand_mbps: Optional[float] = None,
    model: Optional[DiurnalModel] = None,
    engine_config: Optional[EngineConfig] = None,
    host_cores: Optional[int] = None,
) -> Tuple[Topology, AppleController, TrafficMatrixSeries]:
    """The paper's standard simulation setup for one topology.

    Policies are hashed over the standard chain set (firewall/proxy/NAT/IDS
    sequences per the SFC case studies); ECMP routing is enabled for the
    data-center topology (UNIV1) where multipath matters.
    """
    topo = load_topology(topology)
    if host_cores is not None:
        for spec in topo.hosts.values():
            spec.cores = host_cores
    if ecmp is None:
        ecmp = topology == "univ1"
    controller = AppleController(
        topo,
        hashed_assignment(STANDARD_CHAINS),
        ecmp=ecmp,
        min_rate_mbps=1.0,
        engine_config=engine_config,
    )
    total = demand_mbps if demand_mbps is not None else TOPOLOGY_DEMAND_MBPS[topology]
    weights = None
    pairs = None
    if topology == "univ1":
        # Paper methodology: UNIV1 replays traces between random
        # source-destination pairs; servers hang off edge switches, so
        # demand is edge-to-edge only.
        edges = [s for s in topo.switches if s.startswith("edge")]
        weights = {s: (1.0 if s in set(edges) else 0.0) for s in topo.switches}
        rng = np.random.default_rng(derive(seed, "traffic.univ1-pairs"))
        pair_pool = [(a, b) for a in edges for b in edges if a != b]
        idx = rng.choice(len(pair_pool), size=min(UNIV1_PAIRS, len(pair_pool)), replace=False)
        pairs = [pair_pool[int(i)] for i in idx]
    series = synthesize_series(
        topo,
        total,
        snapshots=snapshots,
        interval=interval,
        model=model if model is not None else REPLAY_MODEL,
        seed=seed,
        weights=weights,
        pairs=pairs,
    )
    return topo, controller, series
