"""In-memory spans recorded by the benchmark around calls into each layer.

The benchmark measures every layer from outside: a span is opened around
one call into a public function of the program and closed when it
returns.  Spans are kept in a list, written out when the workload ends,
and reduced to per-layer *self* times (a span's duration minus the part
its child spans cover).  The program's own ``repro.perf`` / ``repro.obs``
spans are not read.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple

#: Name of the span that covers one whole timed unit; its self time is
#: what no layer span accounts for (driver glue, or — in the tenant
#: workload — everything the wrapped methods do not cover).
UNIT_SPAN = "unit"


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit")

    def __init__(self, name: str, start: float, parent: int, unit: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit


class _Off:
    """What :meth:`Tracer.span` hands out while tracing is off.

    Supports the same ``with ... as sp: sp.name = ...`` use as a real
    span and records nothing.
    """

    name = ""

    def __enter__(self) -> "_Off":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_OFF = _Off()


class _Open:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        tracer = self.tracer
        stack = tracer._stack
        parent = stack[-1] if stack else -1
        stack.append(len(tracer.spans))
        self.span = Span(self.name, perf_counter(), parent, tracer.unit)
        tracer.spans.append(self.span)
        return self.span

    def __exit__(self, *exc) -> bool:
        self.span.end = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Span recorder.

    ``active`` says this is a traced run; the driver then flips
    ``enabled`` on for every second timed unit, so each traced unit has
    an untraced neighbour to be compared with.
    """

    def __init__(self, active: bool = False) -> None:
        self.spans: List[Span] = []
        self.active = active
        self.enabled = False
        #: Index of the timed unit the next spans belong to (the op id).
        self.unit = -1
        self._stack: List[int] = []
        #: (number of spans reduced, their :meth:`per_unit` table).
        self._reduced: Tuple[int, Dict[int, Dict[str, float]]] = (-1, {})

    def span(self, name: str):
        return _Open(self, name) if self.enabled else _OFF

    # -- reduction -------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, in recording order."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def per_unit(self) -> Dict[int, Dict[str, float]]:
        """``unit -> layer name -> summed self seconds``."""
        if self._reduced[0] != len(self.spans):  # spans were added since
            out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
            for span, own in zip(self.spans, self.self_times()):
                out[span.unit][span.name] += own
            self._reduced = (len(self.spans), out)
        return self._reduced[1]

    def layer_seconds(self, name: str, setup: bool = False) -> float:
        """Median over traced units of the layer's self seconds per unit.

        With ``setup`` the median is over the set-up repetitions that
        entered the layer instead (units below 0 are not timed units:
        set-up repetitions and the final check).
        """
        units = [
            layers.get(name, 0.0)
            for unit, layers in self.per_unit().items()
            if (unit < 0 and name in layers if setup else unit >= 0)
        ]
        return median(units) if units else 0.0

    def calls_per_unit(self, name: str) -> float:
        """Mean number of spans of this name per traced unit."""
        units = {s.unit for s in self.spans if s.unit >= 0}
        calls = sum(1 for s in self.spans if s.unit >= 0 and s.name == name)
        return calls / len(units) if units else 0.0

    def table(self, work: Dict[str, Tuple[float, str]]) -> List[str]:
        """The per-layer table of the traced units, as printable lines.

        Args:
            work: ``layer name -> (mean work per unit, unit)``; gives
                each layer its natural rate (classes/s, msgs/s, pps).
        """
        own = self.self_times()
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for span, o in zip(self.spans, own):
            if span.unit < 0:
                continue
            calls[span.name] += 1
            total[span.name] += span.end - span.start
            self_s[span.name] += o
        wall = total.get(UNIT_SPAN, 0.0)
        lines = [
            f"{'layer':<32}{'calls':>8}{'total s':>10}{'self s':>10}"
            f"{'share':>8}  rate"
        ]
        for name in sorted(self_s, key=self_s.get, reverse=True):
            label = "(unattributed)" if name == UNIT_SPAN else name
            rate = ""
            if name in work and total[name] > 0:
                amount, unit = work[name]
                rate = f"{amount * calls[UNIT_SPAN] / total[name]:,.0f} {unit}/s"
            share = self_s[name] / wall if wall else 0.0
            lines.append(
                f"{label:<32}{calls[name]:>8}{total[name]:>10.4f}"
                f"{self_s[name]:>10.4f}{share:>8.1%}  {rate}"
            )
        return lines

    def unattributed_share(self) -> float:
        """Share of traced unit wall time that no layer span covers."""
        units = [layers for unit, layers in self.per_unit().items() if unit >= 0]
        # Every span of a unit nests in its unit span, so the self times
        # of a unit add up to its wall time.
        wall = sum(sum(layers.values()) for layers in units)
        loose = sum(layers.get(UNIT_SPAN, 0.0) for layers in units)
        return loose / wall if wall else 0.0

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                [
                    {
                        "id": i,
                        "name": s.name,
                        "start": s.start - origin,
                        "end": s.end - origin,
                        "parent": s.parent,
                        "unit": s.unit,
                    }
                    for i, s in enumerate(self.spans)
                ],
                fh,
            )


@contextmanager
def wrapped_methods(
    tracer: Tracer, targets: Sequence[Tuple[type, str, object]]
) -> Iterator[None]:
    """Record a span around each ``(class, method, span name)`` while active.

    For the workload the benchmark cannot drive call by call (the tenant
    orchestrator runs its own event loop): the class attributes are
    replaced for the duration of one traced unit and restored after it.
    A span name may be a function of the call's result (``None`` while
    the call is running, and still if it raises).
    """
    originals = [(cls, method, cls.__dict__[method]) for cls, method, _ in targets]

    def wrap(fn, name):
        def traced(*args, **kwargs):
            with tracer.span(name if isinstance(name, str) else name(None)) as span:
                result = fn(*args, **kwargs)
                if not isinstance(name, str):
                    span.name = name(result)
                return result

        return traced

    for (cls, method, name), (_, _, fn) in zip(targets, originals):
        setattr(cls, method, wrap(fn, name))
    try:
        yield
    finally:
        for cls, method, fn in originals:
            setattr(cls, method, fn)
