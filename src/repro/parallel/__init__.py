"""Shared process fan-out: auto-tuned worker counts, spec-only work units.

One tuned code path for every fan-out in the repo (`apple-experiments
--jobs`, the Fig. 12 replay bench).  The blanket
``ProcessPoolExecutor`` this replaces lost badly whenever the pool could
not pay for itself — ``BENCH_engine.json`` once recorded the Fig. 12
replay at 0.29x "speedup" with ``--jobs 4`` on a single-core host, all of
it pickling and process-start overhead.  Two mechanisms fix that:

* **Auto-tuning** (``jobs="auto"``): the first work unit runs in-process
  and is timed.  Fan-out engages only when the measured unit cost times
  the remaining unit count clears :data:`MIN_FANOUT_SECONDS` *and* the
  host has at least two cores — otherwise the whole map stays serial,
  which by construction can never be slower than not having the flag.
* **Spec-only work units** (:class:`FnSpec`): instead of pickling a
  closure (which drags its captured state through every submission), the
  pool ships a dotted ``module:function`` reference plus frozen kwargs —
  a few dozen bytes — and the worker re-hydrates (and caches) the target
  on first use.

Worker processes are forked where the platform allows it (Linux), so they
inherit the parent's imported modules instead of re-importing numpy/scipy
per worker; on spawn-only platforms the spec units keep submissions cheap.
Results always arrive in input order, and ``fn`` runs with identical
semantics serially or fanned out, so callers can route everything through
:func:`parallel_map` and let the tuner decide.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Tuple, Union

#: Estimated total serial seconds below which a process pool cannot pay
#: for its own start-up + serialization cost.  Measured conservatively:
#: a forked pool costs ~0.1 s to stand up, a spawned one far more.
MIN_FANOUT_SECONDS = 1.0

#: Upper bound on auto-tuned worker counts: experiment rows are coarse
#: units, so more workers than this just multiplies memory for nothing.
MAX_AUTO_WORKERS = 8

Jobs = Union[int, str]


def cpu_count() -> int:
    """Usable cores (never 0; containers sometimes report ``None``)."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Jobs) -> Jobs:
    """Normalise a ``--jobs`` value: ``"auto"`` stays, else a positive int.

    The CLI and experiment runners all accept either form; this is the one
    place the string is validated so error messages agree everywhere.
    """
    if isinstance(jobs, str):
        token = jobs.strip().lower()
        if token == "auto":
            return "auto"
        try:
            jobs = int(token)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer or 'auto', got {jobs}")
    return jobs


_SPEC_CACHE: dict = {}


@dataclass(frozen=True)
class FnSpec:
    """A picklable reference to a module-level callable plus fixed kwargs.

    The cheap-to-ship work unit: pickling the spec costs two small strings
    and the kwarg values, independent of anything the target function's
    module has loaded.  Workers re-hydrate the target via import on first
    use and cache it for the rest of their life.

    Attributes:
        target: dotted ``"package.module:function"`` reference.
        kwargs: frozen ``(key, value)`` pairs applied on every call.
    """

    target: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def of(fn: Callable, **kwargs: Any) -> "FnSpec":
        """Spec for a module-level function (closures are rejected)."""
        qualname = fn.__qualname__
        if "<locals>" in qualname:
            raise ValueError(
                f"{qualname} is not module-level; FnSpec work units must be "
                "importable from the worker"
            )
        return FnSpec(f"{fn.__module__}:{qualname}", tuple(sorted(kwargs.items())))

    def resolve(self) -> Callable:
        fn = _SPEC_CACHE.get(self.target)
        if fn is None:
            mod_name, _, attr = self.target.partition(":")
            obj: Any = importlib.import_module(mod_name)
            for part in attr.split("."):
                obj = getattr(obj, part)
            fn = _SPEC_CACHE[self.target] = obj
        return fn

    def __call__(self, item: Any) -> Any:
        return self.resolve()(item, **dict(self.kwargs))


def mp_context():
    """The cheapest usable start method: fork where the platform has it.

    Forked workers inherit the parent's already-imported modules (numpy,
    scipy, the whole repro package), so standing up a pool costs
    milliseconds instead of a full interpreter + import cascade per
    worker.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def in_worker() -> bool:
    """True inside a pool worker (nested fan-out must stay in-process)."""
    return multiprocessing.current_process().name != "MainProcess"


def _pool_map(fn: Callable, items: List[Any], workers: int) -> List[Any]:
    with ProcessPoolExecutor(max_workers=workers, mp_context=mp_context()) as pool:
        return list(pool.map(fn, items))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: Jobs = 1,
    min_fanout_seconds: float = MIN_FANOUT_SECONDS,
) -> List[Any]:
    """Map ``fn`` over ``items`` serially or across worker processes.

    With an integer ``jobs`` the caller decides: ``jobs <= 1`` (or fewer
    than two items) runs serially in-process, larger values fan out over
    ``min(jobs, len(items))`` workers.  With ``jobs="auto"`` the tuner
    decides: the first item is executed in-process and timed, and the
    rest fan out only when ``measured_cost * remaining`` clears
    ``min_fanout_seconds`` on a multi-core host — so ``auto`` is never
    slower than serial beyond one timing call.

    ``fn`` must be picklable for any fanned-out path (a module-level
    function, :func:`functools.partial` of one, or — cheapest — a
    :class:`FnSpec`).  Result order always matches input order.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if len(items) <= 1 or in_worker():
        return [fn(item) for item in items]
    if jobs != "auto":
        if jobs <= 1:
            return [fn(item) for item in items]
        return _pool_map(fn, items, min(jobs, len(items)))
    # Auto: probe the first unit's cost in-process, then decide.
    if cpu_count() < 2:
        return [fn(item) for item in items]
    started = time.perf_counter()
    first = fn(items[0])
    unit_cost = time.perf_counter() - started
    rest = items[1:]
    if len(rest) < 2 or unit_cost * len(rest) < min_fanout_seconds:
        return [first] + [fn(item) for item in rest]
    workers = min(cpu_count(), len(rest), MAX_AUTO_WORKERS)
    return [first] + _pool_map(fn, rest, workers)
