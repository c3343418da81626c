"""Spans and Spark job counts around calls into the program's modules.

Every span gets its own Spark job group, so a job lands in the group of the
innermost span that was open when the job started: the count read for a
span is a *self* count. The benchmark opens one root span per query (the
method call); with :func:`install` it also wraps the functions below where
the algorithm modules look them up, without changing anything in ``src/``.

Job ids are read once the query has ended and the listener bus has
drained: the status store is filled asynchronously, and it keeps only the
last ``spark.ui.retainedJobs`` jobs, far more than one query starts.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

#: the shared superstep helpers, wrapped in every module that imports them
COMMON_FUNCS = ("frontier_stats", "materialize", "push_msgs", "split_active", "vec_add")

#: modules whose module-level names the algorithms call through; taken from
#: ``sys.modules`` via importlib, because ``repro.core`` re-exports
#: functions that shadow the submodules of the same name
ALGORITHM_MODULES = (
    "repro.core.powitr",
    "repro.core.fwdpush",
    "repro.core.powerpush",
    "repro.core.fora",
    "repro.core.speedppr",
    "repro.core.approx_common",
    "repro.core.driver_tail",
)


@dataclass
class Span:
    group: str  # the Spark job group of this span alone
    id: int
    name: str
    parent: int | None
    root: int
    start: float = 0.0
    end: float = 0.0
    #: time of direct children, each including its own span bookkeeping
    child_s: float = 0.0
    #: bookkeeping of every descendant span (inside this span's interval)
    tracer_s: float = 0.0
    jobs: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.wall - self.child_s


class Tracer:
    """Records spans in memory; :meth:`resolve_jobs` fills in job counts."""

    def __init__(self, sc) -> None:
        self._sc = sc
        self._tracker = sc.statusTracker()
        self._bus = sc._jsc.sc().listenerBus()
        self._ids = itertools.count()
        self._stack: list[Span] = []
        self._unresolved: list[Span] = []
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str):
        b0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        sid = next(self._ids)
        sp = Span(
            f"perfbench-{sid}",
            sid,
            name,
            parent.id if parent else None,
            parent.root if parent else sid,
        )
        self._sc.setJobGroup(sp.group, name)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self._sc.setJobGroup(parent.group, parent.name)
            else:
                self._sc.setLocalProperty("spark.jobGroup.id", None)
            self.spans.append(sp)
            self._unresolved.append(sp)
            b1 = time.perf_counter()
            if parent is not None:
                parent.child_s += b1 - b0
                own = (sp.start - b0) + (b1 - sp.end)
                for anc in self._stack:
                    anc.tracer_s += own

    def resolve_jobs(self) -> None:
        """Read the job count of every span closed since the last call."""
        self._bus.waitUntilEmpty()
        for sp in self._unresolved:
            sp.jobs = len(self._tracker.getJobIdsForGroup(sp.group))
        self._unresolved.clear()

    def subtree(self, root: Span) -> list[Span]:
        return [sp for sp in self.spans if sp.root == root.id]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced functions; returns a callable that unwraps them."""
    from repro.graphs.graph import Graph

    patches: list[tuple[object, str, object]] = []

    def wrap(owner, attr: str, name: str, counts=None) -> None:
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                out = orig(*args, **kwargs)
                if counts is not None:
                    sp.counts = counts(out)
                return out

        setattr(owner, attr, traced)
        patches.append((owner, attr, orig))

    for modname in ALGORITHM_MODULES:
        mod = importlib.import_module(modname)
        for fn in COMMON_FUNCS:
            if hasattr(mod, fn):
                wrap(mod, fn, f"core.common.{fn}")
        if hasattr(mod, "finish_on_driver"):
            wrap(mod, "finish_on_driver", "core.driver_tail.finish_on_driver",
                 lambda out: {"edge_pushes": int(out[2])})
        if hasattr(mod, "refine_with_walks"):
            wrap(mod, "refine_with_walks", "core.approx_common.refine_with_walks",
                 lambda out: {"walks": int(out[1])})
    wrap(Graph, "query_view", "graphs.query_view")

    def uninstall() -> None:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

    return uninstall
