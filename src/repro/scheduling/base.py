"""Shared machinery for the list schedulers.

The inner loops are vectorised over hosts: for each task we build the
length-``p`` array of earliest finish times and argmin it.  On an
*equal-factor* network (every ``comm_factor`` entry the same, as in any
single-cluster RC) a task's data-ready time is one value ``R`` on every host
that holds none of its parents, so one Python pass over the parents finds
``R`` and the ready time on each parent host; a task then costs
O(in-degree) plus a fixed handful of length-``p`` numpy operations.  Other
networks take one O(p) pass per parent.

Operation counts (``Schedule.ops``) are *analytic*, reflecting the paper's
implementation complexity (e.g. MCP examines every host for every task:
``(indeg + 1) * p`` per task), not the vectorised shortcuts used here — see
:mod:`repro.scheduling.costmodel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.observe as observe
from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection

__all__ = [
    "Schedule",
    "SchedulerError",
    "SchedulerState",
    "register_scheduler",
    "get_scheduler",
    "list_schedulers",
    "schedule_dag",
]


class SchedulerError(RuntimeError):
    """Raised for invalid scheduler inputs or internal inconsistencies."""


@dataclass
class Schedule:
    """Result of scheduling a DAG onto a resource collection.

    ``ops`` is the abstract operation count of the heuristic run (analytic
    model, see module docstring); ``makespan`` is the difference between the
    earliest task start and the latest task finish (§III.1.1).
    """

    heuristic: str
    host: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    ops: float
    n_hosts: int

    @property
    def makespan(self) -> float:
        return float(self.finish.max() - self.start.min())

    def hosts_used(self) -> int:
        """Number of distinct hosts the schedule touches."""
        return int(np.unique(self.host).size)


@dataclass
class SchedulerState:
    """Mutable state threaded through a scheduling run."""

    dag: DAG
    rc: ResourceCollection
    avail: np.ndarray = field(init=False)
    host: np.ndarray = field(init=False)
    finish: np.ndarray = field(init=False)
    start: np.ndarray = field(init=False)
    ops: float = 0.0

    def __post_init__(self) -> None:
        p = self.rc.n_hosts
        self.avail = np.zeros(p, dtype=np.float64)
        self.host = np.full(self.dag.n, -1, dtype=np.int64)
        self.finish = np.full(self.dag.n, np.nan, dtype=np.float64)
        self.start = np.full(self.dag.n, np.nan, dtype=np.float64)
        factor = self.rc.comm_factor
        #: The one factor of an equal-factor network, else ``None``.
        self._net_factor = (
            float(factor.flat[0]) if bool(np.all(factor == factor.flat[0])) else None
        )
        # Every task's in-edges as Python lists (parent, edge cost), in
        # ``DAG.pred_edges`` order, for the equal-factor parent pass.
        pred = self.dag.pred_edges
        self._pred_index = self.dag.pred_index.tolist()
        self._pred_src = self.dag.edge_src[pred].tolist()
        self._pred_comm = self.dag.edge_comm[pred].tolist()

    # ------------------------------------------------------------------
    def _equal_factor_ready(self, v: int) -> tuple[float, dict[int, float]]:
        """Data-ready times of ``v`` on an equal-factor network.

        Returns ``R``, the time on every host that holds none of ``v``'s
        parents, and ``{host: time}`` for each host that holds some.  With
        ``r_u = f_u + c_u * factor`` the arrival of parent ``u`` elsewhere,
        ``R = max r_u`` (0.0 for an entry task), and a parent host is ready
        at ``max(its parents' largest finish, the largest r_u of parents
        on other hosts, 0.0)``.  The latter comes from the two largest
        per-host maxima of ``r_u``, so the pass stays O(in-degree).
        """
        lo, hi = self._pred_index[v], self._pred_index[v + 1]
        if lo == hi:
            return 0.0, {}
        factor = self._net_factor
        finish, host = self.finish, self.host
        local: dict[int, float] = {}
        remote: dict[int, float] = {}
        for k in range(lo, hi):
            u = self._pred_src[k]
            f = finish.item(u)
            h = host.item(u)
            r = f + self._pred_comm[k] * factor
            if h in local:
                if f > local[h]:
                    local[h] = f
                if r > remote[h]:
                    remote[h] = r
            else:
                local[h] = f
                remote[h] = r
        top = second = -math.inf
        top_host = -1
        for h, r in remote.items():
            if r > top:
                top, second, top_host = r, top, h
            elif r > second:
                second = r
        return top, {
            h: max(f, second if h == top_host else top, 0.0) for h, f in local.items()
        }

    def data_ready_all_hosts(self, v: int) -> np.ndarray:
        """Earliest time task ``v``'s inputs are present on each host."""
        if self._net_factor is not None:
            elsewhere, at_parents = self._equal_factor_ready(v)
            ready = np.full(self.rc.n_hosts, elsewhere)
            for h, t in at_parents.items():
                ready[h] = t
            return ready
        dag, rc = self.dag, self.rc
        p = rc.n_hosts
        in_edges = dag.in_edges(v)
        if in_edges.size == 0:
            return np.zeros(p, dtype=np.float64)
        parents = dag.edge_src[in_edges]
        pfin = self.finish[parents]
        wcomm = dag.edge_comm[in_edges]
        phosts = self.host[parents]
        ready = np.zeros(p, dtype=np.float64)
        clusters = rc.cluster
        for k in range(parents.size):
            row = rc.comm_factor[clusters[phosts[k]]][clusters]
            contrib = pfin[k] + wcomm[k] * row
            contrib[phosts[k]] = pfin[k]
            np.maximum(ready, contrib, out=ready)
        return ready

    def data_ready_on_host(self, v: int, h: int) -> float:
        """Earliest time task ``v``'s inputs are present on host ``h``."""
        if self._net_factor is not None:
            elsewhere, at_parents = self._equal_factor_ready(v)
            return float(at_parents.get(h, elsewhere))
        dag, rc = self.dag, self.rc
        in_edges = dag.in_edges(v)
        if in_edges.size == 0:
            return 0.0
        parents = dag.edge_src[in_edges]
        pfin = self.finish[parents]
        wcomm = dag.edge_comm[in_edges]
        phosts = self.host[parents]
        same = phosts == h
        t = pfin[same].max() if same.any() else 0.0
        if (~same).any():
            factors = rc.comm_factor[rc.cluster[phosts[~same]], rc.cluster[h]]
            t = max(t, float((pfin[~same] + wcomm[~same] * factors).max()))
        return float(t)

    def place(self, v: int, h: int, start: float) -> None:
        """Commit task ``v`` to host ``h`` at ``start`` (non-preemptive)."""
        w = self.dag.comp[v] / self.rc.speed[h]
        self.host[v] = h
        self.start[v] = start
        self.finish[v] = start + w
        self.avail[h] = start + w

    def best_finish_host(self, v: int) -> tuple[int, float]:
        """Host minimising the finish time of ``v`` (MCP's rule; the first
        such host on ties) and ``v``'s start time there."""
        avail = self.avail
        if self._net_factor is None:
            start = np.maximum(self.data_ready_all_hosts(v), avail)
        else:
            elsewhere, at_parents = self._equal_factor_ready(v)
            start = np.maximum(avail, elsewhere)
            for h, t in at_parents.items():
                start[h] = max(avail.item(h), t)
        fin = start + self.dag.comp[v] / self.rc.speed
        h = int(fin.argmin())
        return h, float(start[h])

    def result(self, heuristic: str) -> Schedule:
        """Freeze the state into a :class:`Schedule`."""
        if np.any(self.host < 0):  # pragma: no cover - defensive
            raise SchedulerError("not all tasks were scheduled")
        return Schedule(
            heuristic=heuristic,
            host=self.host,
            start=self.start,
            finish=self.finish,
            ops=self.ops,
            n_hosts=self.rc.n_hosts,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
SchedulerFn = Callable[..., Schedule]
_REGISTRY: dict[str, SchedulerFn] = {}


def register_scheduler(name: str) -> Callable[[SchedulerFn], SchedulerFn]:
    """Decorator registering a scheduler under ``name``."""
    def deco(fn: SchedulerFn) -> SchedulerFn:
        if name in _REGISTRY:
            raise ValueError(f"scheduler {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def get_scheduler(name: str) -> SchedulerFn:
    """Look up a scheduler by name (``mcp``, ``greedy``, ``fcfs``, ``fca``,
    ``dls``, ``minmin``, ``random``)."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def list_schedulers() -> list[str]:
    """Names of every registered scheduler."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def schedule_dag(name: str, dag: DAG, rc: ResourceCollection, **kwargs) -> Schedule:
    """Schedule ``dag`` on ``rc`` with the named heuristic.

    Every run is metered (:mod:`repro.observe`): one ``schedule_dag`` span
    plus ``scheduler.runs`` / ``scheduler.tasks_scheduled`` counters and a
    per-heuristic run counter.
    """
    fn = get_scheduler(name)
    with observe.span("schedule_dag"):
        schedule = fn(dag, rc, **kwargs)
    observe.inc("scheduler.runs")
    observe.inc(f"scheduler.runs.{name}")
    observe.inc("scheduler.tasks_scheduled", dag.n)
    return schedule


def _ensure_loaded() -> None:
    # Import the heuristic modules for their registration side effects.
    from repro.scheduling import heuristics  # noqa: F401


def log2ceil(x: float) -> float:
    """log2 bounded below by 1, used in the analytic op counts."""
    return max(1.0, math.log2(max(2.0, x)))
