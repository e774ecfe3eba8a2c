"""Insertion-based MCP — the textbook Wu & Gajski placement policy.

The main ``mcp`` scheduler uses end-of-queue placement (each host is a
FIFO; a task starts after the host's last assigned task), which is what
the paper's timing model assumes and what keeps the knee sweeps fast.
Classic MCP additionally considers *inserting* a task into an idle gap
between two already-scheduled tasks when the gap fits.  ``mcp_insertion``
implements that policy exactly; the ablation benchmark quantifies how much
makespan the simplification costs (typically very little on the paper's
workloads, which is why the simplification is safe).

The replay simulator validates insertion schedules unchanged: per-host
execution order is the order of start times.
"""

from __future__ import annotations

import numpy as np

from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import Schedule, SchedulerState, log2ceil, register_scheduler
from repro.scheduling.heuristics.mcp import mcp_order

__all__ = ["schedule_mcp_insertion"]


class _HostTimeline:
    """Busy intervals of one host, kept sorted by start."""

    __slots__ = ("intervals",)

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float]] = []

    def earliest_start(self, ready: float, duration: float) -> float:
        """Earliest start >= ready such that [start, start+duration) is
        idle."""
        t = ready
        for s, e in self.intervals:
            if t + duration <= s:
                return t
            if e > t:
                t = e
        return t

    def occupy(self, start: float, end: float) -> None:
        # Insert keeping order; schedules are built task by task so a
        # linear scan is fine.
        for i, (s, _) in enumerate(self.intervals):
            if start < s:
                self.intervals.insert(i, (start, end))
                return
        self.intervals.append((start, end))


@register_scheduler("mcp_insertion")
def schedule_mcp_insertion(dag: DAG, rc: ResourceCollection) -> Schedule:
    """MCP with gap-insertion placement (Wu & Gajski's original policy)."""
    state = SchedulerState(dag, rc)
    p = rc.n_hosts
    timelines = [_HostTimeline() for _ in range(p)]

    state.ops += dag.m + dag.n * log2ceil(dag.n)
    for v in mcp_order(dag):
        ready = state.data_ready_all_hosts(v)
        best_h = -1
        best_start = 0.0
        best_finish = np.inf
        for h in range(p):
            duration = dag.comp[v] / rc.speed[h]
            start = timelines[h].earliest_start(float(ready[h]), duration)
            finish = start + duration
            if finish < best_finish:
                best_h, best_start, best_finish = h, start, finish
        # Commit without using state.place's avail bookkeeping (insertion
        # may start before the host's last finish).
        state.host[v] = best_h
        state.start[v] = best_start
        state.finish[v] = best_finish
        timelines[best_h].occupy(best_start, best_finish)
        state.avail[best_h] = max(state.avail[best_h], best_finish)
        state.ops += (dag.in_degree[v] + 1) * p
    return state.result("mcp_insertion")
