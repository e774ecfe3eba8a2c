"""Modified Critical Path (MCP) — Fig. IV-2 / Fig. V-12.

1. ``CP`` = longest path (node + edge weights) through the DAG.
2. ``ALAP_i = CP - BL_i`` where ``BL_i`` is the bottom level of node *i*
   (longest path from *i* to an exit node, inclusive).
3. Nodes are processed in ascending ALAP order.  The paper orders ties by
   the lexicographically smallest list of descendant ALAP values; we use the
   standard O(n log n) simplification — smallest child ALAP, then node id —
   and process nodes through a ready-queue so the order is always
   topologically valid even with zero-cost tasks (see DESIGN.md,
   "Documented algorithmic reconstructions").
4. Each node goes to the host that *completes* its execution soonest,
   accounting for data arrival from every parent (end-of-queue insertion).

Analytic cost (``Schedule.ops``): computing BL touches every edge; sorting
is ``n log n``; the host-selection loop examines every host for every node,
with every in-edge contributing — ``sum_v (indeg(v) + 1) * p``.  This is the
term that makes MCP expensive on large resource universes (Fig. IV-5) and
that grows the scheduling time with RC size (Fig. V-3).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import Schedule, SchedulerState, log2ceil, register_scheduler

__all__ = ["schedule_mcp", "mcp_order"]


def mcp_order(dag: DAG) -> list[int]:
    """MCP's task order: a ready queue popped by (ALAP, smallest child
    ALAP, id).

    Whether a task is ready depends only on which tasks were popped before
    it, never on times, so the order is a function of the DAG alone.
    """
    bl = dag.bottom_levels(include_comm=True)
    alap = bl.max() - bl
    # Tie-break key: smallest ALAP among children (first element of the
    # descendant ALAP list after the node's own).
    min_child_alap = np.full(dag.n, np.inf)
    if dag.m:
        np.minimum.at(min_child_alap, dag.edge_src, alap[dag.edge_dst])
    keys = list(zip(alap.tolist(), min_child_alap.tolist(), range(dag.n)))
    children = dag.edge_dst[dag.succ_edges].tolist()
    child_index = dag.succ_index.tolist()
    indeg = dag.in_degree.tolist()
    heap = [keys[v] for v in dag.entry_nodes.tolist()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)[2]
        order.append(v)
        for u in children[child_index[v] : child_index[v + 1]]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(heap, keys[u])
    return order


@register_scheduler("mcp")
def schedule_mcp(dag: DAG, rc: ResourceCollection) -> Schedule:
    """Schedule ``dag`` on ``rc`` with MCP."""
    state = SchedulerState(dag, rc)
    p = rc.n_hosts
    state.ops += dag.m + dag.n * log2ceil(dag.n)
    for v in mcp_order(dag):
        h, start = state.best_finish_host(v)
        state.place(v, h, start)
        state.ops += (dag.in_degree[v] + 1) * p
    return state.result("mcp")
