"""Core weighted-DAG data structure.

A :class:`DAG` stores a task graph in flat numpy arrays, from which each
scheduling run derives the views its inner loops want (numpy vectors over
hosts, Python lists over a task's parents or children):

* ``comp`` — per-task computational cost in seconds on the reference CPU
  (the paper's ``w_v``),
* edges in COO form (``edge_src``, ``edge_dst``, ``edge_comm``) with the
  communication cost in seconds on the 10 Gb/s reference link (``w_c``),
* CSR-style adjacency in both directions (``pred_index``/``pred_edges`` and
  ``succ_index``/``succ_edges``) built once at construction.

Tasks are identified by integer ids ``0..n-1``.  Construction verifies
acyclicity and computes a topological order and the per-task *level* (length
of the longest path from an entry node, in nodes, entry nodes at level 0 —
dissertation §III.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["DAG", "dag_from_edges"]


class CycleError(ValueError):
    """Raised when the supplied edge set contains a cycle."""


@dataclass
class DAG:
    """Weighted directed acyclic task graph.

    Parameters
    ----------
    comp:
        ``float64[n]`` computational cost of each task, in seconds on the
        reference CPU.
    edge_src, edge_dst:
        ``int64[m]`` parent and child task ids of each edge.
    edge_comm:
        ``float64[m]`` communication cost of each edge, in seconds on the
        reference (10 Gb/s) network link.
    name:
        Optional human-readable workflow name.
    """

    comp: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_comm: np.ndarray
    name: str = "dag"

    # Derived structure, filled in by __post_init__.
    n: int = field(init=False)
    m: int = field(init=False)
    level: np.ndarray = field(init=False)
    topo_order: np.ndarray = field(init=False)
    pred_index: np.ndarray = field(init=False)
    pred_edges: np.ndarray = field(init=False)
    succ_index: np.ndarray = field(init=False)
    succ_edges: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.comp = np.asarray(self.comp, dtype=np.float64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        self.edge_comm = np.asarray(self.edge_comm, dtype=np.float64)
        self.n = int(self.comp.shape[0])
        self.m = int(self.edge_src.shape[0])
        if self.edge_dst.shape[0] != self.m or self.edge_comm.shape[0] != self.m:
            raise ValueError("edge arrays must have identical length")
        if self.n == 0:
            raise ValueError("a DAG must contain at least one task")
        if np.any(self.comp < 0):
            raise ValueError("computational costs must be non-negative")
        if np.any(self.edge_comm < 0):
            raise ValueError("communication costs must be non-negative")
        if self.m:
            if self.edge_src.min() < 0 or self.edge_src.max() >= self.n:
                raise ValueError("edge source id out of range")
            if self.edge_dst.min() < 0 or self.edge_dst.max() >= self.n:
                raise ValueError("edge destination id out of range")
            if np.any(self.edge_src == self.edge_dst):
                raise CycleError("self-loop detected")
        self._build_adjacency()
        self._toposort_and_levels()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_adjacency(self) -> None:
        """Build CSR adjacency (edge ids grouped by dst / by src)."""
        order_by_dst = np.argsort(self.edge_dst, kind="stable")
        self.pred_edges = order_by_dst.astype(np.int64)
        counts_in = np.bincount(self.edge_dst, minlength=self.n)
        self.pred_index = np.concatenate(([0], np.cumsum(counts_in))).astype(np.int64)

        order_by_src = np.argsort(self.edge_src, kind="stable")
        self.succ_edges = order_by_src.astype(np.int64)
        counts_out = np.bincount(self.edge_src, minlength=self.n)
        self.succ_index = np.concatenate(([0], np.cumsum(counts_out))).astype(np.int64)

        self.in_degree = counts_in.astype(np.int64)
        self.out_degree = counts_out.astype(np.int64)

    def _toposort_and_levels(self) -> None:
        """Kahn's algorithm; also assigns levels = longest path from entry."""
        indeg = self.in_degree.copy()
        level = np.zeros(self.n, dtype=np.int64)
        order = np.empty(self.n, dtype=np.int64)
        frontier = list(np.flatnonzero(indeg == 0))
        pos = 0
        succ_index, succ_edges = self.succ_index, self.succ_edges
        edge_dst = self.edge_dst
        while frontier:
            next_frontier: list[int] = []
            for u in frontier:
                order[pos] = u
                pos += 1
                for k in range(succ_index[u], succ_index[u + 1]):
                    v = edge_dst[succ_edges[k]]
                    if level[u] + 1 > level[v]:
                        level[v] = level[u] + 1
                    indeg[v] -= 1
                    if indeg[v] == 0:
                        next_frontier.append(int(v))
            frontier = next_frontier
        if pos != self.n:
            raise CycleError("graph contains a cycle")
        self.topo_order = order
        self.level = level

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def parents(self, v: int) -> np.ndarray:
        """Task ids of the parents of ``v`` (the paper's ``P(v)``)."""
        e = self.pred_edges[self.pred_index[v] : self.pred_index[v + 1]]
        return self.edge_src[e]

    def children(self, v: int) -> np.ndarray:
        """Task ids of the children of ``v`` (the paper's ``C(v)``)."""
        e = self.succ_edges[self.succ_index[v] : self.succ_index[v + 1]]
        return self.edge_dst[e]

    def in_edges(self, v: int) -> np.ndarray:
        """Edge ids whose destination is ``v``."""
        return self.pred_edges[self.pred_index[v] : self.pred_index[v + 1]]

    def out_edges(self, v: int) -> np.ndarray:
        """Edge ids whose source is ``v``."""
        return self.succ_edges[self.succ_index[v] : self.succ_index[v + 1]]

    @property
    def entry_nodes(self) -> np.ndarray:
        """Tasks with no parents."""
        return np.flatnonzero(self.in_degree == 0)

    @property
    def exit_nodes(self) -> np.ndarray:
        """Tasks with no children."""
        return np.flatnonzero(self.out_degree == 0)

    @property
    def height(self) -> int:
        """Number of levels ``h`` (longest entry→exit path, in nodes)."""
        return int(self.level.max()) + 1

    def level_sizes(self) -> np.ndarray:
        """``size(l_k)`` for every level ``k``."""
        return np.bincount(self.level, minlength=self.height)

    @property
    def width(self) -> int:
        """Maximum number of tasks in any level."""
        return int(self.level_sizes().max())

    # ------------------------------------------------------------------
    # Level/critical-path attributes used by the schedulers
    # ------------------------------------------------------------------
    def bottom_levels(self, include_comm: bool = True) -> np.ndarray:
        """Length of the longest path from each node to an exit node.

        Includes both endpoint node weights; includes edge weights when
        ``include_comm`` is true (MCP's ``BL`` definition, Fig. IV-2).
        """
        comp = self.comp.tolist()
        bl = list(comp)
        children = self.edge_dst[self.succ_edges].tolist()
        comm = self.edge_comm[self.succ_edges].tolist() if include_comm else [0.0] * self.m
        index = self.succ_index.tolist()
        for u in reversed(self.topo_order.tolist()):
            lo, hi = index[u], index[u + 1]
            if lo < hi:
                bl[u] = comp[u] + max([bl[children[k]] + comm[k] for k in range(lo, hi)])
        return np.array(bl, dtype=np.float64)

    def top_levels(self, include_comm: bool = True) -> np.ndarray:
        """Length of the longest path from an entry node up to (excluding)
        each node."""
        tl = np.zeros(self.n, dtype=np.float64)
        edge_comm = self.edge_comm if include_comm else np.zeros(self.m)
        for u in self.topo_order:
            ine = self.in_edges(u)
            if ine.size:
                cand = tl[self.edge_src[ine]] + self.comp[self.edge_src[ine]] + edge_comm[ine]
                tl[u] = cand.max()
        return tl

    def critical_path_length(self, include_comm: bool = True) -> float:
        """Length of the critical path ``CP`` (node + edge weights)."""
        return float(self.bottom_levels(include_comm=include_comm).max())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def total_work(self) -> float:
        """Sum of all computational costs (seconds on the reference CPU)."""
        return float(self.comp.sum())

    def with_comm_scaled(self, factor: float) -> "DAG":
        """Return a copy whose communication costs are scaled by ``factor``."""
        return DAG(
            comp=self.comp.copy(),
            edge_src=self.edge_src.copy(),
            edge_dst=self.edge_dst.copy(),
            edge_comm=self.edge_comm * factor,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DAG(name={self.name!r}, n={self.n}, m={self.m}, "
            f"height={self.height}, width={self.width})"
        )


def dag_from_edges(
    comp: Sequence[float],
    edges: Iterable[tuple[int, int, float]],
    name: str = "dag",
) -> DAG:
    """Convenience constructor from an edge list of ``(src, dst, comm)``."""
    edges = list(edges)
    if edges:
        src, dst, comm = zip(*edges)
    else:
        src, dst, comm = (), (), ()
    return DAG(
        comp=np.asarray(comp, dtype=np.float64),
        edge_src=np.asarray(src, dtype=np.int64),
        edge_dst=np.asarray(dst, dtype=np.int64),
        edge_comm=np.asarray(comm, dtype=np.float64),
        name=name,
    )
