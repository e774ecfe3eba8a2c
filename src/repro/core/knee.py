"""Turn-around-time curves over RC size and knee detection (§V.2.2).

The *best RC size* for a DAG and heuristic is the "knee" of the
turn-around-time-vs-RC-size curve: the smallest RC size such that any
larger RC improves turn-around time by less than a threshold (0.1 % by
default; §V.3.2.3 also uses 0.5/1/2/5/10 % to trade performance for cost).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

import repro.observe as observe
from repro.dag.graph import DAG
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import schedule_dag
from repro.scheduling.costmodel import DEFAULT_COST_MODEL, SchedulingCostModel

__all__ = [
    "TurnaroundCurve",
    "rc_size_grid",
    "PrefixRCFactory",
    "sweep_turnaround",
    "knee_from_curve",
    "DEFAULT_KNEE_THRESHOLD",
]

DEFAULT_KNEE_THRESHOLD = 0.001


@dataclass
class TurnaroundCurve:
    """Application turn-around time as a function of RC size (Figs. V-2/3)."""

    sizes: np.ndarray
    turnaround: np.ndarray
    makespan: np.ndarray
    scheduling_time: np.ndarray
    heuristic: str

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self.turnaround = np.asarray(self.turnaround, dtype=np.float64)
        self.makespan = np.asarray(self.makespan, dtype=np.float64)
        self.scheduling_time = np.asarray(self.scheduling_time, dtype=np.float64)
        if not (
            self.sizes.shape
            == self.turnaround.shape
            == self.makespan.shape
            == self.scheduling_time.shape
        ):
            raise ValueError("curve arrays must have matching shapes")
        if self.sizes.size == 0:
            raise ValueError("curve must contain at least one point")
        if np.any(np.diff(self.sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")

    @property
    def best_turnaround(self) -> float:
        return float(self.turnaround.min())

    @property
    def best_size(self) -> int:
        return int(self.sizes[self.turnaround.argmin()])

    def at_size(self, size: int) -> float:
        """Turn-around at the sampled size closest to ``size``."""
        i = int(np.abs(self.sizes - size).argmin())
        return float(self.turnaround[i])


def rc_size_grid(max_size: int, min_size: int = 1, step_frac: float = 0.08) -> np.ndarray:
    """Candidate RC sizes: dense at the bottom, ~``step_frac`` geometric
    spacing above, always including ``max_size``."""
    if max_size < min_size:
        raise ValueError("max_size must be >= min_size")
    sizes = set(range(min_size, min(max_size, 16) + 1))
    s = 16.0
    while s < max_size:
        s = max(s + 1.0, s * (1.0 + step_frac))
        sizes.add(min(int(round(s)), max_size))
    sizes.add(max_size)
    return np.array(sorted(x for x in sizes if min_size <= x <= max_size), dtype=np.int64)


@dataclass
class PrefixRCFactory:
    """Nested RC family: the RC of size ``p`` is the first ``p`` hosts of a
    fixed pre-drawn pool, so that growing the RC only *adds* hosts.

    This mirrors the paper's methodology of scheduling the same DAGs "on
    resource collections of increasing size" (§V.2.2) under a fixed
    resource environment.
    """

    max_size: int
    heterogeneity: float = 0.0
    mean_speed: float = 1.0
    seed: int = 0

    _pool: ResourceCollection = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.heterogeneity > 0:
            rng = np.random.default_rng(self.seed)
            self._pool = ResourceCollection.heterogeneous_clock(
                self.max_size, self.heterogeneity, rng, self.mean_speed
            )
        else:
            self._pool = ResourceCollection.homogeneous(self.max_size, self.mean_speed)

    def __call__(self, size: int) -> ResourceCollection:
        if not 1 <= size <= self.max_size:
            raise ValueError(f"size {size} outside pool of {self.max_size}")
        if size == self.max_size:
            return self._pool
        return self._pool.subset(np.arange(size))


def sweep_turnaround(
    dag: DAG,
    sizes: Sequence[int] | np.ndarray,
    heuristic: str = "mcp",
    rc_factory: Callable[[int], ResourceCollection] | None = None,
    cost_model: SchedulingCostModel = DEFAULT_COST_MODEL,
    *,
    within: float | None = None,
) -> TurnaroundCurve:
    """Schedule ``dag`` on RCs of each size; return the turn-around curve.

    Sizes are scheduled in increasing order.  By default every size is,
    and the curve is whole: the knee, the chapter tables and model
    training read all of it.  With ``within``, the sweep returns a prefix
    of the curve that answers what the Fig. VII-6 search asks as the
    whole curve would: the first size whose turn-around is ``<= within``
    and its turn-around, or, when no size has one, ``best_size`` and
    ``best_turnaround``.  It stops after

    * the first size whose turn-around is ``<= within``; or
    * for MCP and FCA on a homogeneous :class:`PrefixRCFactory`, the
      first schedule that leaves a host unused.  That host stays empty,
      so MCP (first host of least finish time) and FCA (first idle host)
      each prefer it to every host a larger RC adds: every larger size
      yields the same schedule, at no fewer operations, so none can meet
      ``within`` or become the first-index minimum.

    ``knee.sweep_points`` counts the sizes actually scheduled.
    """
    sizes = np.asarray(sorted(int(s) for s in set(int(x) for x in sizes)), dtype=np.int64)
    if rc_factory is None:
        rc_factory = PrefixRCFactory(int(sizes.max()))
    idle_stops = (
        within is not None
        and heuristic in ("mcp", "fca")
        and isinstance(rc_factory, PrefixRCFactory)
        and rc_factory.heterogeneity == 0
    )
    turn: list[float] = []
    mksp: list[float] = []
    sched: list[float] = []
    with observe.span("sweep_turnaround"):
        observe.inc("knee.sweeps")
        for p in sizes.tolist():
            s = schedule_dag(heuristic, dag, rc_factory(p))
            mksp.append(s.makespan)
            sched.append(cost_model.scheduling_time(s))
            turn.append(mksp[-1] + sched[-1])
            if within is not None and (
                turn[-1] <= within or (idle_stops and s.hosts_used() < p)
            ):
                break
        observe.inc("knee.sweep_points", len(turn))
    return TurnaroundCurve(sizes[: len(turn)], turn, mksp, sched, heuristic)


def knee_from_curve(
    curve: TurnaroundCurve, threshold: float = DEFAULT_KNEE_THRESHOLD
) -> int:
    """The knee: smallest sampled RC size such that every larger size
    improves turn-around by less than ``threshold`` (relative)."""
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")
    observe.inc("knee.evaluations")
    t = curve.turnaround
    n = t.shape[0]
    # suffix_min[i] = min turnaround strictly after i
    suffix_min = np.empty(n)
    suffix_min[-1] = np.inf
    for i in range(n - 2, -1, -1):
        suffix_min[i] = min(suffix_min[i + 1], t[i + 1])
    for i in range(n):
        if suffix_min[i] >= t[i] * (1.0 - threshold):
            return int(curve.sizes[i])
    return int(curve.sizes[-1])  # pragma: no cover - last index always passes
