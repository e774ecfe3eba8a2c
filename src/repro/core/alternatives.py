"""Alternative resource specifications (Chapter VII, Figs. VII-6/VII-7).

When the optimal specification cannot be fulfilled (e.g. not enough
3.5 GHz hosts), the paper degrades the specification along the clock-rate
axis while compensating with RC size: Fig. VII-6 maps turn-around time as
a function of (clock rate, RC size); Fig. VII-7 extracts the *relative RC
size threshold* — how much larger an RC of slower hosts must be to match
the original turn-around.

:func:`clock_size_tradeoff` computes the Fig. VII-6 surface by actually
scheduling the DAG; :func:`alternative_specifications` ranks degraded
specifications by predicted turn-around.

The ranking reads few cells of the surface, so it schedules only those,
with the same result as scheduling them all:

1. a band's sizes are tried in increasing order up to the first whose
   turn-around meets the target, the only size it then reads;
2. under MCP and FCA a band also stops at the first schedule that leaves
   a host unused, since every larger size repeats that schedule at a
   higher scheduling cost (see :func:`~repro.core.knee.sweep_turnaround`);
3. asked for the best ``limit`` alternatives, it skips a band whose
   computation-only critical path is already longer than the
   ``limit``-th best turn-around found, since no schedule beats it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.dag.graph import DAG
from repro.core.generator import ResourceSpecification
from repro.core.knee import PrefixRCFactory, rc_size_grid, sweep_turnaround, TurnaroundCurve
from repro.resources.collection import REFERENCE_CLOCK_GHZ
from repro.scheduling.costmodel import DEFAULT_COST_MODEL, SchedulingCostModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resources.platform import Platform

__all__ = ["ClockSizePoint", "clock_size_tradeoff", "size_to_match", "alternative_specifications"]


@dataclass(frozen=True)
class ClockSizePoint:
    """One cell of the Fig. VII-6 surface."""

    clock_ghz: float
    size: int
    turnaround: float
    makespan: float


def clock_size_tradeoff(
    dag: DAG,
    clocks_ghz: tuple[float, ...],
    max_size: int,
    heuristic: str = "mcp",
    cost_model: SchedulingCostModel = DEFAULT_COST_MODEL,
    step_frac: float = 0.2,
) -> list[ClockSizePoint]:
    """Turn-around as a function of clock rate and RC size (Fig. VII-6)."""
    points: list[ClockSizePoint] = []
    sizes = rc_size_grid(max_size, step_frac=step_frac)
    for clock in clocks_ghz:
        speed = clock / REFERENCE_CLOCK_GHZ
        factory = PrefixRCFactory(max_size, mean_speed=speed)
        curve = sweep_turnaround(dag, sizes, heuristic, factory, cost_model)
        for i in range(curve.sizes.shape[0]):
            points.append(
                ClockSizePoint(
                    clock_ghz=clock,
                    size=int(curve.sizes[i]),
                    turnaround=float(curve.turnaround[i]),
                    makespan=float(curve.makespan[i]),
                )
            )
    return points


def size_to_match(
    curve: TurnaroundCurve, target_turnaround: float
) -> int | None:
    """Smallest sampled RC size whose turn-around is within the target
    (None if the curve never reaches it — Fig. VII-7's "threshold")."""
    ok = np.flatnonzero(curve.turnaround <= target_turnaround)
    if ok.size == 0:
        return None
    return int(curve.sizes[ok[0]])


def alternative_specifications(
    dag: DAG,
    spec: ResourceSpecification,
    available_clocks_ghz: tuple[float, ...],
    max_size: int | None = None,
    slack: float = 0.05,
    cost_model: SchedulingCostModel = DEFAULT_COST_MODEL,
    platform: "Platform | None" = None,
    limit: int | None = None,
) -> list[tuple[ResourceSpecification, float]]:
    """Ranked alternatives when ``spec`` cannot be fulfilled.

    For every available clock band at or below the original request,
    find the smallest RC size whose turn-around is within ``slack`` of the
    original predicted turn-around; emit one degraded specification per
    feasible band, best predicted turn-around first (stably, so a faster
    band wins a tie).

    When *every* available band is faster than the original request, the
    request is trivially fulfillable on any of them: each faster band is
    offered with the RC size capped at the original (faster hosts never
    need a larger collection to match), rather than silently reporting no
    alternatives.

    With a ``platform``, the explored sizes are additionally capped at the
    platform's host count — an alternative requesting more hosts than
    exist is statically unsatisfiable and would only be pruned again by
    the pipeline's preflight.

    The search is lazy and exact: the result is what scheduling every
    (band, size) cell of the Fig. VII-6 surface would give, cut to its
    first ``limit`` entries (all of them when ``limit`` is None).

    * A band is searched by :func:`sweep_turnaround` with
      ``within=target``, which schedules sizes in increasing order and
      stops at the first that meets the target, the only size read from
      such a band; for MCP and FCA it also stops at the first schedule
      that leaves a host unused, as no larger size can then meet the
      target or lower the band's best turn-around.
    * With a ``limit``, bands are visited fastest first, and a band is
      skipped when its computation-only critical path at the band's
      speed, times ``1 - 1e-9``, exceeds the ``limit``-th best
      turn-around found so far.  No schedule on the band is shorter than
      that path, so the band would rank behind those ``limit``.  The
      margin covers the rounding of any chain under 10^6 tasks.
    """
    if limit is not None and limit < 0:
        raise ValueError("limit must be non-negative")
    if limit == 0:
        return []
    if max_size is None:
        max_size = int(min(dag.n, max(8, 4 * spec.size)))
    if platform is not None:
        max_size = max(1, min(max_size, platform.n_hosts))
    orig_clock = spec.clock_max_mhz / 1000.0
    # Reference turn-around of the original specification: one schedule
    # on an RC of ``spec.size`` hosts of the original clock.
    orig_speed = orig_clock / REFERENCE_CLOCK_GHZ
    factory = PrefixRCFactory(spec.size, mean_speed=orig_speed)
    orig = sweep_turnaround(dag, [spec.size], spec.heuristic, factory, cost_model)
    target = orig.at_size(spec.size) * (1.0 + slack)

    bands = sorted(set(available_clocks_ghz), reverse=True)
    degraded = [c for c in bands if c <= orig_clock + 1e-9]
    # Degrade along the clock axis when possible; otherwise every band is
    # an upgrade and all of them qualify (capped at the original size).
    candidates = degraded if degraded else bands

    out: list[tuple[ResourceSpecification, float]] = []
    frac = spec.min_size / spec.size
    chain = dag.critical_path_length(include_comm=False)
    for clock in candidates:
        speed = clock / REFERENCE_CLOCK_GHZ
        if limit is not None and len(out) >= limit:
            kth = sorted(turn for _, turn in out)[limit - 1]
            if chain / speed * (1.0 - 1e-9) > kth:
                continue
        faster = clock > orig_clock + 1e-9
        band_max = min(max_size, spec.size) if faster else max_size
        sizes = rc_size_grid(band_max, step_frac=0.2)
        curve = sweep_turnaround(
            dag, sizes, spec.heuristic, PrefixRCFactory(band_max, mean_speed=speed), cost_model,
            within=target,
        )
        needed = size_to_match(curve, target)
        if needed is None:
            # Cannot match within slack: offer this band's own optimum.
            needed = curve.best_size
            turn = curve.best_turnaround
        else:
            turn = curve.at_size(needed)
        alt = replace(
            spec,
            size=int(needed),
            min_size=max(1, int(round(frac * needed))),
            clock_max_mhz=clock * 1000.0,
            clock_min_mhz=min(spec.clock_min_mhz, clock * 1000.0),
        )
        out.append((alt, float(turn)))
    out.sort(key=lambda t: t[1])
    return out[:limit]
