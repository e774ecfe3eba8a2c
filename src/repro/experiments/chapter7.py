"""Chapter VII experiments — the resource specification generator in
practice.

* :func:`generate_montage_specs` — Figs. VII-3/4/5: the generated ClassAd,
  SWORD XML and vgDL documents for a Montage DAG, each *executed* against
  its selection engine on a synthetic platform (the end-to-end loop);
* :func:`clock_size_surface` — Fig. VII-6: turn-around as a function of
  clock rate and RC size;
* :func:`relative_size_threshold` — Fig. VII-7: the RC-size factor needed
  to move from a faster to a slower clock band at equal turn-around;
* :func:`alternatives_demo` — the alternative-specification algorithm when
  the best request cannot be fulfilled (Table VII-2 setting).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.core.alternatives import alternative_specifications, clock_size_tradeoff, size_to_match
from repro.core.generator import ResourceSpecificationGenerator
from repro.core.heuristic_model import HeuristicPredictionModel
from repro.core.knee import PrefixRCFactory, rc_size_grid, sweep_turnaround
from repro.core.size_model import SizePredictionModel
from repro.dag.montage import montage_dag
from repro.dag.random_dag import RandomDagSpec, generate_random_dag
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import Scale
from repro.parallel import map_cells, rng_for_cell
from repro.resources.churn import ChurnConfig, ResourceChurn
from repro.resources.collection import REFERENCE_CLOCK_GHZ
from repro.selection.pipeline import SelectionPipeline, select_once

__all__ = [
    "generate_montage_specs",
    "clock_size_surface",
    "relative_size_threshold",
    "alternatives_demo",
    "churn_penalty_sweep",
    "tenant_contention_sweep",
]


def generate_montage_specs(
    size_model: SizePredictionModel,
    heuristic_model: HeuristicPredictionModel | None,
    scale: Scale,
    ccr: float = 0.01,
    seed: int = 0,
    max_classad_machines: int = 400,
) -> dict[str, object]:
    """Generate all three specifications for Montage and run each against
    its engine on the scale's idle universe (Figs. VII-3/4/5).

    Each backend runs through :func:`~repro.selection.pipeline.select_once`,
    so Condor sees the same strided machine subset the pipeline advertises
    (matchmaking is per-machine; the paper's matchmaker also works
    incrementally).
    """
    dag = montage_dag(scale.montage_levels, ccr=ccr)
    generator = ResourceSpecificationGenerator(size_model, heuristic_model)
    spec = generator.generate(dag)
    platform = build_universe(scale, seed)

    def n_selected(backend: str) -> int:
        hosts, _ = select_once(
            platform, backend, spec, set(), max_classad_machines=max_classad_machines
        )
        return 0 if hosts is None else int(hosts.size)

    return {
        "spec": spec,
        "vgdl_text": spec.to_vgdl(),
        "classad_text": spec.to_classad(),
        "sword_text": spec.to_sword_xml(),
        "vg_hosts": n_selected("vges"),
        "sword_hosts": n_selected("sword"),
        "gang_machines": n_selected("classad"),
    }


def clock_size_surface(
    scale: Scale,
    clocks_ghz: Sequence[float] = (2.0, 2.5, 3.0, 3.5),
    seed: int = 1,
    size: int | None = None,
) -> list[dict[str, object]]:
    """Fig. VII-6: turn-around over the (clock, RC size) grid."""
    rng = np.random.default_rng(seed)
    g = scale.size_grid
    n = size or scale.dag_size
    dag = generate_random_dag(
        RandomDagSpec(
            size=n,
            ccr=0.01,
            parallelism=0.7,
            regularity=0.3,
            density=g.density,
            mean_comp_cost=g.mean_comp_cost,
            max_parents=g.max_parents,
        ),
        rng,
    )
    max_size = int(min(dag.n, max(8, 1.3 * dag.width)))
    points = clock_size_tradeoff(dag, tuple(clocks_ghz), max_size)
    return [
        {
            "clock_ghz": p.clock_ghz,
            "rc_size": p.size,
            "turnaround_s": round(p.turnaround, 3),
        }
        for p in points
    ]


def relative_size_threshold(
    scale: Scale,
    fast_clock_ghz: float = 3.5,
    slow_clock_ghz: float = 3.0,
    seed: int = 2,
    sizes: Sequence[int] | None = None,
) -> list[dict[str, object]]:
    """Fig. VII-7: by what factor must an RC of ``slow`` hosts grow to match
    the turn-around of an RC of ``fast`` hosts, as a function of the fast
    RC's size."""
    rng = np.random.default_rng(seed)
    g = scale.size_grid
    n = scale.dag_size
    dag = generate_random_dag(
        RandomDagSpec(
            size=n,
            ccr=0.01,
            parallelism=0.7,
            regularity=0.3,
            density=g.density,
            mean_comp_cost=g.mean_comp_cost,
            max_parents=g.max_parents,
        ),
        rng,
    )
    max_size = int(min(dag.n, max(16, 2.0 * dag.width)))
    grid = rc_size_grid(max_size, step_frac=0.25)
    fast_curve = sweep_turnaround(
        dag, grid, "mcp", PrefixRCFactory(max_size, mean_speed=fast_clock_ghz / REFERENCE_CLOCK_GHZ)
    )
    slow_curve = sweep_turnaround(
        dag, grid, "mcp", PrefixRCFactory(max_size, mean_speed=slow_clock_ghz / REFERENCE_CLOCK_GHZ)
    )
    if sizes is None:
        sizes = [int(s) for s in fast_curve.sizes[:: max(1, fast_curve.sizes.size // 8)]]
    rows = []
    for s in sizes:
        target = fast_curve.at_size(s)
        needed = size_to_match(slow_curve, target)
        rows.append(
            {
                "fast_rc_size": s,
                f"turnaround_at_{fast_clock_ghz}GHz_s": round(target, 3),
                "slow_size_needed": needed if needed is not None else "unreachable",
                "relative_size_threshold": (
                    round(needed / s, 3) if needed is not None else "inf"
                ),
            }
        )
    return rows


def alternatives_demo(
    size_model: SizePredictionModel,
    scale: Scale,
    available_clocks_ghz: Sequence[float] = (3.0, 2.4, 2.0),
    seed: int = 3,
) -> list[dict[str, object]]:
    """Alternative specifications for a request the environment cannot
    fulfil at the preferred clock band (Table VII-2 setting)."""
    dag = montage_dag(scale.montage_levels, ccr=0.01)
    generator = ResourceSpecificationGenerator(size_model, None, target_clock_ghz=3.5)
    spec = generator.generate(dag)
    alts = alternative_specifications(
        dag, spec, tuple(available_clocks_ghz), max_size=int(min(dag.n, 3 * spec.size))
    )
    rows = [
        {
            "rank": 0,
            "clock_ghz": spec.clock_max_mhz / 1000.0,
            "size": spec.size,
            "note": "original (unfulfilled)",
        }
    ]
    for i, (alt, turn) in enumerate(alts, start=1):
        rows.append(
            {
                "rank": i,
                "clock_ghz": alt.clock_max_mhz / 1000.0,
                "size": alt.size,
                "note": f"predicted turnaround {turn:.1f}s",
            }
        )
    return rows


# ----------------------------------------------------------------------
# Spec-degradation penalty vs. churn rate (the resilient pipeline)
# ----------------------------------------------------------------------
def _churn_cell(
    cell: tuple[float, int],
    *,
    size_model: SizePredictionModel,
    scale: Scale,
    seed: int,
    utilization: float,
) -> dict[str, float]:
    """One (churn rate, repetition) cell: run the resilient pipeline on a
    freshly churned universe and report its outcome summary."""
    rate, rep = cell
    platform = build_universe(scale, seed)
    dag = montage_dag(scale.montage_levels, ccr=0.01)
    spec = ResourceSpecificationGenerator(size_model, None).generate(dag)
    churn_seed = int(rng_for_cell(seed, "churn", rate, rep).integers(2**31))
    config = ChurnConfig(
        fail_rate=rate / 5.0,
        competitor_rate=rate,
        utilization=utilization,
        seed=churn_seed,
    )
    churn = ResourceChurn.from_config(platform, config)
    outcome = SelectionPipeline(platform, churn).run(dag, spec)
    return {
        "fulfilled": 1.0 if outcome.fulfilled else 0.0,
        "penalty": outcome.penalty if outcome.penalty is not None else float("nan"),
        "refusals": float(outcome.refusals),
        "respecifications": float(outcome.respecifications),
        "backend_fallbacks": float(outcome.backend_fallbacks),
        "rebinds": float(outcome.rebinds),
    }


def churn_penalty_sweep(
    size_model: SizePredictionModel,
    scale: Scale,
    rates: Sequence[float] = (0.0, 0.005, 0.02),
    reps: int = 2,
    utilization: float = 0.3,
    seed: int = 4,
    jobs: int | None = None,
) -> list[dict[str, object]]:
    """Spec-degradation penalty vs. churn rate under the resilient
    pipeline (the Chapter VII ladder exercised end-to-end).

    ``rates`` are competitor-binding events per virtual second (host
    failures arrive at a fifth of that).  Each cell is seeded with
    :func:`~repro.parallel.rng_for_cell`, so the table is identical for
    any ``jobs`` count.
    """
    cells = [(float(rate), rep) for rate in rates for rep in range(reps)]
    fn = functools.partial(
        _churn_cell,
        size_model=size_model,
        scale=scale,
        seed=seed,
        utilization=utilization,
    )
    per_cell = map_cells(fn, cells, jobs=jobs)
    rows: list[dict[str, object]] = []
    for rate in rates:
        got = [r for (c_rate, _), r in zip(cells, per_cell) if c_rate == float(rate)]
        penalties = [r["penalty"] for r in got if r["fulfilled"] and not np.isnan(r["penalty"])]
        rows.append(
            {
                "churn_rate": rate,
                "fulfilled": f"{sum(r['fulfilled'] for r in got):.0f}/{len(got)}",
                "mean_penalty": round(float(np.mean(penalties)), 4) if penalties else "n/a",
                "mean_refusals": round(float(np.mean([r["refusals"] for r in got])), 2),
                "mean_respecs": round(
                    float(np.mean([r["respecifications"] for r in got])), 2
                ),
                "mean_rebinds": round(float(np.mean([r["rebinds"] for r in got])), 2),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Multi-tenant contention vs. tenant count (the selection service)
# ----------------------------------------------------------------------
def _contention_cell(
    cell: tuple[int, int],
    *,
    scale: Scale,
    seed: int,
    utilization: float,
    rate: float,
) -> dict[str, float]:
    """One (tenant count, repetition) cell: serve N concurrent tenants on
    a freshly churned universe and summarize the service report."""
    import repro.observe as observe
    from repro.selection.pipeline import PipelineConfig
    from repro.service import SelectionService, ServiceConfig, synthesize_requests

    n_tenants, rep = cell
    platform = build_universe(scale, seed)
    churn_seed = int(rng_for_cell(seed, "tenants", n_tenants, rep).integers(2**31))
    config = ChurnConfig(
        fail_rate=rate / 5.0,
        competitor_rate=rate,
        utilization=utilization,
        seed=churn_seed,
    )
    requests = synthesize_requests(platform, n_tenants, seed=churn_seed)
    registry = observe.MetricsRegistry()
    with observe.use_registry(registry):
        service = SelectionService(
            platform, config, ServiceConfig(pipeline=PipelineConfig())
        )
        report = service.run(requests)
    counters = registry.snapshot()["counters"]
    penalties = [
        o.outcome.penalty
        for o in report.outcomes
        if o.outcome is not None and o.outcome.penalty is not None
    ]
    return {
        "n": float(len(report.outcomes)),
        "admitted": float(report.n_admitted),
        "fulfilled": float(report.n_fulfilled),
        "mean_penalty": float(np.mean(penalties)) if penalties else float("nan"),
        "queue_wait_p99": float(report.fairness.get("queue_wait_p99", 0.0)),
        "bind_conflicts": float(counters.get("service.bind_conflicts", 0)),
    }


def tenant_contention_sweep(
    scale: Scale,
    tenant_counts: Sequence[int] = (1, 2, 4, 8),
    reps: int = 2,
    utilization: float = 0.3,
    rate: float = 0.01,
    seed: int = 5,
    jobs: int | None = None,
) -> list[dict[str, object]]:
    """Turnaround penalty and refusal rate vs. tenant count under the
    multi-tenant selection service (the Chapter VII story at service
    scale: contention, not churn, becomes the dominant penalty).

    Each cell is seeded with :func:`~repro.parallel.rng_for_cell`, so the
    table is identical for any ``jobs`` count.
    """
    cells = [(int(n), rep) for n in tenant_counts for rep in range(reps)]
    fn = functools.partial(
        _contention_cell,
        scale=scale,
        seed=seed,
        utilization=utilization,
        rate=rate,
    )
    per_cell = map_cells(fn, cells, jobs=jobs)
    rows: list[dict[str, object]] = []
    for n in tenant_counts:
        got = [r for (c_n, _), r in zip(cells, per_cell) if c_n == int(n)]
        total = sum(r["n"] for r in got)
        penalties = [r["mean_penalty"] for r in got if not np.isnan(r["mean_penalty"])]
        rows.append(
            {
                "tenants": int(n),
                "fulfilled": f"{sum(r['fulfilled'] for r in got):.0f}/{total:.0f}",
                "refusal_rate": round(
                    float(sum(r["n"] - r["admitted"] for r in got) / total), 3
                ),
                "mean_penalty": (
                    round(float(np.mean(penalties)), 4) if penalties else "n/a"
                ),
                "queue_wait_p99_s": round(
                    float(np.mean([r["queue_wait_p99"] for r in got])), 2
                ),
                "bind_conflicts": round(
                    float(np.mean([r["bind_conflicts"] for r in got])), 1
                ),
            }
        )
    return rows
