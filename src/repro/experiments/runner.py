"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments.runner --chapter 4 --scale smoke
    python -m repro.experiments.runner --all --scale small --jobs 4 --seed 1

``--jobs`` (or the ``REPRO_JOBS`` environment variable) fans the hot
sweeps out over a process pool; per-cell deterministic seeding makes the
output identical for any worker count.  Model training and observation
sweeps are cached under ``--cache-dir`` keyed on scale, parameters, seed,
and a code version tag.

``--trace`` prints the :mod:`repro.observe` span/counter table to stderr
after the run; ``--metrics-out PATH`` writes the same registry as JSON.
Both are emitted even when a chapter fails part-way — a crashed run is
exactly when you want its metrics.  Counter totals are identical for
every ``--jobs`` value (workers ship their metrics back through
``map_cells``); only wall-clock span values differ.

``--max-retries`` / ``--cell-timeout`` / ``--on-error`` configure the
fault policy (:class:`repro.parallel.FaultPolicy`) applied to every
sweep of the run: per-cell retries with deterministic backoff, per-cell
timeouts, and whether an exhausted cell aborts (``raise``, the default),
raises after retrying (``retry``), or is skipped as a structured
``CellFailure`` (``skip``).  Because every completed cell is checkpointed
into the cache as it finishes, re-running an interrupted sweep with the
same cache recomputes only the unfinished cells.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro.observe as observe
from repro.core.heuristic_model import HeuristicPredictionModel
from repro.core.size_model import SizePredictionModel, build_observation_knees
from repro.experiments import chapter4 as c4
from repro.experiments import chapter5 as c5
from repro.experiments import chapter6 as c6
from repro.experiments import chapter7 as c7
from repro.experiments.scales import Scale, get_scale
from repro.experiments.tables import print_table
from repro.parallel import (
    DEFAULT_CACHE_DIR,
    MISS,
    FaultPolicy,
    ResultCache,
    use_fault_policy,
)

__all__ = [
    "run_chapter4",
    "run_chapter5",
    "run_chapter6",
    "run_chapter7",
    "add_arguments",
    "run",
    "main",
]

#: Bump when a model/training change invalidates cached trained models.
MODELS_CACHE_VERSION = "1"

#: The dissertation chapters the runner regenerates.
CHAPTERS = (4, 5, 6, 7)


def _models(
    scale: Scale,
    seed: int = 0,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    jobs: int | None = None,
) -> tuple[SizePredictionModel, HeuristicPredictionModel]:
    """Train (or load from the on-disk cache) both prediction models."""
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    key = (MODELS_CACHE_VERSION, scale.name, scale.size_grid, scale.heuristic_grid, seed)
    if cache is not None:
        payload = cache.get("models", key)
        if payload is not MISS:
            print(f"[training] loading cached models from {cache.root}/")
            return (
                SizePredictionModel.from_dict(payload["size_model"]),
                HeuristicPredictionModel.from_dict(payload["heuristic_model"]),
            )

    print(f"[training] size model on grid {scale.size_grid.sizes} x {scale.size_grid.ccrs} ...")
    t0 = time.perf_counter()
    with observe.span("train.size_model"):
        knees = build_observation_knees(scale.size_grid, seed=seed, jobs=jobs, cache=cache)
        size_model = SizePredictionModel.fit(scale.size_grid, knees)
    print(f"[training] size model done in {time.perf_counter() - t0:.1f}s")
    t0 = time.perf_counter()
    with observe.span("train.heuristic_model"):
        heuristic_model = HeuristicPredictionModel.train(
            scale.heuristic_grid, seed=seed, jobs=jobs, cache=cache
        )
    print(f"[training] heuristic model done in {time.perf_counter() - t0:.1f}s")
    if cache is not None:
        cache.store(
            "models",
            key,
            {
                "size_model": size_model.to_dict(),
                "heuristic_model": heuristic_model.to_dict(),
            },
        )
    return size_model, heuristic_model


def run_chapter4(scale: Scale, seed: int = 0, jobs: int | None = None) -> None:
    """Regenerate every Chapter IV table/figure at the given scale."""
    print_table(c4.montage_schemes(scale, ccr=0.01, seed=seed), "Fig IV-5: Montage, actual communication costs")
    print_table(c4.montage_schemes(scale, ccr=1.0, seed=seed), "Fig IV-6: Montage, CCR = 1")
    print_table(
        c4.montage_ccr_sweep(scale, seed=seed, jobs=jobs),
        "Figs IV-7/IV-8: Montage ratios vs MCP-on-universe, varying CCR",
    )
    for axis in ("size", "ccr", "parallelism", "density", "regularity", "mean_comp_cost"):
        print_table(
            c4.random_dag_sweep(scale, axis, seed=seed, jobs=jobs),
            f"Figs IV-9..14: random DAGs varying {axis}",
        )


def run_chapter5(
    scale: Scale,
    seed: int = 0,
    jobs: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
) -> None:
    """Regenerate every Chapter V table/figure at the given scale."""
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    knees = build_observation_knees(scale.size_grid, seed=seed, jobs=jobs, cache=cache)
    model = SizePredictionModel.fit(scale.size_grid, knees)
    print_table(
        c5.turnaround_vs_rc_size(scale, size=scale.size_grid.sizes[0], seed=seed, jobs=jobs),
        "Figs V-2/V-3: turn-around vs RC size",
    )
    print_table(c5.knee_table(scale, size=scale.size_grid.sizes[-1], seed=seed), "Table V-2: knee values")
    print_table(c5.plane_fit_quality(scale.size_grid, knees, model), "Fig V-4: planar fit quality")
    print_table(c5.knee_vs_size(scale, seed=seed, jobs=jobs), "Fig V-5: knee vs DAG size")
    print_table(
        c5.knee_vs_ccr(scale, size=scale.size_grid.sizes[0], seed=seed, jobs=jobs),
        "Fig V-6: knee vs CCR",
    )
    print_table(c5.validate_size_model(model, scale), "Table V-5: model validation")
    print_table(
        c5.validate_between_sizes(model, scale, _between_sizes(scale)),
        "Table V-6: sizes between observation points",
    )
    print_table(c5.width_practice_comparison(model, scale), "Table V-7: DAG width current practice")
    print_table(c5.montage_validation(model, scale), "Table V-9: Montage validation")
    print_table(c5.utility_vs_threshold(model, scale), "Fig V-7: utility vs threshold")
    print_table(
        c5.heterogeneity_study(model, scale, jobs=jobs),
        "Figs V-8..V-11: clock-rate heterogeneity",
    )
    print_table(c5.heuristic_sensitivity(model, scale), "Figs V-16/V-17: heuristic sensitivity")
    print_table(c5.scr_study(scale, jobs=jobs), "Figs V-18..V-24: SCR study")


def _between_sizes(scale: Scale) -> list[int]:
    sizes = scale.size_grid.sizes
    if len(sizes) < 2:
        return list(sizes)
    lo, hi = sizes[-2], sizes[-1]
    step = max(1, (hi - lo) // 4)
    return list(range(lo, hi + 1, step))


def run_chapter6(
    scale: Scale,
    seed: int = 0,
    jobs: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
) -> None:
    """Regenerate every Chapter VI table/figure at the given scale."""
    size_model, heuristic_model = _models(scale, seed=seed, cache_dir=cache_dir, jobs=jobs)
    print_table(
        c6.heuristic_turnaround_table(heuristic_model),
        "Table VI-2 / Fig VI-1: optimal turn-around per heuristic",
    )
    print_table(c6.decision_surface(heuristic_model), "Fig VI-2: decision surface")
    rows, summary = c6.validate_combined_models(size_model, heuristic_model, scale)
    print_table(rows, "Table VI-4: combined-model validation points")
    print_table([summary], "Fig VI-4/VI-5: validation outcome summary")


def run_chapter7(
    scale: Scale,
    seed: int = 0,
    jobs: int | None = None,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
) -> None:
    """Regenerate every Chapter VII table/figure at the given scale."""
    size_model, heuristic_model = _models(scale, seed=seed, cache_dir=cache_dir, jobs=jobs)
    result = c7.generate_montage_specs(size_model, heuristic_model, scale)
    spec = result["spec"]
    print(spec.describe())
    print("\nFig VII-5 — generated vgDL:\n" + result["vgdl_text"])
    print("\nFig VII-3 — generated ClassAd:\n" + result["classad_text"])
    print("\nFig VII-4 — generated SWORD XML:\n" + result["sword_text"])
    print_table(
        [
            {
                "engine": "vgES",
                "hosts_returned": result["vg_hosts"],
            },
            {"engine": "SWORD", "hosts_returned": result["sword_hosts"]},
            {"engine": "Condor gangmatch", "hosts_returned": result["gang_machines"]},
        ],
        "\nEnd-to-end selection results",
    )
    print_table(c7.clock_size_surface(scale), "Fig VII-6: turn-around vs clock and RC size")
    print_table(c7.relative_size_threshold(scale), "Fig VII-7: relative size threshold 3.5 -> 3.0 GHz")
    print_table(c7.alternatives_demo(size_model, scale), "Alternative specifications")
    print_table(
        c7.churn_penalty_sweep(size_model, scale, seed=seed, jobs=jobs),
        "Spec-degradation penalty vs churn rate (resilient pipeline)",
    )
    print_table(
        c7.tenant_contention_sweep(scale, seed=seed, jobs=jobs),
        "Multi-tenant contention sweep (selection service)",
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the options the runner shares with the ``repro experiments``
    subcommand on ``parser``."""
    parser.add_argument("--chapter", type=int, choices=CHAPTERS, default=None)
    parser.add_argument("--scale", default="smoke", choices=("smoke", "small", "paper"))
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed for every sweep (default 0)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers for the sweeps (default: REPRO_JOBS or 1; 0 = all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"on-disk result cache location (default {DEFAULT_CACHE_DIR!r})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="extra attempts per failing sweep cell (default 2)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt (enforced for --jobs > 1)",
    )
    parser.add_argument(
        "--on-error",
        choices=("raise", "retry", "skip"),
        default="raise",
        help="failed-cell discipline: abort immediately, retry then abort, "
        "or skip the cell as a structured failure (default raise)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the span/counter table to stderr when the run finishes",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's metrics registry as JSON to PATH",
    )


def run(args: argparse.Namespace, chapters: list[int]) -> int:
    """Run ``chapters`` with the options :func:`add_arguments` parsed."""
    scale = get_scale(args.scale)
    cache_dir = None if args.no_cache else args.cache_dir
    policy = FaultPolicy(
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
        on_error=args.on_error,
    )
    if cache_dir is not None:
        # Sweep start: clear temp-file droppings a killed run left behind.
        ResultCache(cache_dir).prune_tmp()
    # A fresh registry per invocation: metrics describe this run only,
    # even when run() is called repeatedly in-process (tests, notebooks).
    with observe.use_registry(observe.MetricsRegistry()) as registry:
        # try/finally: a chapter that raises must still emit its metrics —
        # a failed run is exactly when the trace is needed.
        try:
            with use_fault_policy(policy):
                for ch in chapters:
                    print(f"===== Chapter {ch} ({scale.name} scale) =====")
                    t0 = time.perf_counter()
                    with registry.span(f"chapter{ch}"):
                        if ch == 4:
                            run_chapter4(scale, seed=args.seed, jobs=args.jobs)
                        elif ch == 5:
                            run_chapter5(scale, seed=args.seed, jobs=args.jobs, cache_dir=cache_dir)
                        elif ch == 6:
                            run_chapter6(scale, seed=args.seed, jobs=args.jobs, cache_dir=cache_dir)
                        else:
                            run_chapter7(scale, seed=args.seed, jobs=args.jobs, cache_dir=cache_dir)
                    print(f"===== Chapter {ch} done in {time.perf_counter() - t0:.1f}s =====\n")
        finally:
            metrics_failed = False
            if args.metrics_out:
                from repro.durability import atomic_write_text

                try:
                    atomic_write_text(args.metrics_out, registry.to_json())
                except OSError as exc:
                    # A full disk at the end of an hours-long sweep should
                    # cost one readable line, not a traceback.
                    print(
                        f"error: cannot write metrics to {args.metrics_out}: {exc}",
                        file=sys.stderr,
                    )
                    metrics_failed = True
                else:
                    print(f"[metrics] written to {args.metrics_out}", file=sys.stderr)
            if args.trace:
                print(registry.render_table(), file=sys.stderr)
    return 1 if metrics_failed else 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point (see module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    parser.add_argument("--all", action="store_true", help="run every chapter")
    args = parser.parse_args(argv)
    if not (args.all or args.chapter):
        parser.error("pass --chapter N or --all")
    return run(args, list(CHAPTERS) if args.all else [args.chapter])


if __name__ == "__main__":
    sys.exit(main())
