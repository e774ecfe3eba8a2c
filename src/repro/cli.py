"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``train``
    Train the RC-size (and optionally heuristic) prediction models on an
    observation grid and save them as JSON.
``predict``
    Predict the best RC size / heuristic for given DAG characteristics and
    print the generated vgDL / ClassAd / SWORD specifications.
``experiments``
    Regenerate the paper's tables and figures (thin wrapper around
    :mod:`repro.experiments.runner`).
``select``
    Run the resilient end-to-end selection pipeline (generate → select →
    bind → execute) against a churning platform and report the
    :class:`~repro.selection.pipeline.SelectionOutcome`.  Exit code 0 when
    the DAG completed, 1 when every ladder rung was refused, 2 when a
    user-provided ``--spec`` is statically unsatisfiable.
``serve``
    Run the deterministic multi-tenant selection service: N concurrent
    spec requests over one shared churning platform, with admission
    control, deadlines, circuit breakers, brownout, conflict retry,
    fairness accounting, seeded chaos injection (``--faults``) and a
    write-ahead journal (``--journal`` / ``--resume``).  Prints a
    per-tenant outcome table.  Exit codes: 0 all requests fulfilled;
    1 at least one admitted request went unfulfilled; 2 admission
    control refused or shed requests (or a malformed spec/flag);
    3 the service crashed mid-run while journaled — the printed
    ``--resume`` command replays to the exact uninterrupted state.
``lint``
    Statically analyze resource-specification documents (vgDL, ClassAd,
    SWORD XML): contradictions, dead clauses, type errors, unknown
    attributes — optionally with a platform satisfiability preflight.
    Exit code 0 when clean (warnings allowed), 1 on error-level findings.
``fsck``
    Verify everything repro keeps on disk — result-cache directories,
    model files, write-ahead journals — against their checksums and
    report a per-artifact verdict.  Exit code 0 clean, 1 damage the
    system recovers from by itself (recompute / resume), 2 damage that
    needs operator attention (e.g. a corrupt model file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from repro.core.heuristic_model import HeuristicPredictionModel
from repro.core.size_model import ObservationGrid, SizePredictionModel
from repro.experiments import runner
from repro.experiments.scales import SMOKE

__all__ = ["main"]


class CliError(Exception):
    """A user-facing error: printed as one line to stderr, exit code 2."""


def _load_model(loader: Callable[[Any], Any], path: str, what: str) -> Any:
    """Load a model file, mapping failures to a one-line :class:`CliError`.

    A missing or corrupt model file is an operator mistake, not a bug —
    it gets a readable message and exit code 2, never a traceback.
    """
    try:
        return loader(path)
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        raise CliError(f"cannot load {what} from {path}: {exc}") from None


def _save_model(model: Any, path: str, what: str) -> None:
    try:
        model.save(path)
    except OSError as exc:
        raise CliError(f"cannot write {what} to {path}: {exc}") from None

_GRIDS = {
    "tiny": SMOKE.size_grid,
    "small": ObservationGrid(
        sizes=(100, 500, 1000, 2000),
        ccrs=(0.01, 0.3, 1.0),
        parallelisms=(0.3, 0.5, 0.7, 0.9),
        regularities=(0.01, 0.3, 0.8),
        instances=2,
        thresholds=(0.001, 0.01, 0.05, 0.10),
    ),
}


def _cmd_train(args: argparse.Namespace) -> int:
    grid = _GRIDS[args.grid]
    print(f"training size model on the {args.grid!r} grid ...", file=sys.stderr)
    model = SizePredictionModel.train(grid, seed=args.seed, jobs=args.jobs)
    _save_model(model, args.output, "size model")
    print(f"size model saved to {args.output}")
    if args.heuristic_output:
        hgrid = ObservationGrid(
            sizes=grid.sizes[:2],
            ccrs=grid.ccrs[:2],
            parallelisms=grid.parallelisms[:2],
            regularities=(grid.regularities[0],),
            instances=1,
        )
        print("training heuristic model ...", file=sys.stderr)
        hmodel = HeuristicPredictionModel.train(hgrid, seed=args.seed, jobs=args.jobs)
        _save_model(hmodel, args.heuristic_output, "heuristic model")
        print(f"heuristic model saved to {args.heuristic_output}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = _load_model(SizePredictionModel.load, args.model, "size model")
    hmodel = (
        _load_model(HeuristicPredictionModel.load, args.heuristic_model, "heuristic model")
        if args.heuristic_model
        else None
    )
    size = model.predict(args.size, args.ccr, args.parallelism, args.regularity, args.threshold)
    heuristic = (
        hmodel.predict(args.size, args.ccr, args.parallelism, args.regularity)
        if hmodel
        else model.heuristic
    )
    print(f"predicted RC size: {size}")
    print(f"predicted heuristic: {heuristic}")
    if args.specs:
        from repro.core.generator import request_specification

        spec = request_specification(
            heuristic,
            size,
            clock_ghz=args.clock_ghz,
            heterogeneity_tolerance=args.heterogeneity_tolerance,
            ccr=args.ccr,
            threshold=args.threshold,
            dag_name="cli",
        )
        print("\n--- vgDL ---\n" + spec.to_vgdl())
        print("\n--- ClassAd ---\n" + spec.to_classad())
        print("\n--- SWORD ---\n" + spec.to_sword_xml())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import detect_language, lint_text, preflight_document

    platform = None
    if args.platform:
        from repro.experiments.chapter4 import build_universe
        from repro.experiments.scales import get_scale

        platform = build_universe(get_scale(args.platform), args.platform_seed)

    any_errors = False
    results: list[tuple[str, str, Any]] = []
    for path in args.files:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from None
        lang = args.lang or detect_language(text, filename=path)
        report = lint_text(text, lang=lang)
        if platform is not None and not report.has_errors:
            report.extend(preflight_document(text, platform, lang).report)
        any_errors = any_errors or report.has_errors
        results.append((path, lang, report))

    if args.json:
        print(
            json.dumps(
                {
                    path: {"lang": lang, "diagnostics": [d.to_dict() for d in report]}
                    for path, lang, report in results
                },
                indent=2,
            )
        )
    else:
        for path, lang, report in results:
            if not len(report):
                print(f"{path}: clean ({lang})")
            else:
                print(f"{path} ({lang}):")
                for diag in report:
                    print(f"  {diag.format()}")
    return 1 if any_errors else 0


def _reject_unsatisfiable(spec: Any, platform: Any) -> None:
    """Raise :class:`CliError` when a user-provided spec can never be
    fulfilled — one diagnostic line (code + span), exit code 2, instead of
    burning the whole retry ladder on a hopeless request."""
    from repro.analysis import analyze_specification, preflight_specification

    report = analyze_specification(spec)
    report.extend(preflight_specification(spec, platform).report)
    errors = report.errors()
    if errors:
        raise CliError(
            f"specification is statically unsatisfiable: {errors[0].format()}"
        )


def _cmd_select(args: argparse.Namespace) -> int:
    import repro.observe as observe
    from repro.core.generator import ResourceSpecification, ResourceSpecificationGenerator
    from repro.experiments.chapter4 import build_universe
    from repro.experiments.scales import get_scale
    from repro.resources.churn import ChurnConfig, ResourceChurn, parse_churn_spec
    from repro.selection.pipeline import PipelineConfig, SelectionPipeline

    if args.dag:
        from repro.dag.io import load_dag

        dag = _load_model(load_dag, args.dag, "DAG")
    else:
        from repro.dag.montage import montage_dag, montage_level_counts

        if args.montage_levels is None:
            levels = get_scale(args.scale).montage_levels
        elif args.montage_levels < 1:
            raise CliError("--montage-levels must be >= 1")
        else:
            levels = montage_level_counts(args.montage_levels)
        dag = montage_dag(levels, ccr=0.01)

    if args.spec:
        model = None  # the user supplies the spec; no size model needed
    elif args.model:
        model = _load_model(SizePredictionModel.load, args.model, "size model")
    else:
        print("no --model given: training on the 'tiny' grid ...", file=sys.stderr)
        model = SizePredictionModel.train(_GRIDS["tiny"], seed=args.seed, jobs=args.jobs)

    try:
        churn_config = (
            parse_churn_spec(args.churn) if args.churn else ChurnConfig()
        )
        pipeline_config = PipelineConfig(
            max_respecs=args.max_respecs,
            max_retries=args.max_retries,
            backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None

    platform = build_universe(get_scale(args.scale), args.seed)
    if args.spec:

        def _load_spec(path: str) -> ResourceSpecification:
            with open(path, encoding="utf-8") as fh:
                return ResourceSpecification.from_dict(json.load(fh))

        spec = _load_model(_load_spec, args.spec, "resource specification")
        # A user-provided spec may be hopeless; refuse it up front with one
        # diagnostic line instead of walking the whole retry ladder.
        _reject_unsatisfiable(spec, platform)
    else:
        spec = ResourceSpecificationGenerator(model).generate(dag)
    if args.lint:
        from repro.analysis import analyze_specification

        report = analyze_specification(spec)
        print(f"lint: {report.render()}")
    print(spec.describe())

    registry = observe.MetricsRegistry()
    with observe.use_registry(registry):
        churn = ResourceChurn.from_config(platform, churn_config)
        pipeline = SelectionPipeline(platform, churn, pipeline_config)
        outcome = pipeline.run(dag, spec)

    if outcome.fulfilled:
        assert outcome.final_spec is not None
        print(
            f"fulfilled via {outcome.backend} "
            f"(spec rung {outcome.spec_index}, {len(outcome.hosts)} hosts, "
            f"{outcome.segments} segment(s))"
        )
        print(
            f"turnaround {outcome.turnaround_s:.2f}s"
            + (
                f" vs {outcome.baseline_turnaround_s:.2f}s undisturbed "
                f"(penalty {outcome.penalty * 100:+.1f}%)"
                if outcome.penalty is not None
                else ""
            )
        )
    else:
        print("unfulfilled: every ladder rung was refused")
    print(
        f"refusals={outcome.refusals} respecifications={outcome.respecifications} "
        f"backend_fallbacks={outcome.backend_fallbacks} rebinds={outcome.rebinds} "
        f"respecs_pruned={outcome.respecs_pruned}"
    )
    if args.outcome_out:
        from repro.durability import atomic_write_json

        try:
            atomic_write_json(args.outcome_out, outcome.to_dict(), indent=2)
        except OSError as exc:
            raise CliError(f"cannot write outcome to {args.outcome_out}: {exc}") from None
        print(f"outcome written to {args.outcome_out}")
    if args.trace:
        print(registry.render_table(), file=sys.stderr)
    return 0 if outcome.fulfilled else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import math

    import repro.observe as observe
    from repro.experiments.chapter4 import build_universe
    from repro.experiments.scales import get_scale
    from repro.experiments.tables import print_table
    from repro.faults import parse_service_spec, service_from_env
    from repro.journal import JournalError
    from repro.resources.churn import ChurnConfig, parse_churn_spec
    from repro.selection.pipeline import PipelineConfig
    from repro.service import (
        SelectionService,
        ServiceConfig,
        ServiceError,
        load_requests,
        synthesize_requests,
    )

    if args.journal and args.resume:
        raise CliError(
            "--journal and --resume are mutually exclusive "
            "(--resume verifies and then appends to the existing journal)"
        )
    try:
        churn_config = parse_churn_spec(args.churn) if args.churn else ChurnConfig()
        service_faults = (
            parse_service_spec(args.faults) if args.faults else service_from_env()
        )
        pipeline_config = PipelineConfig(
            max_respecs=args.max_respecs,
            max_retries=args.max_retries,
            backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
            seed=args.seed,
        )
        service_config = ServiceConfig(
            queue_capacity=args.queue_capacity,
            max_inflight=args.max_inflight,
            interleave_seed=args.interleave_seed,
            pipeline=pipeline_config,
            deadline_s=args.deadline if args.deadline is not None else math.inf,
            brownout_threshold=args.brownout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
        )
    except (ValueError, ServiceError) as exc:
        raise CliError(str(exc)) from None

    platform = build_universe(get_scale(args.scale), args.seed)
    try:
        if args.requests:
            requests = load_requests(args.requests)
        else:
            requests = synthesize_requests(platform, args.tenants, seed=args.seed)
    except (OSError, json.JSONDecodeError, ServiceError) as exc:
        raise CliError(str(exc)) from None

    registry = observe.MetricsRegistry()
    with observe.use_registry(registry):
        service = SelectionService(
            platform, churn_config, service_config, faults=service_faults
        )
        try:
            report = service.run(
                requests, journal_path=args.journal, resume_path=args.resume
            )
        except (ServiceError, JournalError) as exc:
            raise CliError(str(exc)) from None
        except Exception as exc:
            journal_file = args.resume or args.journal
            if journal_file is None:
                raise
            # Every dispatcher batch was write-ahead journaled before it
            # mutated shared state, so the run is recoverable: resuming
            # replays the journaled prefix bit-identically and continues.
            print(f"error: service crashed mid-run: {exc}", file=sys.stderr)
            print(
                f"the write-ahead journal {journal_file} is intact; "
                f"re-run with --resume {journal_file} to recover",
                file=sys.stderr,
            )
            return 3

    rows = []
    for o in report.outcomes:
        oc = o.outcome
        rows.append(
            {
                "tenant": o.tenant,
                "arrival_s": round(o.arrival_s, 2),
                "admitted": "yes" if o.admitted else "REFUSED",
                "queue_wait_s": "-" if o.queue_wait_s is None else round(o.queue_wait_s, 2),
                "result": (
                    "-"
                    if oc is None
                    else (f"fulfilled:{oc.backend}" if oc.fulfilled else "unfulfilled")
                ),
                "hosts": "-" if oc is None else len(oc.hosts),
                "refusals": "-" if oc is None else oc.refusals,
                "turnaround_s": (
                    "-"
                    if oc is None or oc.turnaround_s is None
                    else round(oc.turnaround_s, 2)
                ),
                "penalty": (
                    "-"
                    if oc is None or oc.penalty is None
                    else f"{oc.penalty * 100:+.1f}%"
                ),
            }
        )
    print_table(rows, f"Service outcomes ({len(report.outcomes)} requests)")
    counters = registry.snapshot()["counters"]
    print(
        f"admitted={report.n_admitted} refused={report.n_refused} "
        f"shed={report.n_shed} crashed={report.n_crashed} "
        f"fulfilled={report.n_fulfilled} "
        f"bind_conflicts={int(counters.get('service.bind_conflicts', 0))} "
        f"breaker_trips={int(counters.get('service.breaker_trips', 0))} "
        f"deadline_aborts={int(counters.get('service.deadline_aborts', 0))} "
        f"batches={int(counters.get('service.batches', 0))} "
        f"queue_wait_p99={report.fairness.get('queue_wait_p99', 0.0):.2f}s"
    )
    if args.outcome_out:
        from repro.durability import atomic_write_json

        try:
            atomic_write_json(args.outcome_out, report.to_dict(), indent=2)
        except OSError as exc:
            raise CliError(f"cannot write outcomes to {args.outcome_out}: {exc}") from None
        print(f"outcomes written to {args.outcome_out}")
    if args.trace:
        print(registry.render_table(), file=sys.stderr)
    if report.n_refused > 0:
        # Admission control turned requests away (queue_full or shed):
        # an operator capacity problem, distinct from ladder failures.
        return 2
    if report.n_fulfilled < len(report.outcomes):
        return 1
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.durability import fsck_exit_code, fsck_paths

    findings = fsck_paths(args.paths, do_quarantine=args.quarantine)
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        shown = [f for f in findings if args.verbose or f.verdict != "skipped"]
        for finding in shown:
            print(finding.format())
        counts = {v: sum(1 for f in findings if f.verdict == v) for v in (
            "ok", "legacy", "recoverable", "unrecoverable", "skipped")}
        print(
            f"checked {len(findings)} file(s): {counts['ok']} ok, "
            f"{counts['legacy']} legacy, {counts['recoverable']} recoverable, "
            f"{counts['unrecoverable']} unrecoverable, {counts['skipped']} skipped"
        )
    return fsck_exit_code(findings)


def _cmd_experiments(args: argparse.Namespace) -> int:
    # Unlike the runner alone, no --chapter means every chapter.
    return runner.run(args, [args.chapter] if args.chapter else list(runner.CHAPTERS))


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and save prediction models")
    p_train.add_argument("--grid", choices=sorted(_GRIDS), default="tiny")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel workers (default: REPRO_JOBS or 1; 0 = all cores)",
    )
    p_train.add_argument("--output", default="size_model.json")
    p_train.add_argument("--heuristic-output", default=None)
    p_train.set_defaults(fn=_cmd_train)

    p_pred = sub.add_parser("predict", help="predict RC size / heuristic")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--heuristic-model", default=None)
    p_pred.add_argument("--size", type=int, required=True)
    p_pred.add_argument("--ccr", type=float, required=True)
    p_pred.add_argument("--parallelism", type=float, required=True)
    p_pred.add_argument("--regularity", type=float, required=True)
    p_pred.add_argument("--threshold", type=float, default=0.001)
    p_pred.add_argument("--clock-ghz", type=float, default=3.0)
    p_pred.add_argument("--heterogeneity-tolerance", type=float, default=0.3)
    p_pred.add_argument("--specs", action="store_true", help="print the three specification documents")
    p_pred.set_defaults(fn=_cmd_predict)

    p_sel = sub.add_parser(
        "select", help="resilient end-to-end selection against a churning platform"
    )
    p_sel.add_argument("--model", default=None, help="trained size-model JSON (default: train tiny)")
    p_sel.add_argument("--dag", default=None, help="DAG JSON file (default: a Montage DAG)")
    p_sel.add_argument(
        "--montage-levels", type=int, default=None, help="Montage levels when no --dag is given"
    )
    p_sel.add_argument("--scale", default="smoke", choices=("smoke", "small", "paper"))
    p_sel.add_argument("--seed", type=int, default=0)
    p_sel.add_argument(
        "--jobs", type=int, default=None, help="parallel workers for fallback training"
    )
    p_sel.add_argument(
        "--churn",
        default=None,
        metavar="SPEC",
        help="churn spec, e.g. 'fail=0.002,competitor=0.01,util=0.3,seed=7' "
        "(keys: fail, rejoin, competitor, size, hold, util, horizon, seed)",
    )
    p_sel.add_argument(
        "--max-respecs", type=int, default=3, help="alternative specifications per backend"
    )
    p_sel.add_argument(
        "--max-retries", type=int, default=1, help="extra attempts per ladder rung"
    )
    p_sel.add_argument(
        "--backends",
        default="vges,classad,sword",
        help="comma-separated backend ladder (vges, classad, sword)",
    )
    p_sel.add_argument(
        "--outcome-out", default=None, metavar="PATH", help="write the SelectionOutcome as JSON"
    )
    p_sel.add_argument(
        "--trace", action="store_true", help="print the run's metrics table to stderr"
    )
    p_sel.add_argument(
        "--spec",
        default=None,
        metavar="PATH",
        help="user-provided ResourceSpecification JSON (see to_dict); "
        "statically-unsatisfiable specs are rejected with exit code 2",
    )
    p_sel.add_argument(
        "--lint",
        action="store_true",
        help="print the spec's static-analysis report before selecting",
    )
    p_sel.set_defaults(fn=_cmd_select)

    p_srv = sub.add_parser(
        "serve",
        help="deterministic multi-tenant selection service over one shared platform",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  every request was admitted and fulfilled\n"
            "  1  at least one admitted request finished unfulfilled\n"
            "     (ladder exhausted, deadline exceeded, or tenant crash)\n"
            "  2  admission control refused or shed requests at arrival,\n"
            "     or a flag/spec was malformed (--churn, --faults, ...)\n"
            "  3  the service crashed mid-run under --journal/--resume;\n"
            "     the journal is intact and the run is recoverable with\n"
            "     --resume PATH (replays bit-identically, then continues)"
        ),
    )
    p_srv.add_argument(
        "--tenants",
        type=int,
        default=8,
        help="synthesize this many tenant requests (ignored with --requests)",
    )
    p_srv.add_argument(
        "--requests",
        default=None,
        metavar="FILE",
        help="JSON request file: a list of {tenant, arrival_s, size, levels?, "
        "ccr?, clock_ghz?} objects (see repro.service.load_requests)",
    )
    p_srv.add_argument("--scale", default="smoke", choices=("smoke", "small", "paper"))
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument(
        "--churn",
        default=None,
        metavar="SPEC",
        help="churn spec, e.g. 'fail=0.002,competitor=0.01,util=0.3,seed=7'",
    )
    p_srv.add_argument(
        "--queue-capacity",
        type=int,
        default=16,
        help="waiting-room size; arrivals beyond it are refused",
    )
    p_srv.add_argument(
        "--max-inflight", type=int, default=4, help="concurrent execution slots"
    )
    p_srv.add_argument(
        "--interleave-seed",
        type=int,
        default=0,
        help="shuffles same-instant task wakeups; outcomes are invariant",
    )
    p_srv.add_argument(
        "--max-respecs", type=int, default=3, help="alternative specifications per backend"
    )
    p_srv.add_argument(
        "--max-retries", type=int, default=1, help="extra attempts per ladder rung"
    )
    p_srv.add_argument(
        "--backends",
        default="vges,classad,sword",
        help="comma-separated backend ladder (vges, classad, sword)",
    )
    p_srv.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request virtual-time budget from arrival; requests "
        "still unfinished at the deadline abort with 'deadline_exceeded' "
        "(default: unbounded)",
    )
    p_srv.add_argument(
        "--brownout",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="occupancy fraction at which brownout sheds optional work "
        "(alternative specs, preflight, baselines); "
        "default 1.0 = only at full saturation",
    )
    p_srv.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="K",
        help="consecutive backend failures that trip that backend's circuit "
        "breaker open (default 3)",
    )
    p_srv.add_argument(
        "--breaker-cooldown",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="virtual seconds an open breaker waits before half-opening to "
        "probe the backend (default 120)",
    )
    p_srv.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="seeded chaos spec, e.g. 'backend_error=0.3,fault_backend=vges,"
        "seed=7' or 'crash_tenant=3,crash_stage=bound' (keys: tenant_crash, "
        "backend_error, backend_hang, bind_stall, seed, crash_tenant, "
        "crash_stage, fault_backend, until, stall_s, hang_s, kill_after, "
        "crash_after, storm_at, storm_kill; also via $REPRO_SERVICE_FAULTS)",
    )
    p_srv.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write-ahead journal: every dispatcher batch is recorded "
        "(flushed + fsynced) before it mutates shared state",
    )
    p_srv.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume from a journal written by --journal: the run replays "
        "the journaled prefix (verifying each batch bit-for-bit), then "
        "continues past the crash point to the uninterrupted final state",
    )
    p_srv.add_argument(
        "--outcome-out", default=None, metavar="PATH", help="write all outcomes as JSON"
    )
    p_srv.add_argument(
        "--trace", action="store_true", help="print the run's metrics table to stderr"
    )
    p_srv.set_defaults(fn=_cmd_serve)

    p_lint = sub.add_parser(
        "lint", help="statically analyze resource-specification documents"
    )
    p_lint.add_argument("files", nargs="+", metavar="FILE", help="spec documents to analyze")
    p_lint.add_argument(
        "--lang",
        choices=("vgdl", "classad", "sword", "json"),
        default=None,
        help="force the specification language (default: detect per file)",
    )
    p_lint.add_argument(
        "--platform",
        default=None,
        choices=("smoke", "small", "paper"),
        metavar="SCALE",
        help="also preflight satisfiability against a platform of this scale",
    )
    p_lint.add_argument(
        "--platform-seed", type=int, default=0, help="seed for the preflight platform"
    )
    p_lint.add_argument(
        "--json", action="store_true", help="emit diagnostics as JSON instead of text"
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_fsck = sub.add_parser(
        "fsck",
        help="verify on-disk state (caches, journals, model files) against checksums",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  every artifact verified clean\n"
            "  1  damage the system recovers from on its own: corrupt or\n"
            "     quarantined cache entries (recomputed on the next run),\n"
            "     torn journal tails (truncated on --resume), orphaned\n"
            "     temp files\n"
            "  2  damage needing operator attention: a corrupt model file\n"
            "     or mid-journal corruption with no intact copy to fall\n"
            "     back to, or a path that does not exist"
        ),
    )
    p_fsck.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="files or directories to verify (directories are walked recursively)",
    )
    p_fsck.add_argument(
        "--json", action="store_true", help="emit findings as JSON instead of text"
    )
    p_fsck.add_argument(
        "--quarantine",
        action="store_true",
        help="also rename damaged JSON artifacts to *.corrupt so they can "
        "never be loaded (the same thing the loaders do on first touch)",
    )
    p_fsck.add_argument(
        "--verbose", action="store_true", help="also list skipped (non-artifact) files"
    )
    p_fsck.set_defaults(fn=_cmd_fsck)

    p_exp = sub.add_parser("experiments", help="regenerate paper tables/figures")
    runner.add_arguments(p_exp)
    p_exp.set_defaults(fn=_cmd_experiments)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
