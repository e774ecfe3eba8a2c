"""Tests for the resilient selection pipeline (the degradation ladder)."""

import dataclasses

import numpy as np
import pytest

import repro.observe as observe
from repro.analysis.passes import subsumes
from repro.core.alternatives import alternative_specifications
from repro.core.generator import ResourceSpecification, request_specification
from repro.dag.montage import montage_dag, montage_level_counts
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMALL, SMOKE
from repro.resources.binding import Binder
from repro.resources.churn import ChurnConfig, ChurnEvent, ChurnTrace, ResourceChurn
from repro.scheduling.base import schedule_dag
from repro.selection.pipeline import (
    PipelineConfig,
    SelectionPipeline,
    baseline_turnaround,
    fastest_free,
    respecifications,
)
from repro.selection.vgdl import VgES


@pytest.fixture(scope="module")
def platform():
    return build_universe(SMOKE, seed=0)


@pytest.fixture(scope="module")
def spec():
    return ResourceSpecification(
        heuristic="mcp",
        size=24,
        min_size=20,
        clock_min_mhz=2000.0,
        clock_max_mhz=4000.0,
        connectivity="loose",
        threshold=0.001,
        dag_name="montage",
    )


def _quiet(platform):
    return ResourceChurn.from_config(platform, ChurnConfig(), Binder(platform))


def _smaller(spec):
    return dataclasses.replace(spec, size=16, min_size=12)


def _clean_run(platform, dag, spec, **cfg):
    churn = _quiet(platform)
    pipeline = SelectionPipeline(platform, churn, PipelineConfig(**cfg))
    return pipeline.run(dag, spec)


# ----------------------------------------------------------------------
# Churn-free behaviour: the resilient loop must not perturb the happy path.
# ----------------------------------------------------------------------
def test_churn_free_run_matches_direct_select_and_schedule(platform, small_montage, spec):
    outcome = _clean_run(platform, small_montage, spec)

    vg = VgES(platform).find_and_bind(spec.to_vgdl())
    hosts = np.sort(vg.all_hosts())
    rc = platform.rc_from_hosts(hosts)
    schedule = schedule_dag("mcp", small_montage, rc)

    assert outcome.fulfilled
    assert outcome.backend == "vges" and outcome.spec_index == 0
    assert sorted(outcome.hosts) == [int(h) for h in hosts]
    assert outcome.turnaround_s == vg.selection_time + schedule.makespan
    assert outcome.baseline_turnaround_s == outcome.turnaround_s
    assert outcome.penalty == 0.0
    assert outcome.refusals == outcome.respecifications == outcome.backend_fallbacks == 0
    assert outcome.rebinds == 0 and outcome.segments == 1 and outcome.tasks_rescheduled == 0
    assert [a.result for a in outcome.attempts] == ["bound"]


@pytest.mark.parametrize(
    "backends",
    [("vges", "classad", "sword"), ("classad", "vges", "sword"), ("sword", "vges", "classad")],
    ids=lambda b: b[0],
)
@pytest.mark.parametrize("size", [4, 24])
def test_quiet_first_attempt_bind_costs_exactly_the_baseline(
    platform, small_montage, spec, backends, size
):
    # On a quiet churn a run that binds at its first attempt is the
    # undisturbed run itself: same backend, hosts, latency and makespan.
    request = dataclasses.replace(spec, size=size, min_size=max(1, size - 4))
    outcome = _clean_run(platform, small_montage, request, backends=backends)
    assert [(a.backend, a.result) for a in outcome.attempts] == [(backends[0], "bound")]
    assert outcome.turnaround_s == outcome.baseline_turnaround_s
    assert outcome.baseline_turnaround_s == baseline_turnaround(
        platform, PipelineConfig(backends=backends), small_montage, request
    )


def test_same_seed_reruns_are_bit_identical(platform, small_montage, spec):
    config = ChurnConfig(fail_rate=0.002, competitor_rate=0.01, utilization=0.25, seed=9)

    def run():
        churn = ResourceChurn.from_config(platform, config)
        return SelectionPipeline(platform, churn, alternatives=[_smaller(spec)]).run(
            small_montage, spec
        )

    assert run().to_dict() == run().to_dict()


# ----------------------------------------------------------------------
# Fulfillment failure: the ladder.
# ----------------------------------------------------------------------
def test_seeded_race_causes_exactly_one_respecification(platform, small_montage, spec):
    clean = _clean_run(platform, small_montage, spec)
    # A competitor binds some of the hosts we are about to pick, inside the
    # selection window (selection latency is ~n_clusters * 1e-5 s).
    trace = ChurnTrace(
        events=(ChurnEvent(1e-7, "bind", tuple(sorted(clean.hosts)[:10]), ref=0),)
    )
    churn = ResourceChurn(platform, trace, Binder(platform))
    pipeline = SelectionPipeline(
        platform, churn, PipelineConfig(max_retries=0), alternatives=[_smaller(spec)]
    )
    with observe.use_registry(observe.MetricsRegistry()) as reg:
        outcome = pipeline.run(small_montage, spec)

    assert outcome.fulfilled
    assert [a.result for a in outcome.attempts] == ["race", "bound"]
    assert outcome.respecifications == 1
    assert outcome.spec_index == 1
    assert outcome.final_spec == _smaller(spec)
    assert outcome.backend == "vges" and outcome.backend_fallbacks == 0
    # The outcome's counts are exactly the observe counters of the run.
    counters = reg.snapshot()["counters"]
    assert counters["pipeline.refusals"] == outcome.refusals == 1
    assert counters["pipeline.respecifications"] == outcome.respecifications
    assert "pipeline.backend_fallbacks" not in counters
    assert "pipeline.rebinds" not in counters


def test_refusal_completes_via_alternative_specification(platform, small_montage, spec):
    impossible = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    churn = _quiet(platform)
    pipeline = SelectionPipeline(
        platform, churn, PipelineConfig(max_retries=0), alternatives=[spec]
    )
    outcome = pipeline.run(small_montage, impossible)
    assert outcome.fulfilled
    assert outcome.spec_index == 1 and outcome.final_spec == spec
    assert outcome.backend == "vges" and outcome.backend_fallbacks == 0
    assert outcome.refusals == 1 and outcome.respecifications == 1
    assert outcome.attempts[0].result == "insufficient"


def test_exhausted_ladder_returns_unfulfilled_outcome(platform, small_montage, spec):
    impossible = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    churn = _quiet(platform)
    pipeline = SelectionPipeline(
        platform, churn, PipelineConfig(max_retries=1, backends=("vges", "sword")),
        alternatives=[],
    )
    outcome = pipeline.run(small_montage, impossible)
    assert not outcome.fulfilled
    assert outcome.turnaround_s is None and outcome.penalty is None
    assert outcome.hosts == () and outcome.final_spec is None
    # 2 backends x 1 spec x 2 attempts, every one a refusal.
    assert outcome.refusals == len(outcome.attempts) == 4
    assert outcome.backend_fallbacks == 1
    assert all(a.result == "insufficient" for a in outcome.attempts)


def test_retry_backoff_advances_virtual_clock(platform, small_montage, spec):
    impossible = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    churn = _quiet(platform)
    pipeline = SelectionPipeline(
        platform, churn, PipelineConfig(max_retries=2, backends=("vges",)),
        alternatives=[],
    )
    outcome = pipeline.run(small_montage, impossible)
    times = [a.time_s for a in outcome.attempts]
    assert len(times) == 3
    # Backoff is bounded and jittered: attempt k waits 5 * 2**(k-1) * [0.5, 1.5).
    assert 2.5 - 1e-6 <= times[1] - times[0] <= 7.5 + 1e-6
    assert 5.0 - 1e-6 <= times[2] - times[1] <= 15.0 + 1e-6


def _scarce_request(levels: int, size: int):
    """A Montage request for ``size`` hosts at exactly 3.6 GHz, which no
    cluster offers, so the ladder must climb to an alternative."""
    dag = montage_dag(montage_level_counts(levels))
    spec = request_specification(
        "mcp", size, clock_ghz=3.6, heterogeneity_tolerance=0.0, ccr=0.01,
        threshold=0.01, dag_name=dag.name,
    )
    return dag, spec


def test_reused_pipeline_climbs_each_requests_own_alternatives(platform):
    config = PipelineConfig(backends=("vges",), max_retries=0)
    first = _scarce_request(3, 40)
    second = _scarce_request(10, 90)
    reused = SelectionPipeline(platform, _quiet(platform), config)
    assert reused.run(*first).spec_index == 1
    # The same starting state as a fresh pipeline's: only the memo differs.
    reused.churn = _quiet(platform)
    again = reused.run(*second)
    fresh = SelectionPipeline(platform, _quiet(platform), config).run(*second)
    assert fresh.fulfilled and fresh.spec_index > 0
    assert again.to_dict() == fresh.to_dict()


def test_explicit_alternatives_are_every_runs_ladder(platform, spec):
    config = PipelineConfig(backends=("vges",), max_retries=0)
    pipeline = SelectionPipeline(
        platform, _quiet(platform), config, alternatives=[_smaller(spec)]
    )
    for request in (_scarce_request(3, 40), _scarce_request(10, 90)):
        outcome = pipeline.run(*request)
        assert (outcome.spec_index, outcome.final_spec) == (1, _smaller(spec))


def test_respecifications_schedule_only_the_bands_the_ladder_climbs():
    # The end-to-end benchmark's refused Montage-3 request on ``small``:
    # 3.5 GHz with zero clock tolerance.  Sweeping every band's whole
    # size grid took 120 schedules; the lazy search needs 34, and none
    # when no alternative is wanted.
    small = build_universe(SMALL, seed=0)
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = request_specification(
        "mcp", 9, clock_ghz=3.5, heterogeneity_tolerance=0.0, ccr=0.01,
        threshold=0.001, dag_name=dag.name,
    )
    clocks = tuple(sorted({c.clock_ghz for c in small.clusters}, reverse=True))
    ranked = [a for a, _ in alternative_specifications(dag, spec, clocks, platform=small)]
    original = (spec.size, spec.clock_min_mhz, spec.clock_max_mhz)
    others = [a for a in ranked if (a.size, a.clock_min_mhz, a.clock_max_mhz) != original]
    for max_respecs, runs in ((3, 34), (0, 0)):
        with observe.use_registry(observe.MetricsRegistry()) as reg:
            alts = respecifications(dag, spec, small, max_respecs)
        assert reg.snapshot()["counters"].get("scheduler.runs", 0) == runs
        assert alts == others[:max_respecs]
    for max_respecs in range(1, len(others) + 2):
        assert respecifications(dag, spec, small, max_respecs) == others[:max_respecs]


# ----------------------------------------------------------------------
# Mid-execution host loss.
# ----------------------------------------------------------------------
def test_mid_execution_kill_reschedules_only_unfinished_tasks(platform, small_montage, spec):
    clean = _clean_run(platform, small_montage, spec)
    bind_time = clean.attempts[0].time_s
    makespan = clean.turnaround_s - bind_time
    hosts = np.asarray(sorted(clean.hosts), dtype=np.int64)
    schedule = schedule_dag("mcp", small_montage, platform.rc_from_hosts(hosts))
    kill_time = bind_time + 0.5 * makespan
    expected_unfinished = int((schedule.finish > kill_time - bind_time).sum())
    assert 0 < expected_unfinished < small_montage.n

    victim = int(hosts[0])
    trace = ChurnTrace(events=(ChurnEvent(kill_time, "fail", (victim,), ref=0),))
    churn = ResourceChurn(platform, trace, Binder(platform))
    with observe.use_registry(observe.MetricsRegistry()) as reg:
        outcome = SelectionPipeline(platform, churn).run(small_montage, spec)

    assert outcome.fulfilled
    assert outcome.segments == 2
    assert outcome.rebinds == 1
    assert outcome.tasks_rescheduled == expected_unfinished
    # The DAG still completes; the clock moved past the kill.  (Turnaround
    # may even beat the clean run: completed parents' outputs are staged,
    # so the restarted sub-DAG sheds its cross-segment edges.)
    assert outcome.turnaround_s > kill_time
    assert outcome.penalty is not None
    counters = reg.snapshot()["counters"]
    assert counters["pipeline.rebinds"] == outcome.rebinds
    assert counters["pipeline.tasks_rescheduled"] == outcome.tasks_rescheduled


# ----------------------------------------------------------------------
# The experiment cell: jobs-count independence (slow).
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_churn_penalty_sweep_is_jobs_independent(tiny_size_model):
    from repro.experiments.chapter7 import churn_penalty_sweep

    serial = churn_penalty_sweep(tiny_size_model, SMOKE, rates=(0.0, 0.01), reps=1, jobs=1)
    parallel = churn_penalty_sweep(tiny_size_model, SMOKE, rates=(0.0, 0.01), reps=1, jobs=2)
    assert serial == parallel


# ----------------------------------------------------------------------
# Static preflight pruning of the respecification ladder.
# ----------------------------------------------------------------------
def test_unsatisfiable_alternative_is_pruned_not_submitted(platform, small_montage, spec):
    impossible_original = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    unsat_alt = dataclasses.replace(spec, clock_min_mhz=99999.0, clock_max_mhz=99999.0)
    ok_alt = _smaller(spec)
    churn = _quiet(platform)
    pipeline = SelectionPipeline(
        platform,
        churn,
        PipelineConfig(max_retries=0),
        alternatives=[unsat_alt, ok_alt],
    )
    with observe.use_registry(observe.MetricsRegistry()) as reg:
        outcome = pipeline.run(small_montage, impossible_original)

    assert outcome.fulfilled
    # The unsatisfiable alternative was never attempted; its ladder index
    # stays burnt, so the fulfilling rung is index 2, not 1.
    assert outcome.spec_index == 2
    assert outcome.final_spec == ok_alt
    assert [a.spec_index for a in outcome.attempts] == [0, 2]
    assert outcome.respecs_pruned == 1
    counters = reg.snapshot()["counters"]
    assert counters["pipeline.respecs_pruned"] == outcome.respecs_pruned
    assert "respecs_pruned" in outcome.to_dict()


def test_dominated_rung_after_the_bind_is_never_reached(platform, small_montage, spec):
    # The ladder is lazy: a dominated rung sitting *after* the fulfilling
    # one is never even examined, so nothing is counted as pruned.
    impossible = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    dominated = dataclasses.replace(
        spec, size=26, min_size=22, clock_min_mhz=2500.0, clock_max_mhz=3500.0
    )
    churn = _quiet(platform)
    pipeline = SelectionPipeline(
        platform,
        churn,
        PipelineConfig(max_retries=0),
        alternatives=[spec, dominated],
    )
    with observe.use_registry(observe.MetricsRegistry()):
        outcome = pipeline.run(small_montage, impossible)
    assert outcome.fulfilled and outcome.spec_index == 1
    assert outcome.respecs_pruned == 0


def test_subsumption_pruning_skips_dominated_rung(platform, small_montage, spec):
    # The original is tried and refused (raced), then the ladder climbs:
    # the first alternative is dominated by the original, so it is pruned;
    # the second fulfills at its burnt-index position.
    clean = _clean_run(platform, small_montage, spec)
    trace = ChurnTrace(
        events=(ChurnEvent(1e-7, "bind", tuple(sorted(clean.hosts)[:10]), ref=0),)
    )
    churn = ResourceChurn(platform, trace, Binder(platform))
    dominated = dataclasses.replace(
        spec, size=26, min_size=22, clock_min_mhz=2500.0, clock_max_mhz=3500.0
    )
    assert subsumes(spec, dominated)
    pipeline = SelectionPipeline(
        platform,
        churn,
        PipelineConfig(max_retries=0),
        alternatives=[dominated, _smaller(spec)],
    )
    with observe.use_registry(observe.MetricsRegistry()) as reg:
        outcome = pipeline.run(small_montage, spec)

    assert outcome.fulfilled
    assert outcome.spec_index == 2 and outcome.final_spec == _smaller(spec)
    assert [a.spec_index for a in outcome.attempts] == [0, 2]
    assert outcome.respecs_pruned == 1
    counters = reg.snapshot()["counters"]
    assert counters["pipeline.respecs_pruned"] == 1


def test_subsumption_pruning_preserves_seeded_replay(platform, small_montage, spec):
    # Bit-identity net: with a seeded churn trace, a ladder carrying a
    # dominated (pruned) rung selects exactly what the same ladder without
    # it selects — pruning burns the index but never perturbs the outcome.
    config = ChurnConfig(fail_rate=0.002, competitor_rate=0.01, utilization=0.25, seed=9)
    dominated = dataclasses.replace(spec, size=26, min_size=22)

    def run(alternatives):
        churn = ResourceChurn.from_config(platform, config)
        return SelectionPipeline(platform, churn, alternatives=alternatives).run(
            small_montage, spec
        )

    with_pruned = run([dominated, _smaller(spec)]).to_dict()
    without = run([_smaller(spec)]).to_dict()
    # The only admissible difference is the pruning counter and the burnt
    # ladder indices; strip both and demand bit-identity.
    for d in (with_pruned, without):
        d.pop("respecs_pruned")
        d.pop("spec_index")
        d.pop("attempts")
        d.pop("final_spec")
    assert with_pruned == without


def test_original_spec_is_never_pruned(platform, small_montage, spec):
    # The original request is statically unsatisfiable — the pipeline must
    # still attempt it (refusal semantics), not silently skip it.
    impossible = dataclasses.replace(spec, clock_min_mhz=99999.0, clock_max_mhz=99999.0)
    churn = _quiet(platform)
    pipeline = SelectionPipeline(
        platform, churn, PipelineConfig(max_retries=0), alternatives=[]
    )
    with observe.use_registry(observe.MetricsRegistry()):
        outcome = pipeline.run(small_montage, impossible)
    assert not outcome.fulfilled
    assert outcome.attempts and outcome.attempts[0].spec_index == 0
    assert outcome.respecs_pruned == 0


# ----------------------------------------------------------------------
# Deadline budgets: the ladder aborts instead of grinding on.
# ----------------------------------------------------------------------
def test_deadline_budget_aborts_ladder_with_structured_outcome(platform, small_montage, spec):
    impossible = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    churn = _quiet(platform)
    # Generous retries would normally burn virtual time across 3
    # backends; a tiny deadline cuts the ladder short instead.
    pipeline = SelectionPipeline(
        platform, churn, PipelineConfig(max_retries=5, deadline_s=1e-6), alternatives=[]
    )
    with observe.use_registry(observe.MetricsRegistry()) as reg:
        outcome = pipeline.run(small_montage, impossible)
    assert not outcome.fulfilled
    assert outcome.abort_reason == "deadline_exceeded"
    assert outcome.attempts[-1].result == "deadline_exceeded"
    assert reg.snapshot()["counters"]["pipeline.deadline_aborts"] == 1
    assert outcome.to_dict()["abort_reason"] == "deadline_exceeded"


def test_unbounded_deadline_is_the_default_and_changes_nothing(platform, small_montage, spec):
    bounded = _clean_run(platform, small_montage, spec, deadline_s=1e9)
    unbounded = _clean_run(platform, small_montage, spec)
    assert bounded.to_dict() == unbounded.to_dict()
    assert unbounded.abort_reason is None


def test_replay_bit_identical_with_preflight_enabled(platform, small_montage, spec):
    # Seeded churn + an unsatisfiable alternative in the ladder: the
    # analyzer consults only the static platform, so replay stays
    # bit-identical even though pruning happens mid-run.
    config = ChurnConfig(fail_rate=0.002, competitor_rate=0.01, utilization=0.25, seed=9)
    unsat_alt = dataclasses.replace(spec, clock_min_mhz=99999.0, clock_max_mhz=99999.0)

    def run():
        churn = ResourceChurn.from_config(platform, config)
        return SelectionPipeline(
            platform, churn, alternatives=[unsat_alt, _smaller(spec)]
        ).run(small_montage, spec)

    assert run().to_dict() == run().to_dict()


def test_fastest_free_matches_the_sorted_loop(platform):
    # A plain sort over the free hosts is the reference: the same hosts,
    # in (-clock, id) order, as Python ints.
    n = platform.n_hosts
    rng = np.random.default_rng(0)
    for banned_count in (0, 1, n // 5, n - 3):
        banned = set(rng.choice(n, size=banned_count, replace=False).tolist())
        reference = sorted(
            (h for h in range(n) if h not in banned),
            key=lambda h: (-platform.host_clock[h], h),
        )
        for need in (0, 1, 7, n):
            got = fastest_free(platform, banned, need)
            assert got == reference[:need]
            assert all(type(h) is int for h in got)
