"""Chaos matrix for the resilient selection service (repro.service).

Every scenario here is fully deterministic — fault decisions are pure
functions of ``(seed, stable key)`` — so "the service survives chaos"
is an exact, replayable claim.  The matrix covers the issue's proof
obligations:

* **Isolation** — an injected tenant crash surfaces as a structured
  ``tenant_crash`` outcome, its admission slot and bound hosts are
  released, and the *other* tenants' outcomes are byte-identical to a
  run without the victim.  No exception escapes ``run()``.
* **Breakers** — a faulted backend trips its circuit breaker after K
  consecutive failures, the ladder routes around it, and the breaker
  half-opens on the virtual-time cooldown and closes once the backend
  recovers.  Counters cross-check against the outcomes' own attempts.
* **Crash recovery** — a run killed mid-serve (``kill_after`` /
  ``crash_after``) resumes from its write-ahead journal to a final
  report bit-identical to an uninterrupted run; mismatched inputs and
  journal divergence are hard errors.
* **Accounting** — every structured abort class equals its
  ``service.*`` failure counter.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import warnings

import pytest

import repro.observe as observe
from repro.dag.montage import montage_dag, montage_level_counts
from repro.faults import KILL_EXIT_CODE, InjectedFault, ServiceFaultInjector
from repro.journal import JournalError
from repro.observe import MetricsRegistry
from repro.resources.churn import ChurnConfig
from repro.selection.pipeline import PipelineConfig
from repro.service import (
    SelectionService,
    ServiceConfig,
    TenantRequest,
    make_spec,
    synthesize_requests,
)

CHURNY = ChurnConfig(fail_rate=0.002, competitor_rate=0.01, utilization=0.3, seed=11)
QUIET = ChurnConfig()


def _serve(
    platform,
    requests,
    *,
    churn=CHURNY,
    faults=None,
    journal_path=None,
    resume_path=None,
    **cfg_kwargs,
):
    """Run the service under an isolated registry; return (report, counters)."""
    registry = MetricsRegistry()
    with observe.use_registry(registry):
        service = SelectionService(
            platform, churn, ServiceConfig(**cfg_kwargs), faults=faults
        )
        report = service.run(
            requests, journal_path=journal_path, resume_path=resume_path
        )
    return report, registry.snapshot()["counters"], service


def _outcome_dicts(report):
    return [o.to_dict() for o in report.outcomes]


# ----------------------------------------------------------------------
# Failure isolation: tenant crashes never take the service down
# ----------------------------------------------------------------------
def test_admit_stage_crash_isolates_victim_bit_identically(small_platform):
    # The victim is the LAST request id, crashing before it submits any
    # dispatcher op — so the survivors' op streams are identical with
    # and without it, and their outcomes must be byte-identical.
    requests = synthesize_requests(small_platform, 8, seed=3)
    victim = len(requests) - 1
    faults = ServiceFaultInjector(crash_tenant=victim, crash_stage="admit")
    with_victim, counters, _ = _serve(small_platform, requests, faults=faults)
    without_victim, _, _ = _serve(small_platform, requests[:victim])

    assert with_victim.n_crashed == 1
    assert counters["service.tenant_crashes"] == 1
    crashed = with_victim.outcomes[victim]
    assert crashed.outcome is not None
    assert crashed.outcome.abort_reason == "tenant_crash"
    assert not crashed.outcome.fulfilled
    # Everyone else is untouched — byte-for-byte.
    assert _outcome_dicts(with_victim)[:victim] == _outcome_dicts(without_victim)


def test_bound_stage_crash_releases_hosts_and_slot(small_platform):
    # Crash *after* the victim bound hosts: the supervisor must release
    # exactly what the dead tenant owned, and the freed slot lets every
    # later tenant still complete.
    requests = synthesize_requests(small_platform, 8, seed=3)
    faults = ServiceFaultInjector(crash_tenant=2, crash_stage="bound")
    report, counters, service = _serve(small_platform, requests, faults=faults)

    assert report.n_crashed == 1
    assert report.outcomes[2].admitted  # it got through admission
    assert report.outcomes[2].outcome.abort_reason == "tenant_crash"
    assert report.n_fulfilled == len(requests) - 1
    # Nothing the tenants bound is left behind (competitor grabs may be).
    leaked = service._binder.bound_hosts - service._churn.competitor_held
    assert leaked == set()


def test_probabilistic_chaos_no_exception_escapes(small_platform):
    # The kitchen sink: crash/error/stall probabilities all at once.
    # run() must return a full report — structured aborts, not raises —
    # and every abort class must equal its failure counter.
    requests = synthesize_requests(small_platform, 10, seed=3)
    faults = ServiceFaultInjector(
        tenant_crash_p=0.25,
        backend_error_p=0.3,
        bind_stall_p=0.3,
        stall_s=5.0,
        seed=7,
    )
    report, counters, _ = _serve(small_platform, requests, faults=faults)

    assert len(report.outcomes) == len(requests)
    crashed = [
        o
        for o in report.outcomes
        if o.outcome is not None and o.outcome.abort_reason == "tenant_crash"
    ]
    assert len(crashed) == counters.get("service.tenant_crashes", 0)
    backend_errors = sum(
        1
        for o in report.outcomes
        if o.outcome is not None
        for a in o.outcome.attempts
        if a.result == "backend_error"
    )
    assert backend_errors == counters.get("service.backend_errors", 0)
    refused = [o for o in report.outcomes if not o.admitted and o.outcome is None]
    assert len(refused) == (
        counters.get("service.refusals", 0) + counters.get("service.sheds", 0)
    )
    # And the whole matrix replays bit-identically.
    again, counters2, _ = _serve(small_platform, requests, faults=faults)
    assert _outcome_dicts(report) == _outcome_dicts(again)
    assert counters == counters2


def test_fault_decisions_are_pure_functions_of_seed(small_platform):
    requests = synthesize_requests(small_platform, 8, seed=3)
    r7a, _, _ = _serve(
        small_platform, requests, faults=ServiceFaultInjector(tenant_crash_p=0.3, seed=7)
    )
    r7b, _, _ = _serve(
        small_platform, requests, faults=ServiceFaultInjector(tenant_crash_p=0.3, seed=7)
    )
    r8, _, _ = _serve(
        small_platform, requests, faults=ServiceFaultInjector(tenant_crash_p=0.3, seed=8)
    )
    assert _outcome_dicts(r7a) == _outcome_dicts(r7b)
    # A different seed dooms a different victim set (at p=0.3 over 8
    # tenants the two seeds are astronomically unlikely to agree).
    assert _outcome_dicts(r7a) != _outcome_dicts(r8)


# ----------------------------------------------------------------------
# Circuit breakers
# ----------------------------------------------------------------------
def test_breaker_trips_routes_around_and_recovers(small_platform):
    # vgES errors until t=40: early tenants trip its breaker (threshold
    # 2) and fall back to ClassAd via `breaker_open`; tenants arriving
    # after the cooldown half-open the breaker, the probe succeeds (the
    # fault window is over), and vgES serves again.
    requests = synthesize_requests(small_platform, 8, seed=3, spacing_s=40.0)
    faults = ServiceFaultInjector(
        backend_error_p=1.0, fault_backend="vges", until_s=40.0
    )
    report, counters, _ = _serve(
        small_platform,
        requests,
        churn=QUIET,
        faults=faults,
        breaker_threshold=2,
        breaker_cooldown_s=30.0,
    )

    assert report.n_fulfilled == len(requests)
    assert counters["service.breaker_trips"] >= 1
    assert counters["service.breaker_half_opens"] >= 1
    assert counters["service.breaker_closes"] >= 1
    # While open, the ladder routed around vgES instead of burning
    # retries against it.
    assert counters["service.breaker_skips"] >= 1
    backends = {
        o.outcome.backend for o in report.outcomes if o.outcome is not None
    }
    assert "classad" in backends  # early tenants fell back
    assert "vges" in backends  # late tenants used the recovered backend
    # Counter/outcome cross-checks.
    breaker_open_refusals = sum(
        1
        for o in report.outcomes
        if o.outcome is not None
        for a in o.outcome.attempts
        if a.result == "breaker_open"
    )
    assert breaker_open_refusals == counters["service.breaker_skips"]
    injected_errors = sum(
        1
        for o in report.outcomes
        if o.outcome is not None
        for a in o.outcome.attempts
        if a.result == "backend_error"
    )
    assert injected_errors == counters["service.backend_errors"]


def test_breaker_stays_open_if_backend_still_down(small_platform):
    # Faults never expire: every half-open probe fails, the breaker
    # re-trips, and everything is served by the fallback backends.
    requests = synthesize_requests(small_platform, 6, seed=3, spacing_s=200.0)
    faults = ServiceFaultInjector(backend_error_p=1.0, fault_backend="vges")
    report, counters, _ = _serve(
        small_platform,
        requests,
        churn=QUIET,
        faults=faults,
        breaker_threshold=2,
        breaker_cooldown_s=50.0,
    )
    assert report.n_fulfilled == len(requests)
    assert counters.get("service.breaker_closes", 0) == 0
    assert counters["service.breaker_half_opens"] >= 1
    assert counters["service.breaker_trips"] >= 2  # initial trip + re-trip
    assert all(
        o.outcome.backend != "vges"
        for o in report.outcomes
        if o.outcome is not None and o.outcome.fulfilled
    )


# ----------------------------------------------------------------------
# Deadlines and overload
# ----------------------------------------------------------------------
def test_deadline_aborts_are_structured_and_counted(small_platform):
    requests = synthesize_requests(small_platform, 6, seed=3)
    report, counters, _ = _serve(
        small_platform, requests, churn=QUIET, deadline_s=0.001
    )
    aborted = [
        o
        for o in report.outcomes
        if o.outcome is not None and o.outcome.abort_reason == "deadline_exceeded"
    ]
    assert len(aborted) == len(requests)  # everyone blows the tiny budget
    assert counters["service.deadline_aborts"] == len(aborted)
    assert report.n_fulfilled == 0
    assert report.n_refused == 0  # admission is not the deadline's job


def test_ladder_deadline_abort_counts_under_both_names(small_platform):
    # The band cannot hold the request, so rung 0 is refused at once and
    # the first backoff (at least 2.5 s) outlives the 1 s budget: the
    # ladder itself runs out of time, before any execution.
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = make_spec(dag, 60, clock_ghz=3.2, heterogeneity_tolerance=0.0)
    report, counters, _ = _serve(
        small_platform,
        [TenantRequest(tenant=0, dag=dag, spec=spec)],
        churn=QUIET,
        deadline_s=1.0,
        pipeline=PipelineConfig(max_retries=2, max_respecs=0),
    )
    outcome = report.outcomes[0].outcome
    assert outcome.abort_reason == "deadline_exceeded"
    assert [a.result for a in outcome.attempts] == ["insufficient", "deadline_exceeded"]
    # Ladder aborts carry the pipeline's name; the service's counter is
    # its total over ladder and execution aborts.
    assert counters["pipeline.deadline_aborts"] == 1
    assert counters["service.deadline_aborts"] == 1


def test_per_request_deadline_overrides_service_default(small_platform):
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = make_spec(dag, 6, ccr=0.01)
    requests = [
        TenantRequest(tenant=0, dag=dag, spec=spec, arrival_s=0.0),
        TenantRequest(
            tenant=1, dag=dag, spec=spec, arrival_s=0.0, deadline_s=0.001
        ),
    ]
    report, _, _ = _serve(small_platform, requests, churn=QUIET)
    assert report.outcomes[0].outcome.fulfilled
    assert report.outcomes[1].outcome.abort_reason == "deadline_exceeded"


def test_priority_shedding_prefers_important_tenants(small_platform):
    # Three same-instant arrivals into one slot + a one-deep queue: the
    # priority-5 request is shed even though it arrived *before* the
    # priority-2 one — admission is by importance, not arrival luck.
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = make_spec(dag, 5, ccr=0.01)
    requests = [
        TenantRequest(tenant=0, dag=dag, spec=spec, arrival_s=0.0, priority=1),
        TenantRequest(tenant=1, dag=dag, spec=spec, arrival_s=0.0, priority=5),
        TenantRequest(tenant=2, dag=dag, spec=spec, arrival_s=0.0, priority=2),
    ]
    report, counters, _ = _serve(
        small_platform,
        requests,
        churn=QUIET,
        max_inflight=1,
        queue_capacity=1,
    )
    by_tenant = {o.tenant: o for o in report.outcomes}
    assert by_tenant[1].refusal_reason == "shed"
    assert by_tenant[0].admitted and by_tenant[2].admitted
    assert counters["service.sheds"] == 1
    assert report.n_shed == 1
    assert report.n_refused == 1  # the shed is admission-control's doing


def test_brownout_sheds_optional_work_under_pressure(small_platform):
    # Saturating arrivals with a low brownout threshold: optional work
    # (alternatives, preflight, baselines) is skipped under pressure,
    # yet every admitted request still completes.
    requests = synthesize_requests(small_platform, 8, seed=3, spacing_s=0.0)
    report, counters, _ = _serve(
        small_platform,
        requests,
        churn=CHURNY,
        max_inflight=2,
        queue_capacity=8,
        brownout_threshold=0.5,
    )
    assert counters["service.brownout_entries"] >= 1
    assert report.n_fulfilled + report.n_crashed == len(requests)
    # Brownout is pressure-relief, not correctness-relief: replaying the
    # same saturated run is still bit-identical.
    again, counters2, _ = _serve(
        small_platform,
        requests,
        churn=CHURNY,
        max_inflight=2,
        queue_capacity=8,
        brownout_threshold=0.5,
    )
    assert _outcome_dicts(report) == _outcome_dicts(again)
    assert counters == counters2


# ----------------------------------------------------------------------
# Churn storms
# ----------------------------------------------------------------------
def test_churn_storm_kills_hosts_deterministically(small_platform):
    requests = synthesize_requests(small_platform, 6, seed=3)
    faults = ServiceFaultInjector(storm_at_s=5.0, storm_kill=40, seed=9)
    r1, c1, service = _serve(small_platform, requests, churn=QUIET, faults=faults)
    r2, c2, _ = _serve(small_platform, requests, churn=QUIET, faults=faults)
    assert _outcome_dicts(r1) == _outcome_dicts(r2)
    assert c1 == c2
    # The storm's victims really left the platform (quiet churn never
    # kills hosts on its own).
    assert len(service._churn.dead) == 40
    # And the service kept serving through it.
    assert r1.n_fulfilled + r1.n_crashed + sum(
        1
        for o in r1.outcomes
        if o.outcome is not None and not o.outcome.fulfilled
    ) == len(requests)


# ----------------------------------------------------------------------
# Crash recovery: write-ahead journal + resume
# ----------------------------------------------------------------------
def test_crash_after_resumes_bit_identical(small_platform, tmp_path):
    requests = synthesize_requests(small_platform, 8, seed=3)
    journal = str(tmp_path / "run.jsonl")

    # Reference: the same inputs served uninterrupted (no fault armed).
    reference, ref_counters, _ = _serve(small_platform, requests)

    # The journaled run dies after batch 4 (an injected dispatcher
    # crash: the kernel's end-of-instant hook raises, and that
    # propagates out of run()).
    faults = ServiceFaultInjector(crash_after=4)
    with pytest.raises(InjectedFault):
        _serve(
            small_platform, requests, faults=faults, journal_path=journal
        )

    # Resume with the *same* fault spec: the armed batch is replayed,
    # not re-written, so the crash does not re-fire, and the final
    # report matches the uninterrupted run bit-for-bit.
    resumed, res_counters, _ = _serve(
        small_platform, requests, faults=faults, resume_path=journal
    )
    assert _outcome_dicts(resumed) == _outcome_dicts(reference)
    assert resumed.fairness == reference.fairness
    # Ladder/fairness counters agree too (journal bookkeeping aside).
    for key, value in ref_counters.items():
        assert res_counters.get(key) == value, key


def test_dispatcher_crash_closes_every_tenant(small_platform, monkeypatch):
    # Batch 1 holds the t = 0 admissions, so the crash leaves two tenants
    # suspended on their operations and six not started yet.  run() must
    # close them all: a coroutine left to the garbage collector warns
    # "was never awaited", or runs its supervisor during collection.
    requests = synthesize_requests(small_platform, 8, seed=3)
    assert max(r.arrival_s for r in requests) > 0
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InjectedFault):
            _serve(small_platform, requests, faults=ServiceFaultInjector(crash_after=1))
        gc.collect()
    assert [str(w.message) for w in caught if "never awaited" in str(w.message)] == []
    assert unraisable == []


def test_resume_is_interleave_seed_independent(small_platform, tmp_path):
    # The journal digests deliberately exclude interleave_seed: batch
    # contents are interleave-invariant, so a journal written under one
    # seed must verify and resume under any other.
    requests = synthesize_requests(small_platform, 6, seed=3)
    journal = str(tmp_path / "run.jsonl")
    faults = ServiceFaultInjector(crash_after=3)
    with pytest.raises(InjectedFault):
        _serve(
            small_platform,
            requests,
            faults=faults,
            journal_path=journal,
            interleave_seed=0,
        )
    reference, _, _ = _serve(small_platform, requests)
    resumed, _, _ = _serve(
        small_platform,
        requests,
        faults=faults,
        resume_path=journal,
        interleave_seed=99,
    )
    assert _outcome_dicts(resumed) == _outcome_dicts(reference)


def test_resume_refuses_mismatched_inputs(small_platform, tmp_path):
    requests = synthesize_requests(small_platform, 6, seed=3)
    journal = str(tmp_path / "run.jsonl")
    faults = ServiceFaultInjector(crash_after=3)
    with pytest.raises(InjectedFault):
        _serve(small_platform, requests, faults=faults, journal_path=journal)
    # One extra tenant changes the inputs digest: resuming would replay
    # a different run into the journal's state — refused up front.
    other = synthesize_requests(small_platform, 7, seed=3)
    with pytest.raises(JournalError, match="inputs"):
        _serve(small_platform, other, faults=faults, resume_path=journal)


def test_clean_journal_reruns_and_verifies(small_platform, tmp_path):
    # Resuming a *complete* journal is pure verification: every batch
    # replays against its record and the report is unchanged.
    requests = synthesize_requests(small_platform, 6, seed=3)
    journal = str(tmp_path / "run.jsonl")
    first, _, _ = _serve(small_platform, requests, journal_path=journal)
    second, _, _ = _serve(small_platform, requests, resume_path=journal)
    assert _outcome_dicts(first) == _outcome_dicts(second)


def _run_serve_cli(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--scale", "smoke",
         "--tenants", "6", "--seed", "3", *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.slow
def test_kill_mid_serve_then_resume_bit_identical(tmp_path):
    # The real thing: a subprocess hard-killed (os._exit) mid-serve,
    # then resumed from its journal; the resumed outcomes must equal an
    # uninterrupted run's byte-for-byte.
    ref_out = tmp_path / "reference.json"
    res_out = tmp_path / "resumed.json"
    journal = tmp_path / "run.jsonl"

    reference = _run_serve_cli(tmp_path, "--outcome-out", str(ref_out))
    assert reference.returncode == 0, reference.stderr

    killed = _run_serve_cli(
        tmp_path,
        "--journal", str(journal),
        "--faults", "kill_after=5",
    )
    assert killed.returncode == KILL_EXIT_CODE
    assert journal.exists() and journal.stat().st_size > 0

    resumed = _run_serve_cli(
        tmp_path,
        "--resume", str(journal),
        "--faults", "kill_after=5",
        "--outcome-out", str(res_out),
    )
    assert resumed.returncode == 0, resumed.stderr
    assert json.loads(res_out.read_text()) == json.loads(ref_out.read_text())


@pytest.mark.slow
def test_crashed_journaled_cli_run_exits_3_with_recovery_hint(tmp_path):
    journal = tmp_path / "run.jsonl"
    crashed = _run_serve_cli(
        tmp_path,
        "--journal", str(journal),
        "--faults", "crash_after=3",
    )
    assert crashed.returncode == 3
    assert "--resume" in crashed.stderr
    assert str(journal) in crashed.stderr
