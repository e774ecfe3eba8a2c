"""Tests for the multi-tenant selection service (repro.service).

The headline guarantees under test:

* **Replay** — for a fixed ``(platform, churn_config, config, requests)``
  tuple, every tenant's ``SelectionOutcome`` is bit-identical across
  repeated runs *and* across interleave seeds (the seed may only permute
  same-instant wakeup order, never outcomes).
* **Safety** — the shared Binder never double-binds a host, checked with
  a recording subclass that shadows ownership independently.
* **Accounting** — the ``service.*`` fairness counters equal the
  aggregates recomputed from the outcomes themselves.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.observe as observe
from repro.analysis.passes import subsumes
from repro.dag.montage import montage_dag, montage_level_counts
from repro.observe import MetricsRegistry
from repro.resources.binding import Binder
from repro.resources.churn import ChurnConfig, ResourceChurn
from repro.selection.pipeline import PipelineConfig, select_once
from repro.service import (
    SelectionService,
    ServiceConfig,
    ServiceError,
    TenantRequest,
    load_requests,
    make_spec,
    synthesize_requests,
)

CHURNY = ChurnConfig(
    fail_rate=0.002, competitor_rate=0.01, utilization=0.3, seed=11
)
QUIET = ChurnConfig()


def _serve(platform, requests, churn=CHURNY, **cfg_kwargs):
    """Run the service under an isolated registry; return (report, counters)."""
    registry = MetricsRegistry()
    with observe.use_registry(registry):
        service = SelectionService(platform, churn, ServiceConfig(**cfg_kwargs))
        report = service.run(requests)
    return report, registry.snapshot()["counters"]


def _race_attempts(report) -> int:
    return sum(
        1
        for o in report.outcomes
        if o.outcome is not None
        for a in o.outcome.attempts
        if a.result == "race"
    )


# ----------------------------------------------------------------------
# Replay determinism
# ----------------------------------------------------------------------
def test_same_seed_replay_is_bit_identical(small_platform):
    requests = synthesize_requests(small_platform, 8, seed=3)
    r1, c1 = _serve(small_platform, requests)
    r2, c2 = _serve(small_platform, requests)
    assert [o.to_dict() for o in r1.outcomes] == [o.to_dict() for o in r2.outcomes]
    assert r1.fairness == r2.fairness
    assert c1 == c2
    # The workload actually exercises the service: everyone completes.
    assert r1.n_admitted == 8
    assert r1.n_fulfilled == 8


def test_outcomes_invariant_across_interleave_seeds(small_platform):
    requests = synthesize_requests(small_platform, 8, seed=3)
    r0, c0 = _serve(small_platform, requests, interleave_seed=0)
    r99, c99 = _serve(small_platform, requests, interleave_seed=99)
    assert [o.to_dict() for o in r0.outcomes] == [o.to_dict() for o in r99.outcomes]
    # Not just the outcomes: the full counter set is interleave-invariant.
    assert c0 == c99


# ----------------------------------------------------------------------
# Binder safety under contention
# ----------------------------------------------------------------------
class _RecordingBinder(Binder):
    """Shadow-ownership binder: independently detects double-binding."""

    def __post_init__(self) -> None:  # pragma: no cover - dataclass hook absent
        pass

    def try_bind(self, host_ids):
        if not hasattr(self, "shadow"):
            self.shadow: set[int] = set()
            self.grants: int = 0
        ids = [int(h) for h in np.asarray(host_ids).ravel()]
        conflicts = super().try_bind(host_ids)
        if not conflicts and ids:
            doubled = self.shadow & set(ids)
            assert not doubled, f"double-binding detected: {sorted(doubled)}"
            self.shadow.update(ids)
            self.grants += 1
        return conflicts

    def release(self, host_ids):
        if hasattr(self, "shadow"):
            self.shadow -= {int(h) for h in np.asarray(host_ids).ravel()}
        super().release(host_ids)


def test_never_double_binds(small_platform, monkeypatch):
    monkeypatch.setattr("repro.service.Binder", _RecordingBinder)
    requests = synthesize_requests(small_platform, 8, seed=3)
    report, _ = _serve(small_platform, requests)
    assert report.n_fulfilled == 8  # the shadow assertions all held


def test_all_hosts_released_after_run(small_platform):
    requests = synthesize_requests(small_platform, 6, seed=0)
    registry = MetricsRegistry()
    with observe.use_registry(registry):
        service = SelectionService(small_platform, CHURNY, ServiceConfig())
        service.run(requests)
    # Only competitor grabs may remain; nothing the tenants bound.
    tenant_bound = service._binder.bound_hosts - service._churn.competitor_held
    assert tenant_bound == set()


# ----------------------------------------------------------------------
# Fairness counters == outcome aggregates
# ----------------------------------------------------------------------
def test_counters_cross_check_outcomes(small_platform):
    requests = synthesize_requests(small_platform, 8, seed=3)
    report, counters = _serve(small_platform, requests)
    assert counters["service.admissions"] == report.n_admitted
    # n_refused counts everything admission control turned away — both
    # hard refusals (queue_full at arrival) and load sheds.
    assert (
        counters.get("service.refusals", 0) + counters.get("service.sheds", 0)
        == report.n_refused
    )
    assert counters["service.completions"] == report.n_admitted
    assert counters.get("service.bind_conflicts", 0) == _race_attempts(report)
    # Queue-wait gauges equal percentiles of the outcomes' own waits.
    waits = sorted(o.queue_wait_s for o in report.outcomes if o.admitted)
    assert report.fairness["queue_wait_p99"] == pytest.approx(waits[-1])
    assert report.fairness["queue_wait_p50"] in waits


# ----------------------------------------------------------------------
# The seeded two-tenant bind collision
# ----------------------------------------------------------------------
def test_two_tenant_collision_one_winner_one_retry(small_platform):
    # synthesize_requests pairs arrivals: tenants 0 and 1 both arrive at
    # t=0, select from the identical availability snapshot, and submit
    # bind in the same dispatch batch — a guaranteed overlap on a quiet
    # platform.  Canonical op order makes tenant 0 the winner.
    requests = synthesize_requests(small_platform, 2, seed=3)
    assert requests[0].arrival_s == requests[1].arrival_s == 0.0
    report, counters = _serve(small_platform, requests, churn=QUIET)
    assert report.n_fulfilled == 2
    races = {
        o.tenant: [a for a in o.outcome.attempts if a.result == "race"]
        for o in report.outcomes
    }
    assert races[0] == []  # first in canonical order: binds cleanly
    assert len(races[1]) == 1  # loser records exactly one race...
    assert report.outcomes[1].outcome.attempts[-1].result == "bound"  # ...then wins
    assert counters["service.bind_conflicts"] == 1
    # And the whole collision resolves identically on replay.
    r2, c2 = _serve(small_platform, requests, churn=QUIET)
    assert [o.to_dict() for o in r2.outcomes] == [
        o.to_dict() for o in report.outcomes
    ]


# ----------------------------------------------------------------------
# Admission control: starvation bound and refusals
# ----------------------------------------------------------------------
def test_starvation_bounded_under_admission_pressure(small_platform):
    # One execution slot, six same-instant tenants: FIFO grant means
    # everyone runs, and waits grow monotonically in grant order.
    requests = synthesize_requests(small_platform, 6, seed=0, spacing_s=0.0)
    report, counters = _serve(
        small_platform, requests, churn=QUIET, max_inflight=1, queue_capacity=16
    )
    assert report.n_refused == 0
    assert report.n_fulfilled == 6
    waits = [o.queue_wait_s for o in sorted(report.outcomes, key=lambda o: o.tenant)]
    assert waits == sorted(waits)  # FIFO: no tenant overtakes an earlier one
    assert waits[0] == 0.0
    assert waits[-1] > 0.0  # pressure was real
    # Every queued tenant waited at most the sum of its predecessors'
    # service times — i.e. the service kept making progress.
    completions = sorted(o.completion_s for o in report.outcomes)
    assert waits[-1] <= completions[-2]


def test_queue_overflow_refuses_deterministically(small_platform):
    requests = synthesize_requests(small_platform, 4, seed=0, spacing_s=0.0)
    report, counters = _serve(
        small_platform, requests, churn=QUIET, max_inflight=1, queue_capacity=0
    )
    assert report.n_admitted == 1
    assert report.n_refused == 3
    assert counters["service.refusals"] == 3
    for o in report.outcomes:
        if not o.admitted:
            assert o.outcome is None and o.queue_wait_s is None
    r2, _ = _serve(
        small_platform, requests, churn=QUIET, max_inflight=1, queue_capacity=0
    )
    assert [o.to_dict() for o in r2.outcomes] == [o.to_dict() for o in report.outcomes]


# ----------------------------------------------------------------------
# Inputs and configuration
# ----------------------------------------------------------------------
def test_empty_request_list_raises(small_platform):
    service = SelectionService(small_platform, QUIET, ServiceConfig())
    with pytest.raises(ServiceError):
        service.run([])


def test_request_and_config_validation(small_platform, small_montage):
    spec = make_spec(small_montage, 6)
    with pytest.raises(ServiceError):
        TenantRequest(tenant=-1, dag=small_montage, spec=spec)
    with pytest.raises(ServiceError):
        TenantRequest(tenant=0, dag=small_montage, spec=spec, arrival_s=-1.0)
    with pytest.raises(ServiceError):
        ServiceConfig(max_inflight=0)
    with pytest.raises(ServiceError):
        ServiceConfig(queue_capacity=-1)


def test_make_spec_shapes_specification(small_montage):
    spec = make_spec(small_montage, 10, clock_ghz=2.0, heterogeneity_tolerance=0.5)
    assert spec.size == 10
    assert spec.min_size == 9
    assert spec.clock_min_mhz == pytest.approx(1000.0)
    assert spec.clock_max_mhz == pytest.approx(2000.0)
    assert spec.connectivity == "loose"


def test_load_requests_round_trip(tmp_path):
    path = tmp_path / "requests.json"
    path.write_text(
        json.dumps(
            [
                {"tenant": 0, "arrival_s": 0.0, "size": 6},
                {"tenant": 1, "arrival_s": 1.5, "size": 8, "levels": 3},
                {"tenant": 2, "size": 4, "levels": 4, "ccr": 0.2},
            ]
        )
    )
    requests = load_requests(str(path))
    assert [r.tenant for r in requests] == [0, 1, 2]
    assert requests[1].arrival_s == 1.5
    # Identical (levels, ccr) share one DAG object (cache-shareable)...
    assert requests[0].dag is requests[1].dag
    # ...while a different shape gets its own.
    assert requests[2].dag is not requests[0].dag
    assert requests[2].spec.connectivity == "tight"


def test_load_requests_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"tenant": 0}]))  # missing "size"
    with pytest.raises(ServiceError):
        load_requests(str(path))
    path.write_text(json.dumps({}))
    with pytest.raises(ServiceError):
        load_requests(str(path))


def test_synthesize_requests_validation(small_platform):
    with pytest.raises(ServiceError):
        synthesize_requests(small_platform, 0)


# ----------------------------------------------------------------------
# Execution under churn keeps serving (aborts are outcomes, not crashes)
# ----------------------------------------------------------------------
def test_heavy_churn_degrades_but_never_crashes(small_platform):
    heavy = ChurnConfig(
        fail_rate=0.05, competitor_rate=0.05, utilization=0.5, seed=2
    )
    requests = synthesize_requests(small_platform, 6, seed=1)
    report, counters = _serve(small_platform, requests, churn=heavy)
    assert len(report.outcomes) == 6
    # Whatever happened, accounting still balances.
    assert counters["service.completions"] == report.n_admitted
    unfulfilled = [
        o
        for o in report.outcomes
        if o.admitted and (o.outcome is None or not o.outcome.fulfilled)
    ]
    aborts = counters.get("service.execution_aborts", 0)
    assert aborts <= len(unfulfilled) + report.n_fulfilled  # sanity: bounded
    r2, c2 = _serve(small_platform, requests, churn=heavy)
    assert [o.to_dict() for o in r2.outcomes] == [o.to_dict() for o in report.outcomes]
    assert c2 == counters


# ----------------------------------------------------------------------
# Amortization counters move under a shared workload
# ----------------------------------------------------------------------
def test_shared_caches_amortize_repeat_work(small_platform):
    # Four tenants 2 s apart each ask for 55 hosts at exactly 3.2 GHz, a
    # band of 53 hosts, so every one is refused at rung 0 and climbs.  The
    # ladder/preflight/baseline work is done once, by the first climber,
    # and then served from the shared caches.
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = make_spec(dag, 55, clock_ghz=3.2, heterogeneity_tolerance=0.0)
    requests = [
        TenantRequest(tenant=t, dag=dag, spec=spec, arrival_s=2.0 * t)
        for t in range(4)
    ]
    report, counters = _serve(small_platform, requests)
    assert [o.outcome.spec_index for o in report.outcomes] == [1, 1, 1, 1]
    assert counters.get("service.ladder_shared_hits", 0) > 0
    assert counters.get("service.preflight_hits", 0) > 0
    assert counters.get("service.baseline_shared_hits", 0) > 0
    assert counters["service.batches"] >= 1
    assert counters["service.batched_ops"] >= counters["service.batches"]


# ----------------------------------------------------------------------
# The shared ladder: laziness, pruning, and the short-circuit's latency
# ----------------------------------------------------------------------
def test_rung_zero_binds_never_price_alternatives(small_platform):
    # Every tenant here binds at rung 0, so no ladder ever climbs and the
    # Fig. VII-6 sweep behind respecification must never run.
    requests = synthesize_requests(small_platform, 8, seed=3)
    registry = MetricsRegistry()
    with observe.use_registry(registry):
        report = SelectionService(small_platform, CHURNY, ServiceConfig()).run(requests)
    assert all(o.outcome.fulfilled and o.outcome.spec_index == 0 for o in report.outcomes)
    spans = registry.snapshot()["spans"]
    assert not [path for path in spans if path.split("/")[-1] == "pipeline.respecify"]


def test_service_subsumption_pruning_skips_dominated_rung(small_platform, monkeypatch):
    # 55 hosts at exactly 3.2 GHz is refused at rung 0 under CHURNY (the
    # band holds 53, some busy).  The first alternative asks for more of
    # the same band, so the original dominates it and it is skipped
    # without a selection; the second fulfills at its burnt-index position.
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = make_spec(dag, 55, clock_ghz=3.2, heterogeneity_tolerance=0.0)
    dominated = make_spec(dag, 56, clock_ghz=3.2, heterogeneity_tolerance=0.0)
    smaller = make_spec(dag, 24, clock_ghz=3.0, heterogeneity_tolerance=0.3)
    assert subsumes(spec, dominated) and not subsumes(spec, smaller)
    monkeypatch.setattr(
        SelectionService, "_alternatives", lambda self, dag, spec: [dominated, smaller]
    )
    report, counters = _serve(
        small_platform,
        [TenantRequest(tenant=0, dag=dag, spec=spec)],
        pipeline=PipelineConfig(max_retries=0),
    )
    outcome = report.outcomes[0].outcome
    assert outcome.fulfilled
    assert outcome.spec_index == 2 and outcome.final_spec == smaller
    assert [a.spec_index for a in outcome.attempts] == [0, 2]
    assert outcome.respecs_pruned == 1
    assert counters["pipeline.respecs_pruned"] == 1


@pytest.mark.parametrize("backend", ["vges", "classad", "sword"])
def test_index_shortcircuit_charges_select_once_latency(small_platform, backend):
    # min_size 54 at >= 3.2 GHz, a band of 53 hosts: the short-circuit
    # refuses the selection without building an engine, and must charge
    # exactly the latency select_once charges for the same miss.  The small ad cap
    # makes ClassAd stride its advertised hosts (and keeps the spec larger
    # than the ad set, so select_once never gangmatches).
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    spec = make_spec(dag, 60, clock_ghz=3.2, heterogeneity_tolerance=0.0)
    churn = ChurnConfig(utilization=0.3, seed=11)
    config = PipelineConfig(
        backends=(backend,), max_retries=0, max_respecs=0, max_classad_machines=40
    )
    report, counters = _serve(
        small_platform, [TenantRequest(tenant=0, dag=dag, spec=spec)],
        churn=churn, pipeline=config,
    )
    assert counters["service.index_shortcircuits"] == 1
    (attempt,) = report.outcomes[0].outcome.attempts
    assert attempt.result == "insufficient" and attempt.n_hosts == 0
    at_arrival = ResourceChurn.from_config(small_platform, churn)
    at_arrival.advance(0.0)
    expected = select_once(
        small_platform, backend, spec, at_arrival.unavailable(), max_classad_machines=40
    )
    # Arrival is t = 0, so the refusal lands after exactly the latency.
    assert (None, attempt.time_s) == expected


def test_miss_latency_counts_free_hosts_from_ground_truth(monkeypatch):
    """Every miss latency the service charges without an engine (index
    short-circuits and injected backend errors) counts the hosts free at
    that instant, as select_once does — brownout included."""
    from dataclasses import replace

    import repro.service as service_mod
    from repro.experiments.chapter4 import build_universe
    from repro.experiments.scales import get_scale
    from repro.faults import ServiceFaultInjector

    platform = build_universe(get_scale("smoke"), 0)
    requests = synthesize_requests(platform, 8, seed=0)
    # Every third tenant asks for a band too scarce to bind at once.
    requests = [
        replace(r, spec=make_spec(r.dag, 40, clock_ghz=3.4, heterogeneity_tolerance=0.0))
        if r.tenant % 3 == 0
        else r
        for r in requests
    ]
    service = SelectionService(
        platform,
        ChurnConfig(fail_rate=0.002, competitor_rate=0.01, utilization=0.25, seed=1),
        ServiceConfig(
            brownout_threshold=0.3,
            max_inflight=2,
            queue_capacity=6,
            pipeline=PipelineConfig(backends=("classad", "sword")),
        ),
        faults=ServiceFaultInjector(backend_error_p=0.3, seed=4),
    )
    real = service_mod.miss_latency
    calls = []

    def checked(plat, backend, n_free, *args):
        banned = service._churn.unavailable() | service._binder.bound_hosts
        calls.append((service._brownout, backend, n_free, plat.n_hosts - len(banned)))
        return real(plat, backend, n_free, *args)

    monkeypatch.setattr(service_mod, "miss_latency", checked)
    service.run(requests)
    assert any(brownout and backend == "classad" for brownout, backend, _, _ in calls)
    assert [c for c in calls if c[2] != c[3]] == []


@pytest.mark.slow
def test_tenant_contention_sweep_is_jobs_invariant():
    from repro.experiments import chapter7 as c7
    from repro.experiments.scales import get_scale

    scale = get_scale("smoke")
    rows1 = c7.tenant_contention_sweep(scale, tenant_counts=(1, 2), reps=1, jobs=1)
    rows2 = c7.tenant_contention_sweep(scale, tenant_counts=(1, 2), reps=1, jobs=2)
    assert rows1 == rows2
    assert [r["tenants"] for r in rows1] == [1, 2]
    for row in rows1:
        assert set(row) >= {
            "tenants",
            "fulfilled",
            "refusal_rate",
            "mean_penalty",
            "queue_wait_p99_s",
            "bind_conflicts",
        }
