"""One ladder, two drivers: a single-tenant service run and a
``SelectionPipeline`` run of the same request must walk the same ladder.

Both drive the shared :func:`~repro.selection.pipeline.climb` and
:func:`~repro.selection.pipeline.execute` coroutines, the pipeline over its
own churn and the service through its dispatcher, free-host short-circuit
and shared caches.  With ``max_retries=0`` no backoff is drawn, so the jitter
tag (the one intended difference besides the deadline origin) never
matters and the outcomes must agree field for field, as must the
``pipeline.*`` counters each run bumps.
"""

from __future__ import annotations

import itertools

import pytest

import repro.observe as observe
from repro.dag.montage import montage_dag, montage_level_counts
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMOKE
from repro.observe import MetricsRegistry
from repro.resources.churn import ChurnConfig, ResourceChurn
from repro.selection.pipeline import PipelineConfig, SelectionPipeline
from repro.service import SelectionService, ServiceConfig, TenantRequest, make_spec

SIZES = (4, 8, 16, 32)
CLOCKS_GHZ = (3.5, 3.0)
TOLERANCES = (0.0, 0.3)
UTILIZATIONS = (0.25, 0.9)
CHURN_SEEDS = range(6)

#: Cases of the full grid that climb past rung 0, plus two that bind
#: there: ``(size, clock, tolerance, utilization, churn seed, spec_index)``.
#: In the last, the spec's floor (3200.4 MHz) lies just above a cluster
#: clock that vgDL's rendered floor (``Clock >= 3200``) still admits, so
#: the service's free-host short-circuit must not refuse rung 0.
CLIMBING_SLICE = (
    (4, 3.5, 0.0, 0.9, 0, 2),
    (8, 3.5, 0.0, 0.25, 3, 1),
    (16, 3.5, 0.0, 0.25, 0, 1),
    (32, 3.5, 0.3, 0.9, 3, 1),
    (32, 3.0, 0.0, 0.9, 0, 1),
    (4, 3.0, 0.3, 0.25, 0, 0),
    (16, 4.572, 0.3, 0.25, 0, 0),
)


@pytest.fixture(scope="module")
def universe():
    return build_universe(SMOKE, seed=0)


@pytest.fixture(scope="module")
def montage3():
    return montage_dag(montage_level_counts(3), ccr=0.01)


def _both(platform, dag, size, clock, tolerance, utilization, seed):
    """The same request through the pipeline and a one-tenant service."""
    spec = make_spec(dag, size, clock_ghz=clock, heterogeneity_tolerance=tolerance)
    churn = ChurnConfig(
        fail_rate=0.002, competitor_rate=0.01, utilization=utilization, seed=seed
    )
    config = PipelineConfig(max_retries=0)
    piped_reg, served_reg = MetricsRegistry(), MetricsRegistry()
    with observe.use_registry(piped_reg):
        churned = ResourceChurn.from_config(platform, churn)
        piped = SelectionPipeline(platform, churned, config).run(dag, spec)
    with observe.use_registry(served_reg):
        service = SelectionService(platform, churn, ServiceConfig(pipeline=config))
        served = service.run([TenantRequest(tenant=0, dag=dag, spec=spec)])
    counters = [
        {k: v for k, v in reg.snapshot()["counters"].items() if k.startswith("pipeline.")}
        for reg in (piped_reg, served_reg)
    ]
    return piped, served.outcomes[0].outcome, counters


@pytest.mark.parametrize("case", CLIMBING_SLICE, ids=lambda c: "-".join(map(str, c)))
def test_single_tenant_service_climbs_like_the_pipeline(universe, montage3, case):
    *request, spec_index = case
    piped, served, (piped_counters, served_counters) = _both(universe, montage3, *request)
    assert piped.fulfilled and piped.spec_index == spec_index
    assert served.to_dict() == piped.to_dict()
    assert served_counters == piped_counters


@pytest.mark.slow
def test_single_tenant_service_matches_pipeline_on_full_grid(universe, montage3):
    climbed = 0
    for request in itertools.product(
        SIZES, CLOCKS_GHZ, TOLERANCES, UTILIZATIONS, CHURN_SEEDS
    ):
        piped, served, (piped_counters, served_counters) = _both(
            universe, montage3, *request
        )
        assert served.to_dict() == piped.to_dict(), request
        assert served_counters == piped_counters, request
        climbed += len(piped.attempts) > 1
    # The grid is only a ladder test if a good share of it climbs.
    assert climbed >= 40
