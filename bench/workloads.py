"""The benchmark's five workloads: inputs, one operation, output checks.

Everything that is not the request stream is fixed: the resource
universes come from ``build_universe(scale, PLATFORM_SEED)`` and the
size model from the tiny observation grid ``repro select`` trains when
given no model (``get_scale("smoke").size_grid``), both independent of
``--seed``.  The seed draws only the stream of :data:`PERIOD` distinct
requests; operation ``i`` replays request ``i % PERIOD``.  No layer of
the program keeps state across calls (each operation builds its own
churn, binder and pipeline or service run), so a replayed request costs
what a fresh one does, and must produce the same outcome.

The repro modules are imported inside :func:`build` so that the
benchmark's driver can run, and report a missing program, without them.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable

__all__ = ["PERIOD", "WORKLOADS", "Workload", "build"]

#: Distinct requests per stream.  A multiple of the six DAG configs of
#: each select workload, so every seed's stream holds each equally often.
PERIOD = 96
PLATFORM_SEED = 0
MODEL_SEED = 0

_SELECT_CHURN = dict(fail_rate=0.001, competitor_rate=0.005, utilization=0.2)
_SERVE_CHURN = dict(fail_rate=0.002, competitor_rate=0.01, utilization=0.25)
_SERVE_TENANTS = 12
_SERVE_SIZES = (4, 8)
_SERVE_MEAN_GAP_S = 2.0

#: name -> set-up parameters; ``why`` is repeated in BENCHMARK.json.
WORKLOADS: dict[str, dict[str, Any]] = {
    "select_vges": dict(
        why="default repro select path on 6,774 hosts: rung 0 binds, so vgES "
        "selection and schedule_dag do the work and the ladder never runs",
        kind="select", levels=(3, 10, 40), backends=("vges", "classad", "sword"),
        churn=_SELECT_CHURN,
    ),
    "select_classad": dict(
        why="the select_vges requests with ClassAd first: gangmatch over <=400 ads "
        "and HostIndex dominate, which every other workload bypasses",
        kind="select", levels=(3, 10, 40), backends=("classad", "vges", "sword"),
        churn=_SELECT_CHURN,
    ),
    # ClassAd is left out of this ladder: when fewer machines match than
    # a port's Count asks for, gangmatch backtracks through every
    # ordering of those that do, and on this scarce band one request
    # (seed 5) ran for over 15 minutes.  Level 3 is listed twice: with
    # four equally frequent DAGs the p50 fell between two DAGs' latency
    # clusters and jumped from seed to seed.
    "select_degraded": dict(
        why="3.5 GHz with zero clock tolerance at 90% utilisation: a sixth of "
        "requests climb the ladder through alternatives, preflight and subsumption",
        kind="select", levels=(3, 3, 10), backends=("vges", "sword"),
        churn=dict(fail_rate=0.002, competitor_rate=0.02, utilization=0.9),
        target_clock_ghz=3.5, heterogeneity_tolerance=0.0,
    ),
    "serve": dict(
        why="12-tenant service runs on 760 hosts without a journal: the virtual-time "
        "kernel, dispatcher and shared caches",
        kind="serve", journaled=False,
    ),
    "serve_journaled": dict(
        why="the serve stream with a write-ahead journal: the only workload where "
        "repro.journal (one fsync per batch) does work",
        kind="serve", journaled=True,
    ),
}


@dataclass
class Workload:
    """A set-up workload: ``prepare(i)`` does untimed per-op set-up and
    returns the timed call for op ``i``."""

    platform: Any
    requests_per_op: int
    prepare: Callable[[int], Callable[[], Any]]
    #: Journal written by op ``i`` (serve_journaled only).
    journals: dict[int, str] = field(default_factory=dict)

    def failures(self, outcome: Any) -> int:
        """Requests of one op that were unfulfilled, refused or shed."""
        return sum(1 for o in self._selections(outcome) if o is None or not o.fulfilled)

    def useful_respecs(self, outcome: Any) -> int:
        """Fulfilled requests that needed an alternative specification."""
        return sum(
            1 for o in self._selections(outcome)
            if o is not None and o.fulfilled and o.spec_index > 0
        )

    def _selections(self, outcome: Any) -> list:
        if self.requests_per_op == 1:
            return [outcome]
        return [t.outcome for t in outcome.outcomes]

    def check(self, outcome: Any) -> list[str]:
        """Invariants every correct outcome satisfies, for any seed."""
        if self.requests_per_op == 1:
            return _check_selection(outcome, self.platform)
        problems = []
        if len(outcome.outcomes) != self.requests_per_op:
            problems.append(
                f"{len(outcome.outcomes)} tenant outcomes, expected {self.requests_per_op}"
            )
        for t in outcome.outcomes:
            if not t.admitted:
                if t.outcome is not None or t.refusal_reason not in ("queue_full", "shed"):
                    problems.append(f"tenant {t.tenant}: bad refusal record")
                continue
            if t.outcome is None or t.queue_wait_s is None or t.queue_wait_s < 0:
                problems.append(f"tenant {t.tenant}: admitted without outcome or wait")
                continue
            if t.completion_s is None or t.completion_s < t.arrival_s:
                problems.append(f"tenant {t.tenant}: completes before it arrives")
            problems.extend(
                f"tenant {t.tenant}: {p}" for p in _check_selection(t.outcome, self.platform)
            )
        return problems


def _check_selection(o: Any, platform: Any) -> list[str]:
    problems = []
    bound = [a for a in o.attempts if a.result == "bound"]
    refused = [a for a in o.attempts if a.result not in ("bound", "deadline_exceeded")]
    if o.refusals != len(refused):
        problems.append(f"refusals={o.refusals} but {len(refused)} refused attempts")
    if not o.fulfilled:
        if bound and o.abort_reason is None:
            problems.append("unfulfilled outcome has a bound attempt")
        return problems
    spec, hosts = o.final_spec, list(o.hosts)
    if len(bound) != 1 or o.attempts[-1] is not bound[0]:
        problems.append("a fulfilled outcome must end on its only bound attempt")
    elif (bound[0].backend, bound[0].spec_index) != (o.backend, o.spec_index):
        problems.append("outcome backend/rung differ from the bound attempt")
    if hosts != sorted(set(hosts)):
        problems.append("hosts are not sorted and unique")
    if not spec.min_size <= len(hosts) <= spec.size:
        problems.append(f"{len(hosts)} hosts outside [{spec.min_size}, {spec.size}]")
    if hosts and not 0 <= hosts[0] <= hosts[-1] < platform.n_hosts:
        problems.append("host id out of range")
    # Renderers print the clock floor rounded to whole MHz.
    elif any(platform.host_clock[h] * 1000.0 < spec.clock_min_mhz - 0.5 for h in hosts):
        problems.append("a bound host is below the specification's clock floor")
    if o.turnaround_s is None or not o.turnaround_s > 0:
        problems.append("fulfilled outcome without a positive turnaround")
    return problems


def build(name: str, seed: int, run_dir: str) -> Workload:
    """Set up workload ``name`` for stream seed ``seed``.

    ``run_dir`` receives the journals of ``serve_journaled``, one fresh
    directory per op.
    """
    params = WORKLOADS[name]
    if params["kind"] == "select":
        return _build_select(seed, params)
    return _build_serve(seed, params["journaled"], run_dir)


def _build_select(seed: int, params: dict) -> Workload:
    import numpy as np

    from repro.core.generator import ResourceSpecificationGenerator
    from repro.core.size_model import SizePredictionModel
    from repro.dag.montage import montage_dag, montage_level_counts
    from repro.experiments.chapter4 import build_universe
    from repro.experiments.scales import get_scale
    from repro.resources.churn import ChurnConfig, ResourceChurn
    from repro.selection.pipeline import PipelineConfig, SelectionPipeline

    platform = build_universe(get_scale("small"), PLATFORM_SEED)
    model = SizePredictionModel.train(
        get_scale("smoke").size_grid, seed=MODEL_SEED, jobs=1, cache=None
    )
    generator = ResourceSpecificationGenerator(
        model,
        target_clock_ghz=params.get("target_clock_ghz", 3.0),
        heterogeneity_tolerance=params.get("heterogeneity_tolerance", 0.3),
    )
    dags = [
        montage_dag(montage_level_counts(levels), ccr=ccr)
        for levels in params["levels"]
        for ccr in (0.01, 0.5)
    ]
    rng = np.random.default_rng(seed)
    blocks = math.ceil(PERIOD / len(dags))
    order = np.concatenate([rng.permutation(len(dags)) for _ in range(blocks)])[:PERIOD]
    churn_seeds = rng.integers(0, 2**31 - 1, size=PERIOD)
    base = ChurnConfig(**params["churn"])
    stream = [(dags[int(d)], replace(base, seed=int(s))) for d, s in zip(order, churn_seeds)]
    config = PipelineConfig(backends=params["backends"])

    def prepare(i: int) -> Callable[[], Any]:
        dag, churn_config = stream[i % PERIOD]

        def op():
            request = generator.generate(dag)
            churn = ResourceChurn.from_config(platform, churn_config)
            return SelectionPipeline(platform, churn, config).run(dag, request)

        return op

    return Workload(platform, requests_per_op=1, prepare=prepare)


def _build_serve(seed: int, journaled: bool, run_dir: str) -> Workload:
    import numpy as np

    from repro.dag.montage import montage_dag, montage_level_counts
    from repro.experiments.chapter4 import build_universe
    from repro.experiments.scales import get_scale
    from repro.resources.churn import ChurnConfig
    from repro.service import SelectionService, TenantRequest, make_spec

    platform = build_universe(get_scale("smoke"), PLATFORM_SEED)
    dag = montage_dag(montage_level_counts(3), ccr=0.01)
    rng = np.random.default_rng(seed)
    base = ChurnConfig(**_SERVE_CHURN)
    stream = []
    for _ in range(PERIOD):
        arrivals = np.cumsum(rng.exponential(_SERVE_MEAN_GAP_S, size=_SERVE_TENANTS))
        sizes = rng.choice(_SERVE_SIZES, size=_SERVE_TENANTS)
        requests = [
            TenantRequest(tenant=t, dag=dag, spec=make_spec(dag, int(sizes[t])),
                          arrival_s=float(arrivals[t]))
            for t in range(_SERVE_TENANTS)
        ]
        stream.append((requests, replace(base, seed=int(rng.integers(0, 2**31 - 1)))))
    journals: dict[int, str] = {}

    def prepare(i: int) -> Callable[[], Any]:
        requests, churn_config = stream[i % PERIOD]
        journal = None
        if journaled:
            op_dir = tempfile.mkdtemp(prefix=f"op{i}-", dir=run_dir)
            journal = journals[i] = os.path.join(op_dir, "journal.jsonl")

        def op():
            return SelectionService(platform, churn_config).run(requests, journal_path=journal)

        return op

    return Workload(platform, _SERVE_TENANTS, prepare, journals)
