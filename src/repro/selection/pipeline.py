"""Resilient end-to-end selection: the Chapter VII degradation ladder.

The happy path of the reproduction — ``generate() → select → bind →
execute`` — assumes a static platform.  This module runs the same loop
against a *dynamic* one (:mod:`repro.resources.churn`) and survives the
two failure modes the dissertation designs for:

**Fulfillment failure** (§VII, §II.2.3).  The selector returns too few
hosts, or the :class:`~repro.resources.binding.Binder` refuses because a
competitor bound the hosts during the selection window.  The pipeline
walks a degradation ladder:

1. *retry* the same specification after a bounded, deterministic backoff
   (churn may release hosts);
2. *respecify* along the Fig. VII-6/7 axes via
   :func:`~repro.core.alternatives.alternative_specifications` (slower
   clock band, larger RC);
3. *fall back across backends* — vgES → ClassAd Gangmatching → SWORD —
   restarting the spec ladder on each.

**Mid-execution host loss.**  When a bound host fails while the DAG is
running, the pipeline keeps every finished task, binds the fastest free
replacements, and reschedules *only* the unfinished tasks (completed
parents' outputs are assumed staged and re-fetchable, so cross-segment
edges carry no extra cost).

Everything runs on the churn state machine's virtual clock: backoff,
selection latency and DAG execution all advance the same seeded timeline,
so a run is a pure function of ``(platform, spec, churn trace, config)``
and replays bit-identically.  Counters (:mod:`repro.observe`):
``pipeline.refusals``, ``pipeline.respecifications``,
``pipeline.backend_fallbacks``, ``pipeline.rebinds``,
``pipeline.respecs_pruned`` — a :class:`SelectionOutcome`'s fields agree
with the registry's deltas.

Before submitting an *alternative* specification, the ladder consults the
static analyzer's platform preflight
(:func:`~repro.analysis.preflight.preflight_specification`): a rung that
no backend could ever fulfill on this platform (clock floor above every
cluster, or more hosts than exist) is skipped and counted under
``pipeline.respecs_pruned``.  The original specification is never pruned —
refusing the user's own request is the ladder's job to discover and
report, not the analyzer's to silently skip.  The preflight is a pure
function of the static platform (it ignores churn and bindings and never
advances the virtual clock), so seeded replay stays bit-identical.

**One ladder, two drivers.**  The ladder walk (:func:`climb`, over the
rungs of :func:`ladder_rungs`) and the churn-aware executor
(:func:`execute`) are written once, as coroutines over a small per-run
port: ``now``, ``churn``, and awaitable ``sleep``, ``sleep_until``,
``select``, ``bind`` and ``rebind``.  :class:`SelectionPipeline` drives
them over a port that acts at once on its own churn and binder, so each
coroutine finishes in a single step; the multi-tenant service
(:mod:`repro.service`) awaits the same coroutines on its virtual-time
kernel, over a port that turns selections and binds into dispatcher
operations.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro import observe
from repro.analysis.preflight import preflight_specification
from repro.core.alternatives import alternative_specifications
from repro.core.generator import ResourceSpecification
from repro.dag.graph import DAG
from repro.resources.binding import Binder, BindingError
from repro.resources.churn import ChurnConfig, ResourceChurn
from repro.resources.platform import Platform
from repro.scheduling.base import schedule_dag
from repro.selection.classad import Matchmaker, parse_classad
from repro.selection.classad.builders import machine_ads
from repro.selection.classad.evaluator import EvalContext, evaluate
from repro.selection.sword import SwordEngine
from repro.selection.vgdl import VgES

__all__ = [
    "BACKENDS",
    "PipelineConfig",
    "SelectionAttempt",
    "SelectionOutcome",
    "SelectionPipeline",
    "PipelineError",
    "Climb",
    "Execution",
    "climb",
    "execute",
    "ladder_rungs",
    "respecifications",
    "fastest_free",
    "miss_latency",
    "select_once",
    "backoff_jitter",
]

#: Backend ladder order: the paper's native system first, then the two
#: foreign specification languages Chapter VII also generates.
BACKENDS = ("vges", "classad", "sword")


class PipelineError(RuntimeError):
    """Raised for invalid pipeline configuration or inputs."""


@dataclass(frozen=True)
class PipelineConfig:
    """Degradation-ladder knobs (all deterministic; no wall clock)."""

    #: Alternative specifications tried per backend after the original.
    max_respecs: int = 3
    #: Extra attempts per (backend, spec) rung after the first refusal.
    max_retries: int = 1
    #: Base backoff in virtual seconds; attempt ``k`` waits
    #: ``backoff_s * 2**k`` scaled by a digest-derived jitter in [0.5, 1.5).
    backoff_s: float = 5.0
    #: Backend ladder, tried left to right.
    backends: tuple[str, ...] = BACKENDS
    #: Matchmaking is per-machine, so ClassAd advertises every
    #: ``max(1, free // max_classad_machines)``-th free host: between
    #: ``max_classad_machines`` and ``2 * max_classad_machines - 1`` ads
    #: once at least that many hosts are free, every free host otherwise.
    max_classad_machines: int = 400
    #: Seed for the backoff jitter (independent of the churn seed).
    seed: int = 0
    #: Virtual-time budget for the whole ladder.  When the churn clock
    #: passes ``start + deadline_s`` the run aborts with a structured
    #: ``deadline_exceeded`` outcome instead of climbing further rungs —
    #: the overload-control contract of the multi-tenant service.
    deadline_s: float = math.inf

    def __post_init__(self) -> None:
        if self.max_respecs < 0 or self.max_retries < 0:
            raise ValueError("ladder depths must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if not self.backends:
            raise ValueError("at least one backend is required")
        for b in self.backends:
            if b not in BACKENDS:
                raise ValueError(f"unknown backend {b!r} (known: {BACKENDS})")


@dataclass(frozen=True)
class SelectionAttempt:
    """One rung-attempt of the ladder and how it ended.

    ``result`` is ``bound`` or a refusal reason: ``insufficient`` (the
    selector could not produce ``min_size`` hosts), ``race`` (a competitor
    bound our hosts inside the selection window) or ``host_lost`` (a
    selected host died inside the window).
    """

    backend: str
    spec_index: int  # 0 = the original specification
    attempt: int
    time_s: float
    result: str
    n_hosts: int = 0

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON rendering."""
        return {
            "backend": self.backend,
            "spec_index": self.spec_index,
            "attempt": self.attempt,
            "time_s": self.time_s,
            "result": self.result,
            "n_hosts": self.n_hosts,
        }


@dataclass(frozen=True)
class SelectionOutcome:
    """Structured record of one resilient pipeline run.

    The four count fields mirror the ``pipeline.*`` observe counters the
    run increments, so an outcome can be cross-checked against a metrics
    snapshot.  ``penalty`` is the relative turnaround cost versus the
    undisturbed (churn-free, empty-platform) run of the original
    specification: ``turnaround / baseline - 1``.
    """

    fulfilled: bool
    backend: str | None
    spec_index: int
    final_spec: ResourceSpecification | None
    hosts: tuple[int, ...]
    attempts: tuple[SelectionAttempt, ...]
    refusals: int
    respecifications: int
    backend_fallbacks: int
    rebinds: int
    segments: int
    tasks_rescheduled: int
    turnaround_s: float | None
    baseline_turnaround_s: float | None
    #: Ladder alternatives skipped because the static preflight proved them
    #: unsatisfiable on the platform (mirrors ``pipeline.respecs_pruned``).
    respecs_pruned: int = 0
    #: Why an unfulfilled run was cut short, if it was aborted rather than
    #: exhausted: ``deadline_exceeded``, ``tenant_crash``, … ``None`` for
    #: fulfilled runs and for ordinary ladder exhaustion.
    abort_reason: str | None = None

    @property
    def penalty(self) -> float | None:
        """Relative turnaround penalty vs. the undisturbed run."""
        if self.turnaround_s is None or not self.baseline_turnaround_s:
            return None
        return self.turnaround_s / self.baseline_turnaround_s - 1.0

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON rendering (for ``--outcome-out``)."""
        return {
            "fulfilled": self.fulfilled,
            "backend": self.backend,
            "spec_index": self.spec_index,
            "final_spec": (
                None if self.final_spec is None else self.final_spec.describe()
            ),
            "hosts": list(self.hosts),
            "attempts": [a.to_dict() for a in self.attempts],
            "refusals": self.refusals,
            "respecifications": self.respecifications,
            "backend_fallbacks": self.backend_fallbacks,
            "rebinds": self.rebinds,
            "segments": self.segments,
            "tasks_rescheduled": self.tasks_rescheduled,
            "turnaround_s": self.turnaround_s,
            "baseline_turnaround_s": self.baseline_turnaround_s,
            "penalty": self.penalty,
            "respecs_pruned": self.respecs_pruned,
            "abort_reason": self.abort_reason,
        }




def backoff_jitter(seed: int, backend: str, spec_index: int, attempt: int) -> float:
    """Deterministic backoff jitter in [0.5, 1.5).

    ``backend`` is a free-form key: :func:`climb` passes the backend name
    followed by its ``jitter_tag``, which the multi-tenant service sets to
    the tenant/request id so that two tenants refused at the same instant
    back off by different amounts (synchronized retries would collide
    forever).
    """
    digest = hashlib.sha256(
        f"pipeline:{seed}:{backend}:{spec_index}:{attempt}".encode()
    ).digest()
    return 0.5 + int.from_bytes(digest[:8], "big") / 2**64


def _advertised(free, max_machines: int):
    """The free hosts ClassAd advertises: matchmaking is per-machine, so a
    large universe is strided to ``max_machines`` to ``2 * max_machines - 1``
    ads (see :attr:`PipelineConfig.max_classad_machines`)."""
    return free[:: max(1, len(free) // max_machines)]


def miss_latency(
    platform: Platform, backend: str, n_free: int, max_classad_machines: int = 400
) -> float:
    """Virtual latency of a selection that returns no hosts.

    vgES and SWORD charge one pass over the cluster table; ClassAd charges
    per advertised ad — the ``n_free`` free hosts (read only for ClassAd),
    strided as :func:`select_once` advertises them.  :func:`select_once`
    charges these on a miss, and the service's free-host short-circuit
    charges them without building an engine.
    """
    if backend == "classad":
        return max(1, len(_advertised(range(n_free), max_classad_machines))) * 1e-5
    return platform.n_clusters * 1e-5


def select_once(
    platform: Platform,
    backend: str,
    spec: ResourceSpecification,
    unavailable: set[int],
    *,
    max_classad_machines: int = 400,
    deadline_remaining_s: float | None = None,
) -> tuple[np.ndarray | None, float]:
    """Run one selection backend; returns ``(host ids | None, latency)``.

    The single-request core shared by :class:`SelectionPipeline` and the
    multi-tenant service (:mod:`repro.service`).  ``unavailable`` is the
    full banned set — dead, busy *and* bound hosts.

    ``deadline_remaining_s`` is the caller's remaining virtual-time
    budget: when it is exhausted (``<= 0``) the backend is not consulted
    at all — the call returns ``(None, 0.0)`` in zero virtual time so the
    caller can convert the refusal into a ``deadline_exceeded`` abort.
    """
    if deadline_remaining_s is not None and deadline_remaining_s <= 0:
        return None, 0.0
    if backend == "vges":
        engine = VgES(platform, unavailable=set(unavailable))
        with observe.span("pipeline.select.vges"):
            vg = engine.find_and_bind(spec.to_vgdl())
        if vg is None:
            return None, miss_latency(platform, backend, 0)
        return vg.all_hosts(), vg.selection_time
    if backend == "sword":
        engine = SwordEngine(platform, unavailable=set(unavailable))
        with observe.span("pipeline.select.sword"):
            result = engine.query(spec.to_sword_xml())
        latency = miss_latency(platform, backend, 0)
        if result is None:
            return None, latency
        return result.all_hosts(), latency
    # classad: advertise the free hosts and gangmatch the request.
    free = sorted(h for h in range(platform.n_hosts) if h not in unavailable)
    ads = machine_ads(platform, _advertised(free, max_classad_machines))
    latency = miss_latency(platform, backend, len(free), max_classad_machines)
    mm = Matchmaker(ads)
    if spec.size > len(ads):
        return None, latency
    with observe.span("pipeline.select.classad"):
        gang = mm.gangmatch(parse_classad(spec.to_classad()))
    if gang is None:
        return None, latency
    hosts = []
    for ad in gang.machines:
        hid = evaluate(ad.get("HostId"), EvalContext(my=ad))
        hosts.append(int(hid))
    return np.asarray(sorted(hosts), dtype=np.int64), latency


def fastest_free(platform: Platform, unavailable: set[int], need: int) -> list[int]:
    """The rebind rule: the ``need`` fastest hosts outside ``unavailable``,
    ties broken by host id."""
    free = sorted(
        (h for h in range(platform.n_hosts) if h not in unavailable),
        key=lambda h: (-platform.host_clock[h], h),
    )
    return free[:need]


# ----------------------------------------------------------------------
# The degradation ladder and the executor, written once
# ----------------------------------------------------------------------
def respecifications(
    dag: DAG, spec: ResourceSpecification, platform: Platform, max_respecs: int
) -> list[ResourceSpecification]:
    """The Fig. VII-6/7 alternatives to a refused ``spec`` on ``platform``,
    capped at ``max_respecs``."""
    clocks = tuple(sorted({c.clock_ghz for c in platform.clusters}, reverse=True))
    with observe.span("pipeline.respecify"):
        alts = alternative_specifications(dag, spec, clocks, platform=platform)
    # Drop alternatives identical to the original request — retrying the
    # same rung is the *retry* rung's job, not respecification.
    original = (spec.size, spec.clock_min_mhz, spec.clock_max_mhz)
    return [
        a for a, _ in alts if (a.size, a.clock_min_mhz, a.clock_max_mhz) != original
    ][:max_respecs]


def ladder_rungs(
    spec: ResourceSpecification,
    alternatives: Callable[[], list[ResourceSpecification]],
    preflight: Callable[[ResourceSpecification], bool],
    counts: dict[str, int],
) -> Iterator[tuple[int, ResourceSpecification]]:
    """``(spec_index, spec)`` rungs: the original spec, then alternatives.

    ``alternatives()`` is called only when the ladder climbs past the
    original, so a first-rung success never pays for the Fig. VII-6
    sweeps.  An alternative that an earlier (already-tried) rung subsumes
    (SPEC141: every platform satisfying it would have satisfied the failed
    earlier rung, so retrying is pointless), or that ``preflight`` proves
    unsatisfiable on the platform, is skipped — its index stays burnt, so
    ``spec_index`` in attempts/outcomes still names the ladder position —
    and counted in ``counts["respecs_pruned"]`` / ``pipeline.respecs_pruned``.
    The original specification (index 0) is never pruned.
    """
    yield 0, spec
    from repro.analysis.passes import subsumes

    tried = [spec]
    for s_idx, alt in enumerate(alternatives(), start=1):
        if any(subsumes(earlier, alt) for earlier in tried) or not preflight(alt):
            counts["respecs_pruned"] += 1
            observe.inc("pipeline.respecs_pruned")
            continue
        tried.append(alt)
        yield s_idx, alt


@dataclass
class Climb:
    """Where one ladder walk ended: every attempt, the ladder counters, and
    the rung that bound (``bound is None`` when none did)."""

    attempts: list[SelectionAttempt] = field(default_factory=list)
    counts: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(
            ("refusals", "respecifications", "backend_fallbacks", "respecs_pruned"), 0
        )
    )
    bound: np.ndarray | None = None
    backend: str | None = None
    spec: ResourceSpecification | None = None
    spec_index: int = 0
    abort_reason: str | None = None

    def outcome(
        self,
        execution: "Execution | None" = None,
        *,
        turnaround_s: float | None = None,
        baseline_turnaround_s: float | None = None,
    ) -> SelectionOutcome:
        """The :class:`SelectionOutcome` of this walk and, when the bound
        DAG ran, of its ``execution``; ``turnaround_s`` is kept only for a
        fulfilled run."""
        ran = execution is not None
        abort_reason = execution.abort_reason if ran else self.abort_reason
        fulfilled = ran and abort_reason is None
        return SelectionOutcome(
            fulfilled=fulfilled,
            backend=self.backend,
            spec_index=self.spec_index,
            final_spec=self.spec,
            hosts=() if self.bound is None else tuple(int(h) for h in self.bound),
            attempts=tuple(self.attempts),
            refusals=self.counts["refusals"],
            respecifications=self.counts["respecifications"],
            backend_fallbacks=self.counts["backend_fallbacks"],
            rebinds=execution.rebinds if ran else 0,
            segments=execution.segments if ran else 0,
            tasks_rescheduled=execution.tasks_rescheduled if ran else 0,
            turnaround_s=turnaround_s if fulfilled else None,
            baseline_turnaround_s=baseline_turnaround_s,
            respecs_pruned=self.counts["respecs_pruned"],
            abort_reason=abort_reason,
        )


async def climb(
    io,
    config: PipelineConfig,
    rungs: Callable[[dict[str, int]], Iterator[tuple[int, ResourceSpecification]]],
    *,
    jitter_tag: str,
    deadline_at: float,
) -> Climb:
    """Walk the degradation ladder over the port ``io``.

    Each backend of ``config.backends`` in turn (every one after the first
    is a fallback) climbs a fresh ``rungs(counts)`` ladder; each rung gets
    ``1 + config.max_retries`` attempts with a deterministic backoff
    between them, keyed on the backend name plus ``jitter_tag``.  An
    attempt selects, waits out the selection latency (the window in which
    churn races us to the bind), and binds.  The walk ends on the first
    bind, or with ``deadline_exceeded`` once ``io.now`` reaches
    ``deadline_at``; a ``breaker_open`` refusal from ``io.select`` ends
    that backend's rungs.
    """
    walk = Climb()
    counts = walk.counts

    async def try_rung(backend: str, s_idx: int, spec: ResourceSpecification) -> str:
        for k in range(config.max_retries + 1):
            if k > 0:
                delay = config.backoff_s * 2 ** (k - 1)
                await io.sleep(
                    delay * backoff_jitter(config.seed, backend + jitter_tag, s_idx, k)
                )
            if io.now >= deadline_at:
                observe.inc("pipeline.deadline_aborts")
                walk.abort_reason = "deadline_exceeded"
                walk.attempts.append(
                    SelectionAttempt(backend, s_idx, k, io.now, "deadline_exceeded")
                )
                return "deadline_exceeded"
            hosts, latency, reason = await io.select(
                backend, spec, s_idx, k, deadline_at - io.now
            )
            await io.sleep(latency)
            n = 0 if hosts is None else int(hosts.size)
            if reason is None:
                if hosts is None or n < spec.min_size:
                    reason = "insufficient"
                elif set(int(h) for h in hosts) & io.churn.dead:
                    reason = "host_lost"
                else:
                    reason = await io.bind(hosts, s_idx, k)
            if reason is None:
                walk.bound = np.asarray(sorted(int(h) for h in hosts), dtype=np.int64)
                walk.backend, walk.spec, walk.spec_index = backend, spec, s_idx
                walk.attempts.append(SelectionAttempt(backend, s_idx, k, io.now, "bound", n))
                return "bound"
            counts["refusals"] += 1
            observe.inc("pipeline.refusals")
            walk.attempts.append(SelectionAttempt(backend, s_idx, k, io.now, reason, n))
            if reason == "breaker_open":
                break
        return reason

    for b_idx, backend in enumerate(config.backends):
        if b_idx > 0:
            counts["backend_fallbacks"] += 1
            observe.inc("pipeline.backend_fallbacks")
        # Returning from inside the loop is what keeps a bind (or the
        # deadline) from pulling — and pricing — the next rung.
        for s_idx, spec in rungs(counts):
            if s_idx > 0:
                counts["respecifications"] += 1
                observe.inc("pipeline.respecifications")
            ended = await try_rung(backend, s_idx, spec)
            if ended in ("bound", "deadline_exceeded"):
                return walk
            if ended == "breaker_open":
                break  # route around the open backend
    return walk


@dataclass(frozen=True)
class Execution:
    """How :func:`execute` ended: the hosts still held, what the churn cost,
    and an abort reason (``None`` when the DAG completed)."""

    hosts: list[int]
    segments: int
    tasks_rescheduled: int
    rebinds: int
    abort_reason: str | None = None


async def execute(
    io,
    platform: Platform,
    dag: DAG,
    spec: ResourceSpecification,
    bound: np.ndarray,
    *,
    deadline_at: float,
) -> Execution:
    """Run ``dag`` on the ``bound`` hosts under churn, over the port ``io``.

    When a held host fails mid-segment, every finished task is kept, the
    losses are replaced through ``io.rebind`` and only the unfinished
    tasks are rescheduled.  On return ``io.now`` is the completion time
    and the hosts are still bound.  Aborts with ``deadline_exceeded`` when
    a segment cannot finish by ``deadline_at``, and with
    ``host_exhaustion`` when every host failed and none is free.
    """
    hosts = [int(h) for h in bound]
    sub = dag
    segments = rescheduled = rebinds = 0
    while True:
        segments += 1
        rc = platform.rc_from_hosts(np.asarray(sorted(hosts), dtype=np.int64))
        schedule = schedule_dag(spec.heuristic, sub, rc)
        t0 = io.now
        end = t0 + schedule.makespan
        if end > deadline_at:
            # The segment cannot finish inside the budget: abort now
            # rather than burn shared capacity past the deadline.
            return Execution(hosts, segments, rescheduled, rebinds, "deadline_exceeded")
        # Which of *our* hosts dies first while this segment runs?
        fail = io.churn.next_failure(set(hosts), until=end)
        if fail is None:
            await io.sleep_until(end)
            return Execution(hosts, segments, rescheduled, rebinds)

        unfinished = np.flatnonzero(schedule.finish > fail.time - t0)
        await io.sleep_until(fail.time)  # applies the failure (and releases)
        dead = io.churn.dead
        n_lost = sum(1 for h in hosts if h in dead)
        hosts = [h for h in hosts if h not in dead]
        replacements = await io.rebind(max(1, n_lost))
        if replacements:
            hosts.extend(replacements)
            rebinds += 1
            observe.inc("pipeline.rebinds")
        if not hosts:
            return Execution(hosts, segments, rescheduled, rebinds, "host_exhaustion")
        if unfinished.size == 0:
            # The failure hit after the last task finished on our hosts.
            return Execution(hosts, segments, rescheduled, rebinds)
        rescheduled += int(unfinished.size)
        observe.inc("pipeline.tasks_rescheduled", int(unfinished.size))
        sub = _induced_subdag(sub, unfinished)


def _induced_subdag(dag: DAG, keep: np.ndarray) -> DAG:
    """The sub-DAG induced by the (unfinished) tasks ``keep``.

    Edges from dropped (completed) parents vanish: their outputs are
    already staged and re-fetchable, so the restarted segment starts from
    the surviving dependency structure only.
    """
    keep = np.asarray(keep, dtype=np.int64)
    remap = -np.ones(dag.n, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    mask = (remap[dag.edge_src] >= 0) & (remap[dag.edge_dst] >= 0)
    return DAG(
        comp=dag.comp[keep],
        edge_src=remap[dag.edge_src[mask]],
        edge_dst=remap[dag.edge_dst[mask]],
        edge_comm=dag.edge_comm[mask],
        name=f"{dag.name}~resched",
    )


# ----------------------------------------------------------------------
# The single-run driver
# ----------------------------------------------------------------------
class _ChurnPort:
    """The pipeline's port: every call acts at once on the run's own churn
    and binder, so a coroutine driven over it never suspends."""

    def __init__(self, pipeline: "SelectionPipeline") -> None:
        self._pipeline = pipeline
        self.churn = pipeline.churn

    @property
    def now(self) -> float:
        return self.churn.now

    async def sleep(self, delay: float) -> None:
        self.churn.advance(self.churn.now + delay)

    async def sleep_until(self, time: float) -> None:
        self.churn.advance(time)

    async def select(self, backend, spec, s_idx, attempt, deadline_remaining_s):
        return (*self._pipeline._select(backend, spec, deadline_remaining_s), None)

    async def bind(self, hosts, s_idx, attempt) -> str | None:
        try:
            self.churn.binder.bind(hosts)
        except BindingError:
            return "race"
        return None

    async def rebind(self, need: int) -> list[int]:
        churn = self.churn
        unavailable = churn.unavailable() | churn.binder.bound_hosts
        replacements = fastest_free(self._pipeline.platform, unavailable, need)
        if replacements:
            churn.binder.bind(np.asarray(sorted(replacements), dtype=np.int64))
        return replacements


def _run_now(coro):
    """Run ``coro`` to completion in a single step: nothing it awaits on a
    :class:`_ChurnPort` suspends."""
    try:
        coro.send(None)
    except StopIteration as done:
        return done.value
    coro.close()
    raise PipelineError("a ladder coroutine suspended on the pipeline's port")


@dataclass
class SelectionPipeline:
    """Generate → select → bind → execute against a dynamic platform.

    ``churn`` supplies the dynamics and the virtual clock; the pipeline
    binds through ``churn.binder``, so competitor bindings and our own
    contend for the same hosts.  ``alternatives`` may be passed explicitly
    (tests); otherwise they are computed lazily from the platform's clock
    bands on first fulfillment failure.
    """

    platform: Platform
    churn: ResourceChurn
    config: PipelineConfig = field(default_factory=PipelineConfig)
    alternatives: list[ResourceSpecification] | None = None
    #: Cached static-preflight verdicts per alternative (pure function of
    #: the platform, so one evaluation covers every backend pass).
    _preflight_ok: dict[tuple[int, int, float], bool] = field(
        default_factory=dict, init=False, repr=False
    )

    def _select(
        self, backend: str, spec: ResourceSpecification,
        deadline_remaining_s: float | None = None,
    ) -> tuple[np.ndarray | None, float]:
        """Run one backend; returns (host ids | None, selection latency)."""
        unavailable = self.churn.unavailable() | self.churn.binder.bound_hosts
        return select_once(
            self.platform,
            backend,
            spec,
            unavailable,
            max_classad_machines=self.config.max_classad_machines,
            deadline_remaining_s=deadline_remaining_s,
        )

    def run(self, dag: DAG, spec: ResourceSpecification) -> SelectionOutcome:
        """Select, bind and execute ``dag`` under churn; never raises on
        fulfillment failure (returns an unfulfilled outcome instead)."""
        cfg = self.config
        churn = self.churn

        def alternatives() -> list[ResourceSpecification]:
            if self.alternatives is None:
                self.alternatives = respecifications(
                    dag, spec, self.platform, cfg.max_respecs
                )
            return self.alternatives[: cfg.max_respecs]

        churn.advance(churn.now)  # apply any events pending at t = now
        with observe.span("pipeline.run"):
            walk = _run_now(
                climb(
                    _ChurnPort(self),
                    cfg,
                    functools.partial(ladder_rungs, spec, alternatives, self._preflight),
                    jitter_tag="",
                    deadline_at=churn.now + cfg.deadline_s,
                )
            )
            if walk.bound is None:
                return walk.outcome()
            execution = self._execute(dag, walk.spec, walk.bound)
            turnaround = churn.now
        return walk.outcome(
            execution,
            turnaround_s=turnaround,
            baseline_turnaround_s=self._baseline_turnaround(dag, spec),
        )

    def _preflight(self, spec: ResourceSpecification) -> bool:
        """Cached static satisfiability of one spec on the platform."""
        key = (spec.size, spec.min_size, spec.clock_min_mhz)
        ok = self._preflight_ok.get(key)
        if ok is None:
            ok = preflight_specification(spec, self.platform).satisfiable
            self._preflight_ok[key] = ok
        return ok

    def _execute(
        self, dag: DAG, spec: ResourceSpecification, bound: np.ndarray
    ) -> Execution:
        """:func:`execute` over this run's churn, with no deadline; every
        host failing with no free replacement raises :class:`PipelineError`."""
        done = _run_now(
            execute(_ChurnPort(self), self.platform, dag, spec, bound, deadline_at=math.inf)
        )
        if done.abort_reason is not None:
            raise PipelineError("every bound host failed and no replacement is free")
        return done

    def _baseline_turnaround(self, dag: DAG, spec: ResourceSpecification) -> float | None:
        """Turnaround of the undisturbed run: same platform, no churn, no
        background load, an empty binder."""
        quiet = ResourceChurn.from_config(self.platform, ChurnConfig(), Binder(self.platform))
        baseline = SelectionPipeline(self.platform, quiet, self.config)
        with observe.use_registry(observe.MetricsRegistry()):
            return baseline._run_undisturbed(dag, spec)

    def _run_undisturbed(self, dag: DAG, spec: ResourceSpecification) -> float | None:
        """The churn-free reference run (selection latency + makespan)."""
        for backend in self.config.backends:
            hosts, latency = self._select(backend, spec)
            if hosts is None or hosts.size < spec.min_size:
                continue
            self.churn.advance(self.churn.now + latency)
            self.churn.binder.bind(hosts)
            self._execute(dag, spec, hosts)
            return self.churn.now
        return None
