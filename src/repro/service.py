"""Selection as a service: many tenants, one platform, virtual time.

The dissertation's vgFAB exists because many users select and bind
against one live inventory at once (§II.2.3); a
:class:`~repro.selection.pipeline.SelectionPipeline` still assumes each
run owns the platform.  This module runs *N* concurrent tenant requests
over one shared ``Platform`` + ``Binder`` + churn trace, and keeps every
run a pure function of its seeds.

One ladder
----------
Tenants do not carry a ladder or executor of their own: each awaits the
pipeline's :func:`~repro.selection.pipeline.climb` and
:func:`~repro.selection.pipeline.execute` coroutines over a per-tenant
port (:class:`_TenantPort`) whose ``select``, ``bind`` and ``rebind``
are dispatcher operations and whose sleeps wait on the virtual clock.
So a tenant prunes, retries, respecifies and falls back exactly as
``repro select`` does.  Three differences are intended and passed as
arguments: the backoff jitter key carries the tenant/request id, the
deadline runs from arrival and also bounds execution, and a tenant
whose hosts are exhausted gets a ``host_exhaustion`` outcome instead of
an exception.

Determinism model
-----------------
There is no wall clock and no real event loop.  Tenants are plain
``async def`` coroutines driven by a tiny trampoline kernel
(:class:`_Kernel`) whose heap is keyed on **virtual** time; ``await``
points are either virtual sleeps or service futures.  Two mechanisms
make an N-tenant run replay bit-identically for *any* interleaving seed:

* every mutation of shared state (selection, binding, rebinding,
  release, admission) is submitted as an *operation* to a dispatcher
  task that runs after all same-instant tenant steps (a later kernel
  tier) and processes each batch in canonical ``(tenant, seq)`` order —
  so the interleaving seed permutes same-instant *wakeup* order only,
  never the order shared state is touched in;
* tenant coroutines read only deterministic views between operations
  (the immutable churn trace, ``churn.dead`` at the current instant).

The interleaving seed (:attr:`ServiceConfig.interleave_seed`) shuffles
same-instant wakeups via a digest, exactly so tests can *prove* outcome
equality across schedules.

Amortization
------------
Every select reads availability from ground truth — the churn's
unavailable hosts plus the binder's bound ones — and nothing else.  That
one set answers a conservative short-circuit that refuses a selection
without engine construction when fewer free hosts than the spec's
``min_size`` lie in its clock band, and the miss latency of a refused
query.  Respecification ladders, static preflights and baseline
turnarounds are cached and shared across tenants; same-instant
operations are dispatched as one batch.  Selection engines are not
cached: every select builds its engine over the current banned set.

Resilience
----------
Four layers keep the service degrading gracefully instead of failing:

* **Overload control** — per-request virtual-time deadline budgets
  (aborting with ``deadline_exceeded``), priority-tiered admission with
  deterministic load shedding at queue saturation, and a brownout mode
  that sheds optional work (alternative generation, preflight,
  baselines) above an occupancy threshold.
* **Circuit breakers** — one per backend, tripping open after K
  consecutive injected failures, routing the ladder around the open
  backend (a ``breaker_open`` refusal ends that backend's rungs) and
  half-opening on a deterministic virtual-time cooldown.  Breakers,
  injected backend faults, the free-host short-circuit and brownout all
  live in the dispatcher's ``select`` operation; injected bind stalls
  live in the port's ``bind``.  The ladder only sees refusal reasons.
* **Failure isolation** — tenant coroutines run under a supervisor (and
  a kernel backstop) that converts any exception into a structured
  aborted outcome and releases the dead tenant's slot and hosts; no
  exception escapes the trampoline.  Chaos is injected via
  :class:`~repro.faults.ServiceFaultInjector` (seeded, replayable).
* **Crash recovery** — an optional write-ahead JSONL journal of
  dispatcher batches (:mod:`repro.journal`); resume re-executes the run
  deterministically while verifying every journaled batch, then
  continues past the crash point, bit-identical to an uninterrupted run.

Accounting
----------
Fairness and starvation are observable through ``service.*`` counters
(admissions, refusals, bind_conflicts, completions, batches,
batched_ops, index_shortcircuits, preflight_hits,
churn_events, execution_aborts, deadline_aborts — ladder and execution
aborts together) and gauges (queue-wait p50/p99 per tenant and overall,
batch size mean/max).  Each per-tenant
:class:`~repro.selection.pipeline.SelectionOutcome` is built by the
shared ladder, which bumps the same ``pipeline.*`` counters (including
``pipeline.respecs_pruned`` and ``pipeline.deadline_aborts``) as a
pipeline run, so the established cross-checks hold per tenant too.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import heapq
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro import observe
from repro.analysis.preflight import preflight_specification
from repro.core.generator import ResourceSpecification
from repro.dag.graph import DAG
from repro.dag.montage import montage_dag, montage_level_counts
from repro.faults import KILL_EXIT_CODE, InjectedFault, ServiceFaultInjector
from repro.journal import Journal, inputs_digest
from repro.resources.binding import Binder
from repro.resources.churn import ChurnConfig, ResourceChurn, inject_storm
from repro.resources.platform import Platform
from repro.selection.pipeline import (
    Climb,
    PipelineConfig,
    SelectionOutcome,
    SelectionPipeline,
    climb,
    execute,
    fastest_free,
    ladder_rungs,
    miss_latency,
    respecifications,
    select_once,
)

# The shared ladder calls these from repro.selection.pipeline; bench/trace.py
# also wraps them here, as attributes of this module, and needs them to exist.
from repro.core.alternatives import alternative_specifications  # noqa: F401
from repro.scheduling.base import schedule_dag  # noqa: F401

__all__ = [
    "ServiceError",
    "ServiceConfig",
    "TenantRequest",
    "TenantOutcome",
    "ServiceReport",
    "SelectionService",
    "synthesize_requests",
    "load_requests",
    "make_spec",
]


class ServiceError(RuntimeError):
    """Invalid service configuration/input, or a scheduling invariant
    violation (a tenant that never completed — a deadlock, which the
    deterministic kernel turns into a reproducible error)."""


# ======================================================================
# The virtual-time kernel
# ======================================================================
class _SleepUntil:
    """Awaitable: suspend the task until the given virtual time."""

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = float(time)

    def __await__(self):
        yield self


class ServiceFuture:
    """A one-shot future resolved by the dispatcher.

    Awaiting an unresolved future suspends the task until
    :meth:`resolve`; awaiting a resolved one returns immediately.
    """

    __slots__ = ("_kernel", "_done", "_value", "_waiters")

    def __init__(self, kernel: "_Kernel") -> None:
        self._kernel = kernel
        self._done = False
        self._value: Any = None
        self._waiters: list[_Task] = []

    @property
    def done(self) -> bool:
        return self._done

    def resolve(self, value: Any = None) -> None:
        if self._done:
            raise ServiceError("future already resolved")
        self._done = True
        self._value = value
        for task in self._waiters:
            self._kernel._schedule(task, self._kernel.now)
        self._waiters.clear()

    def __await__(self):
        if not self._done:
            yield self
        return self._value


class _Task:
    """One coroutine on the kernel heap, stepped in its own context."""

    __slots__ = (
        "id", "coro", "tier", "name", "context", "finished", "result",
        "wakes", "error", "critical",
    )

    def __init__(
        self, task_id: int, coro, tier: int, name: str, critical: bool = False
    ) -> None:
        self.id = task_id
        self.coro = coro
        self.tier = tier
        self.name = name
        # A private contextvars.Context per task — matching asyncio.Task
        # semantics — so each tenant has an isolated observe span stack.
        self.context = contextvars.copy_context()
        self.finished = False
        self.result: Any = None
        self.wakes = 0
        #: Exception the kernel isolated (non-critical tasks only).
        self.error: BaseException | None = None
        #: Critical tasks (the dispatcher) propagate exceptions out of
        #: ``run()`` instead of being isolated — a dispatcher failure is
        #: a service failure, not a tenant failure.
        self.critical = critical


class _Kernel:
    """Deterministic trampoline over ``(time, tier, shuffle, seq)``.

    Tasks at the same instant run in shuffle order — a digest of
    ``(interleave_seed, task id, wake count)`` — so the seed permutes
    same-instant wakeups and *only* that.  ``tier`` orders task classes
    within an instant: tenants (0) before the dispatcher (1), so a
    dispatch batch always contains every operation submitted at that
    instant so far.  ``on_advance`` fires exactly once per distinct
    time before any task at that time runs (the churn hook).
    """

    def __init__(
        self, interleave_seed: int = 0, on_advance: Callable[[float], None] | None = None
    ) -> None:
        self.now = 0.0
        self._interleave_seed = int(interleave_seed)
        self._on_advance = on_advance
        self._heap: list[tuple[float, int, int, int, _Task]] = []
        self._seq = 0
        self._n_tasks = 0

    def future(self) -> ServiceFuture:
        return ServiceFuture(self)

    def spawn(
        self,
        coro,
        *,
        tier: int = 0,
        start_at: float = 0.0,
        name: str = "",
        critical: bool = False,
    ) -> _Task:
        self._n_tasks += 1
        task = _Task(self._n_tasks, coro, tier, name, critical)
        self._schedule(task, max(float(start_at), self.now))
        return task

    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` virtual seconds."""
        if delay < 0:
            raise ServiceError("cannot sleep a negative virtual delay")
        await _SleepUntil(self.now + float(delay))

    async def sleep_until(self, time: float) -> None:
        """Suspend the calling task until virtual time ``time`` (at once
        when it has passed)."""
        await _SleepUntil(max(float(time), self.now))

    def _shuffle_key(self, task: _Task) -> int:
        task.wakes += 1
        digest = hashlib.sha256(
            f"interleave:{self._interleave_seed}:{task.id}:{task.wakes}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def _schedule(self, task: _Task, time: float) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, task.tier, self._shuffle_key(task), self._seq, task))

    def run(self) -> None:
        while self._heap:
            time, _tier, _shuf, _seq, task = heapq.heappop(self._heap)
            if task.finished:  # pragma: no cover - defensive
                continue
            if time > self.now:
                if self._on_advance is not None:
                    self._on_advance(time)
                self.now = time
            self._step(task)

    def abort(self) -> None:
        """Close every unfinished coroutine still on the heap.

        Called when a critical task takes the kernel down (e.g. an
        injected dispatcher crash): never-started tenant coroutines
        would otherwise emit 'coroutine was never awaited' warnings at
        garbage collection.
        """
        for _t, _tier, _shuf, _seq, task in self._heap:
            if not task.finished:
                task.finished = True
                task.coro.close()
        self._heap.clear()

    def _step(self, task: _Task) -> None:
        try:
            request = task.context.run(task.coro.send, None)
        except StopIteration as stop:
            task.finished = True
            task.result = stop.value
            return
        except Exception as exc:
            # Failure isolation: a non-critical (tenant) coroutine that
            # raises is terminated and recorded, never allowed to take the
            # kernel — and with it every other tenant — down.  Critical
            # tasks (the dispatcher) re-raise: their failure *is* the
            # service failing, and callers need the real traceback.
            if task.critical:
                raise
            task.finished = True
            task.error = exc
            return
        if isinstance(request, _SleepUntil):
            self._schedule(task, max(request.time, self.now))
        elif isinstance(request, ServiceFuture):
            if request._done:  # pragma: no cover - awaits return early
                self._schedule(task, self.now)
            else:
                request._waiters.append(task)
        else:
            raise ServiceError(f"task {task.name!r} awaited a foreign object: {request!r}")


# ======================================================================
# Requests / outcomes
# ======================================================================
@dataclass(frozen=True)
class TenantRequest:
    """One tenant's spec request: run ``dag`` under ``spec``, arriving
    at virtual time ``arrival_s``.

    ``priority`` orders admission under overload: lower values are more
    important.  When the queue saturates, the *highest* ``(priority,
    request id)`` waiter is deterministically shed; when a slot frees,
    the lowest is granted.  ``deadline_s`` is this request's virtual-time
    budget from arrival (``None`` = the service default).
    """

    tenant: int
    dag: DAG
    spec: ResourceSpecification
    arrival_s: float = 0.0
    priority: int = 1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.tenant < 0:
            raise ServiceError("tenant ids must be non-negative")
        if self.arrival_s < 0:
            raise ServiceError("arrival_s must be non-negative")
        if self.priority < 0:
            raise ServiceError("priority must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServiceError("deadline_s must be positive")


@dataclass(frozen=True)
class TenantOutcome:
    """What happened to one request.

    ``admitted=False`` with ``refusal_reason`` set means admission
    control turned it away: ``queue_full`` (refused on arrival) or
    ``shed`` (queued, then evicted by a higher-priority arrival) —
    ``outcome`` is then None.  An admitted request always carries a
    :class:`SelectionOutcome`; its ``turnaround_s`` is measured from
    *arrival* (queue wait included), which is what the tenant feels.  A
    crashed tenant coroutine (chaos injection) carries an aborted
    outcome with ``abort_reason="tenant_crash"`` instead.
    """

    tenant: int
    request_id: int
    arrival_s: float
    admitted: bool
    queue_wait_s: float | None
    outcome: SelectionOutcome | None
    completion_s: float | None
    refusal_reason: str | None = None
    priority: int = 1

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON rendering (for ``--outcome-out`` and replay tests)."""
        return {
            "tenant": self.tenant,
            "request_id": self.request_id,
            "arrival_s": self.arrival_s,
            "admitted": self.admitted,
            "queue_wait_s": self.queue_wait_s,
            "outcome": None if self.outcome is None else self.outcome.to_dict(),
            "completion_s": self.completion_s,
            "refusal_reason": self.refusal_reason,
            "priority": self.priority,
        }


@dataclass(frozen=True)
class ServiceReport:
    """All tenant outcomes plus the run's fairness gauges."""

    outcomes: tuple[TenantOutcome, ...]
    fairness: dict[str, float]

    @property
    def n_admitted(self) -> int:
        return sum(1 for o in self.outcomes if o.admitted)

    @property
    def n_refused(self) -> int:
        """Requests admission control turned away (refused or shed)."""
        return sum(1 for o in self.outcomes if not o.admitted and o.outcome is None)

    @property
    def n_shed(self) -> int:
        return sum(1 for o in self.outcomes if o.refusal_reason == "shed")

    @property
    def n_crashed(self) -> int:
        return sum(
            1
            for o in self.outcomes
            if o.outcome is not None and o.outcome.abort_reason == "tenant_crash"
        )

    @property
    def n_fulfilled(self) -> int:
        return sum(1 for o in self.outcomes if o.outcome is not None and o.outcome.fulfilled)

    def to_dict(self) -> dict[str, object]:
        """Plain-JSON rendering of every outcome plus the fairness gauges."""
        return {
            "outcomes": [o.to_dict() for o in self.outcomes],
            "fairness": dict(self.fairness),
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Admission control + determinism knobs for one service run."""

    #: Requests allowed to wait for an execution slot; when the queue
    #: saturates the highest ``(priority, request id)`` waiter is shed
    #: (``service.refusals`` / ``service.sheds``).
    queue_capacity: int = 16
    #: Concurrent ladder/execution slots (admitted, not yet finished).
    max_inflight: int = 4
    #: Shuffles same-instant wakeup order only; outcomes are invariant.
    interleave_seed: int = 0
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    #: Default per-request virtual-time budget from arrival; a request
    #: still unfinished at its deadline aborts with ``deadline_exceeded``.
    deadline_s: float = math.inf
    #: Occupancy fraction — ``(inflight + waiting) / (max_inflight +
    #: queue_capacity)`` — at or above which brownout engages, shedding
    #: optional work (alternative generation, preflight, baselines).
    #: Default 1.0: brownout only at full saturation.
    brownout_threshold: float = 1.0
    #: Consecutive backend failures (injected errors/hangs) that trip
    #: that backend's circuit breaker open.
    breaker_threshold: int = 3
    #: Virtual seconds an open breaker waits before half-opening to
    #: probe the backend again.
    breaker_cooldown_s: float = 120.0

    def __post_init__(self) -> None:
        if self.queue_capacity < 0:
            raise ServiceError("queue_capacity must be non-negative")
        if self.max_inflight < 1:
            raise ServiceError("max_inflight must be at least 1")
        if self.deadline_s <= 0:
            raise ServiceError("deadline_s must be positive")
        if not 0.0 < self.brownout_threshold <= 1.0:
            raise ServiceError("brownout_threshold must be in (0, 1]")
        if self.breaker_threshold < 1:
            raise ServiceError("breaker_threshold must be at least 1")
        if self.breaker_cooldown_s <= 0:
            raise ServiceError("breaker_cooldown_s must be positive")


@dataclass
class _Op:
    """One shared-state operation, processed in canonical request order.

    The sort key is ``(tenant, rid, seq)``: a coroutine has at most one
    outstanding op, so within a batch ``(tenant, rid)`` is unique and
    the global submission ``seq`` (which *does* depend on same-instant
    wakeup order) never decides between two tenants.
    """

    kind: str  # admit | select | bind | rebind | finish
    tenant: int
    rid: int
    seq: int
    payload: Any
    future: ServiceFuture


def _spec_key(spec: ResourceSpecification) -> tuple:
    return (
        spec.heuristic,
        spec.size,
        spec.min_size,
        spec.clock_min_mhz,
        spec.clock_max_mhz,
        spec.connectivity,
        spec.threshold,
    )


def _percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(np.ceil(pct / 100.0 * len(sorted_values))))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


class _TenantPort:
    """One request's port onto the shared ladder and executor
    (:func:`~repro.selection.pipeline.climb`,
    :func:`~repro.selection.pipeline.execute`): selections, binds and
    rebinds become dispatcher operations, and sleeps wait on the virtual
    clock.  Injected bind stalls happen here, so the ladder sees only the
    refusal reason they cause."""

    def __init__(self, service: "SelectionService", tenant: int, rid: int) -> None:
        self._service = service
        self._tenant = tenant
        self._rid = rid
        self.churn = service._churn
        self.sleep = service._kernel.sleep
        self.sleep_until = service._kernel.sleep_until

    @property
    def now(self) -> float:
        return self._service._kernel.now

    def _call(self, kind: str, payload: Any):
        return self._service._call(kind, self._tenant, self._rid, payload)

    def select(self, backend, spec, s_idx, attempt, deadline_remaining_s):
        return self._call("select", (backend, spec, s_idx, attempt, deadline_remaining_s))

    async def bind(self, hosts: np.ndarray, s_idx: int, attempt: int) -> str | None:
        faults = self._service.faults
        if faults is not None:
            stall = faults.bind_stall(self._tenant, self._rid, s_idx, attempt, self.now)
            if stall > 0:
                # A stalled binder widens the selection window, inviting
                # races and host loss.
                observe.inc("service.bind_stalls")
                await self.sleep(stall)
                if set(int(h) for h in hosts) & self.churn.dead:
                    return "host_lost"
        conflicts = await self._call("bind", hosts)
        return "race" if conflicts else None

    def rebind(self, need: int):
        return self._call("rebind", need)


# ======================================================================
# The service
# ======================================================================
@dataclass
class SelectionService:
    """A multi-tenant selection service over one shared platform.

    ``run(requests)`` replays bit-identically for fixed ``(platform,
    churn_config, config, requests)`` — including across interleave
    seeds.  Each call builds a fresh ``Binder`` and churn state machine
    (from ``churn_config``), so back-to-back runs are independent;
    selection engines are built per select, never cached.
    """

    platform: Platform
    churn_config: ChurnConfig = field(default_factory=ChurnConfig)
    config: ServiceConfig = field(default_factory=ServiceConfig)
    #: Optional chaos injector (tenant crashes, backend faults, binder
    #: stalls, churn storms, mid-run kills) — all decisions seeded.
    faults: ServiceFaultInjector | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[TenantRequest],
        *,
        journal_path: str | None = None,
        resume_path: str | None = None,
    ) -> ServiceReport:
        """Serve every request to completion; return the full report.

        Tenants run concurrently on the virtual-time kernel: admission
        control first, then each walks the retry/respecify/fallback
        ladder against the shared churned platform, executes its DAG,
        and releases its hosts.  Deterministic: bit-identical outcomes
        and counters for fixed inputs, for any ``interleave_seed``.

        ``journal_path`` write-ahead-journals every dispatcher batch;
        ``resume_path`` re-executes the run while *verifying* each batch
        against an existing journal (the deterministic kernel replays
        the pre-crash prefix bit-identically; the first divergence is a
        hard :class:`~repro.journal.JournalError`), then appends past
        its end — so a killed-and-resumed run finishes in the exact
        state of an uninterrupted one.
        """
        reqs = sorted(requests, key=lambda r: (r.arrival_s, r.tenant))
        if not reqs:
            raise ServiceError("no requests to serve")

        # Fresh per-run shared state.
        self._binder = Binder(self.platform)
        self._churn = ResourceChurn.from_config(
            self.platform, self.churn_config, self._binder
        )
        f = self.faults
        if f is not None and f.storm_at_s >= 0 and f.storm_kill > 0:
            self._churn = ResourceChurn(
                platform=self.platform,
                trace=inject_storm(
                    self._churn.trace,
                    self.platform,
                    f.storm_at_s,
                    f.storm_kill,
                    f.seed,
                ),
                binder=self._binder,
            )
        # Engines compare ``Clock`` in MHz against a rendered floor; keep a
        # dedicated MHz column for the short-circuit band test.
        self._clock_mhz = self.platform.host_clock * 1000.0
        self._ladder_cache: dict = {}
        self._preflight_cache: dict = {}
        self._baseline_cache: dict = {}
        self._inflight = 0
        self._waiting: list[_Op] = []
        self._pending_ops: list[_Op] = []
        self._op_seq = 0
        self._signal_fut: ServiceFuture | None = None
        self._queue_waits: dict[int, list[float]] = {}
        self._batch_sizes: list[int] = []
        self._brownout = False
        self._breakers = {
            b: {"state": "closed", "fails": 0, "opened_at": 0.0}
            for b in self.config.pipeline.backends
        }
        self._held_by: dict[int, list[int]] = {}
        self._admitted_live: set[int] = set()
        self._batch_no = 0
        self._journal: Journal | None = None
        if resume_path is not None:
            self._journal = Journal.resume(resume_path, self._inputs_digest(reqs))
        elif journal_path is not None:
            self._journal = Journal.create(journal_path, self._inputs_digest(reqs))

        self._kernel = _Kernel(self.config.interleave_seed, self._on_advance)
        # Apply anything pending at t = 0.
        self._churn.advance(0.0)

        self._kernel.spawn(
            self._dispatch_loop(), tier=1, name="dispatcher", critical=True
        )
        tasks = [
            self._kernel.spawn(
                self._tenant(req, rid),
                tier=0,
                start_at=req.arrival_s,
                name=f"tenant{req.tenant}#{rid}",
            )
            for rid, req in enumerate(reqs)
        ]
        try:
            with observe.span("service.run"):
                self._kernel.run()
        except BaseException:
            self._kernel.abort()
            raise
        finally:
            if self._journal is not None:
                self._journal.close()

        stuck = [t.name for t in tasks if not t.finished]
        if stuck:
            raise ServiceError(f"tenants never completed (deadlock): {stuck}")
        outcomes = tuple(
            t.result
            if t.error is None
            else self._kernel_isolated_outcome(req, rid)
            for rid, (t, req) in enumerate(zip(tasks, reqs))
        )
        fairness = self._finalize_fairness()
        return ServiceReport(outcomes=outcomes, fairness=fairness)

    def _inputs_digest(self, reqs: Sequence[TenantRequest]) -> str:
        """Digest of everything that determines the dispatcher batch
        sequence.  Deliberately *excludes* ``interleave_seed`` — batch
        contents are proven interleave-invariant, so a journal written
        under one seed must replay under any other."""
        cfg = self.config
        return inputs_digest(
            [
                hashlib.sha256(self.platform.host_clock.tobytes()).hexdigest(),
                hashlib.sha256(
                    np.asarray(self.platform.host_cluster).tobytes()
                ).hexdigest(),
                repr(self.churn_config),
                repr(
                    (
                        cfg.queue_capacity,
                        cfg.max_inflight,
                        cfg.deadline_s,
                        cfg.brownout_threshold,
                        cfg.breaker_threshold,
                        cfg.breaker_cooldown_s,
                        cfg.pipeline,
                    )
                ),
                repr(self.faults),
                ";".join(
                    f"{r.tenant}:{r.arrival_s}:{r.priority}:{r.deadline_s}:"
                    f"{_spec_key(r.spec)}:{r.dag.n}"
                    for r in reqs
                ),
            ]
        )

    def _kernel_isolated_outcome(self, req: TenantRequest, rid: int) -> TenantOutcome:
        """Outcome for a tenant whose coroutine the kernel had to isolate
        (its own supervisor failed) — the backstop of the no-exception-
        escapes guarantee."""
        observe.inc("service.kernel_isolated")
        return TenantOutcome(
            tenant=req.tenant,
            request_id=rid,
            arrival_s=req.arrival_s,
            admitted=rid in getattr(self, "_admitted_live", set()),
            queue_wait_s=None,
            outcome=Climb(abort_reason="tenant_crash").outcome(),
            completion_s=None,
            priority=req.priority,
        )

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def _on_advance(self, to_time: float) -> None:
        """Apply churn up to ``to_time`` before any task at that time."""
        events = self._churn.advance(to_time)
        if events:
            observe.inc("service.churn_events", len(events))

    # ------------------------------------------------------------------
    # Tenant -> dispatcher plumbing
    # ------------------------------------------------------------------
    async def _call(self, kind: str, tenant: int, rid: int, payload: Any) -> Any:
        self._op_seq += 1
        op = _Op(kind, tenant, rid, self._op_seq, payload, self._kernel.future())
        self._pending_ops.append(op)
        if self._signal_fut is not None:
            signal, self._signal_fut = self._signal_fut, None
            signal.resolve()
        return await op.future

    async def _dispatch_loop(self) -> None:
        while True:
            if not self._pending_ops:
                self._signal_fut = self._kernel.future()
                await self._signal_fut
            # Canonical order: outcomes must not depend on which tenant
            # happened to wake first within this instant.
            batch = sorted(
                self._pending_ops, key=lambda op: (op.tenant, op.rid, op.seq)
            )
            self._pending_ops.clear()
            self._batch_no += 1
            self._journal_batch(batch)
            observe.inc("service.batches")
            observe.inc("service.batched_ops", len(batch))
            self._batch_sizes.append(len(batch))
            for op in batch:
                self._process_op(op)
            self._update_brownout()

    def _journal_batch(self, batch: list[_Op]) -> None:
        """Write-ahead (or replay-verify) one batch, then fire any
        armed kill/crash fault.

        The record is written *before* the batch mutates state, so its
        ``sha`` digests the pre-batch state; a crash between journaling
        and applying leaves the classic WAL window the resume path
        closes by re-executing.  ``kill_after``/``crash_after`` fire
        only on freshly *written* batches — a replayed batch was
        journaled before the original death, so resume sails past it.
        """
        replayed = self._journal is not None and self._journal.replaying
        if self._journal is not None:
            self._journal.append(
                {
                    "kind": "batch",
                    "i": self._batch_no - 1,
                    "t": self._kernel.now,
                    "ops": [[op.kind, op.tenant, op.rid] for op in batch],
                    "sha": self._state_digest(),
                }
            )
        f = self.faults
        if f is not None and not replayed:
            if f.kill_after and self._batch_no == f.kill_after:
                os._exit(KILL_EXIT_CODE)
            if f.crash_after and self._batch_no == f.crash_after:
                raise InjectedFault(
                    f"injected dispatcher crash after journaling batch "
                    f"{self._batch_no}"
                )

    def _state_digest(self) -> str:
        """Digest of the dispatcher-owned shared state, for the journal's
        per-batch divergence check."""
        parts = [
            self._binder.state_digest(),
            str(self._churn._cursor),
            ",".join(str(h) for h in sorted(self._churn.dead)),
            ",".join(str(h) for h in sorted(self._churn.competitor_held)),
            str(self._inflight),
            ";".join(f"{o.tenant}.{o.rid}" for o in self._waiting),
        ]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]

    def _update_brownout(self) -> None:
        """Re-evaluate brownout at the batch boundary (the only place
        occupancy changes), keeping the flag interleave-invariant."""
        cap = self.config.max_inflight + self.config.queue_capacity
        occupancy = (self._inflight + len(self._waiting)) / cap if cap else 1.0
        engaged = occupancy >= self.config.brownout_threshold
        if engaged and not self._brownout:
            observe.inc("service.brownout_entries")
        self._brownout = engaged
        observe.gauge("service.brownout", 1.0 if engaged else 0.0)

    def _process_op(self, op: _Op) -> None:
        handler = getattr(self, f"_op_{op.kind}", None)
        if handler is None:
            raise ServiceError(f"unknown service op {op.kind!r}")
        handler(op)

    # -- operations ------------------------------------------------------
    def _op_admit(self, op: _Op) -> None:
        """Priority-tiered admission with deterministic load shedding.

        The arrival joins the wait pool, free slots are granted to the
        lowest ``(priority, request id)`` waiters, and if the pool still
        exceeds capacity the *highest* ``(priority, rid)`` waiter is
        shed — which with uniform priorities reduces to refusing the
        newest request, the pre-priority behavior.
        """
        self._waiting.append(op)
        self._pump_admissions()
        if len(self._waiting) > self.config.queue_capacity:
            victim = max(self._waiting, key=lambda o: (o.payload, o.rid))
            self._waiting.remove(victim)
            if victim is op:
                observe.inc("service.refusals")
                victim.future.resolve("queue_full")
            else:
                observe.inc("service.sheds")
                victim.future.resolve("shed")

    def _pump_admissions(self) -> None:
        while self._waiting and self._inflight < self.config.max_inflight:
            best = min(self._waiting, key=lambda o: (o.payload, o.rid))
            self._waiting.remove(best)
            self._grant(best)

    def _grant(self, op: _Op) -> None:
        self._inflight += 1
        self._admitted_live.add(op.rid)
        observe.inc("service.admissions")
        op.future.resolve(self._kernel.now)

    def _op_select(self, op: _Op) -> None:
        backend, spec, s_idx, attempt, remaining = op.payload
        now = self._kernel.now
        breaker = self._breakers[backend]
        if breaker["state"] == "open":
            if now >= breaker["opened_at"] + self.config.breaker_cooldown_s:
                # Deterministic half-open schedule: the first select op
                # arriving after the virtual cooldown becomes the probe.
                breaker["state"] = "half_open"
                observe.inc("service.breaker_half_opens")
            else:
                observe.inc("service.breaker_skips")
                op.future.resolve((None, 0.0, "breaker_open"))
                return
        unavailable = self._churn.unavailable() | self._binder.bound_hosts
        free = self.platform.free_mask(unavailable)
        if self.faults is not None:
            fault = self.faults.backend_fault(
                backend, op.tenant, op.rid, s_idx, attempt, now
            )
            if fault is not None:
                latency = (
                    self.faults.hang_s
                    if fault == "hang"
                    else self._miss_latency(backend, free)
                )
                observe.inc(f"service.backend_{fault}s")
                self._breaker_failure(backend)
                op.future.resolve((None, latency, f"backend_{fault}"))
                return
        band = self._clock_mhz >= spec.clock_min_mhz - 0.5
        if np.count_nonzero(free & band) < spec.min_size:
            # No backend can produce min_size hosts in the clock band —
            # all three treat the lower clock bound as hard — so skip
            # engine construction and reproduce the exact miss latency.
            # vgDL and ClassAd render the floor rounded to whole MHz, so
            # the band starts half a MHz below the spec's floor: no
            # rendering asks for less, and a select this lets through is
            # refused by its engine with the same miss latency.
            observe.inc("service.index_shortcircuits")
            op.future.resolve((None, self._miss_latency(backend, free), None))
            return
        cfg = self.config.pipeline
        hosts, latency = select_once(
            self.platform,
            backend,
            spec,
            unavailable,
            max_classad_machines=cfg.max_classad_machines,
            deadline_remaining_s=remaining,
        )
        self._breaker_success(backend)
        op.future.resolve((hosts, latency, None))

    def _breaker_failure(self, backend: str) -> None:
        breaker = self._breakers[backend]
        breaker["fails"] += 1
        if (
            breaker["state"] == "half_open"
            or breaker["fails"] >= self.config.breaker_threshold
        ):
            # A failed half-open probe reopens immediately; a closed
            # breaker trips after K consecutive failures.
            observe.inc("service.breaker_trips")
            breaker["state"] = "open"
            breaker["opened_at"] = self._kernel.now
            breaker["fails"] = 0

    def _breaker_success(self, backend: str) -> None:
        breaker = self._breakers[backend]
        if breaker["state"] == "half_open":
            observe.inc("service.breaker_closes")
            breaker["state"] = "closed"
        breaker["fails"] = 0

    def _miss_latency(self, backend: str, free: np.ndarray) -> float:
        """Latency of a refused query, without the engine: the shared
        :func:`~repro.selection.pipeline.miss_latency` rule over the
        ``free`` hosts (a :meth:`~repro.resources.platform.Platform.free_mask`)."""
        return miss_latency(
            self.platform,
            backend,
            int(np.count_nonzero(free)),
            self.config.pipeline.max_classad_machines,
        )

    def _op_bind(self, op: _Op) -> None:
        hosts = np.asarray(op.payload)
        conflicts = self._binder.try_bind(hosts)
        if conflicts:
            observe.inc("service.bind_conflicts")
        elif hosts.size:
            # Track what each live request holds so a crashed tenant's
            # supervisor can hand the exact set back to ``finish``.
            self._held_by[op.rid] = [int(h) for h in hosts.ravel()]
        op.future.resolve(conflicts)

    def _op_rebind(self, op: _Op) -> None:
        unavailable = self._churn.unavailable() | self._binder.bound_hosts
        replacements = fastest_free(self.platform, unavailable, int(op.payload))
        if replacements:
            conflicts = self._binder.try_bind(
                np.asarray(sorted(replacements), dtype=np.int64)
            )
            if conflicts:  # pragma: no cover - free is derived from bound
                raise ServiceError(f"rebind conflicts on free hosts: {conflicts}")
            self._held_by.setdefault(op.rid, []).extend(
                int(h) for h in replacements
            )
        op.future.resolve([int(h) for h in replacements])

    def _op_finish(self, op: _Op) -> None:
        held = [int(h) for h in op.payload if self._binder.is_bound(int(h))]
        if held:
            self._binder.release(np.asarray(held, dtype=np.int64))
        self._held_by.pop(op.rid, None)
        self._admitted_live.discard(op.rid)
        self._inflight -= 1
        observe.inc("service.completions")
        self._pump_admissions()
        op.future.resolve(None)

    # ------------------------------------------------------------------
    # Shared (amortized) derivations — all pure functions of static
    # inputs, so cache contents are interleaving-invariant.
    # ------------------------------------------------------------------
    def _alternatives(self, dag: DAG, spec: ResourceSpecification) -> list:
        # The DAG is pinned by the submitting operation for the cache's
        # whole lifetime, and the key never leaves this process or any
        # replayed artifact.
        key = (id(dag), _spec_key(spec))  # lint: allow DET006 (in-process cache)
        alts = self._ladder_cache.get(key)
        if alts is None:
            if self._brownout:
                # Brownout: alternative generation is optional work — an
                # overloaded service serves original specs only.  Not
                # cached, so the ladder reappears when pressure lifts.
                observe.inc("service.brownout_skips")
                return []
            alts = respecifications(
                dag, spec, self.platform, self.config.pipeline.max_respecs
            )
            self._ladder_cache[key] = alts
        else:
            observe.inc("service.ladder_shared_hits")
        return alts

    def _preflight(self, spec: ResourceSpecification) -> bool:
        key = (spec.size, spec.min_size, spec.clock_min_mhz)
        ok = self._preflight_cache.get(key)
        if ok is None:
            if self._brownout:
                # Optional work: skip the static check, let the ladder
                # discover unsatisfiability the expensive way.
                observe.inc("service.brownout_skips")
                return True
            ok = preflight_specification(spec, self.platform).satisfiable
            self._preflight_cache[key] = ok
        else:
            observe.inc("service.preflight_hits")
        return ok

    def _baseline(self, dag: DAG, spec: ResourceSpecification) -> float | None:
        key = (id(dag), _spec_key(spec))  # lint: allow DET006 (in-process cache)
        if key in self._baseline_cache:
            observe.inc("service.baseline_shared_hits")
        elif self._brownout:
            observe.inc("service.brownout_skips")
            return None
        else:
            # The baseline runs on a quiet copy; this run's churn is unused.
            pipe = SelectionPipeline(self.platform, self._churn, self.config.pipeline)
            self._baseline_cache[key] = pipe._baseline_turnaround(dag, spec)
        return self._baseline_cache[key]

    # ------------------------------------------------------------------
    # The per-tenant coroutine
    # ------------------------------------------------------------------
    async def _tenant(self, req: TenantRequest, request_id: int) -> TenantOutcome:
        """Supervisor: isolate any crash of the tenant body.

        A tenant coroutine raising (chaos injection, or a real bug) must
        not leak its admission slot or bound hosts, and must surface as
        a structured aborted outcome — every other tenant keeps being
        served.  The cleanup uses the dispatcher-tracked live-admission
        and held-host records, so it releases exactly what the dead
        tenant owned.
        """
        try:
            return await self._tenant_body(req, request_id)
        except Exception:
            observe.inc("service.tenant_crashes")
            was_admitted = request_id in self._admitted_live
            if was_admitted:
                held = tuple(self._held_by.get(request_id, ()))
                await self._call("finish", req.tenant, request_id, held)
            return TenantOutcome(
                tenant=req.tenant,
                request_id=request_id,
                arrival_s=req.arrival_s,
                admitted=was_admitted,
                queue_wait_s=None,
                outcome=Climb(abort_reason="tenant_crash").outcome(),
                completion_s=self._kernel.now,
                priority=req.priority,
            )

    async def _tenant_body(self, req: TenantRequest, request_id: int) -> TenantOutcome:
        kernel = self._kernel
        faults = self.faults

        if faults is not None and faults.tenant_crash(
            req.tenant, request_id, "admit", kernel.now
        ):
            raise InjectedFault(
                f"injected tenant crash (admit) tenant={req.tenant} rid={request_id}"
            )

        admit_at = await self._call("admit", req.tenant, request_id, req.priority)
        if not isinstance(admit_at, float):
            return TenantOutcome(
                tenant=req.tenant,
                request_id=request_id,
                arrival_s=req.arrival_s,
                admitted=False,
                queue_wait_s=None,
                outcome=None,
                completion_s=None,
                refusal_reason=admit_at if admit_at else "queue_full",
                priority=req.priority,
            )
        wait = admit_at - req.arrival_s
        self._queue_waits.setdefault(req.tenant, []).append(wait)

        if faults is not None and faults.tenant_crash(
            req.tenant, request_id, "select", kernel.now
        ):
            raise InjectedFault(
                f"injected tenant crash (select) tenant={req.tenant} rid={request_id}"
            )

        budget = req.deadline_s if req.deadline_s is not None else self.config.deadline_s
        deadline_at = req.arrival_s + budget
        port = _TenantPort(self, req.tenant, request_id)
        walk = await climb(
            port,
            self.config.pipeline,
            functools.partial(
                ladder_rungs,
                req.spec,
                lambda: self._alternatives(req.dag, req.spec),
                self._preflight,
            ),
            # Mixing the tenant/request id into the jitter key desynchronizes
            # retries: two tenants refused at the same instant back off by
            # different amounts instead of colliding forever.
            jitter_tag=f"@tenant{req.tenant}.{request_id}",
            deadline_at=deadline_at,
        )
        execution = None
        baseline = None
        if walk.bound is not None:
            if faults is not None and faults.tenant_crash(
                req.tenant, request_id, "bound", kernel.now
            ):
                raise InjectedFault(
                    f"injected tenant crash (bound) tenant={req.tenant} rid={request_id}"
                )
            execution = await execute(
                port, self.platform, req.dag, walk.spec, walk.bound,
                deadline_at=deadline_at,
            )
            if execution.abort_reason is None:
                baseline = self._baseline(req.dag, req.spec)
        outcome = walk.outcome(
            execution,
            turnaround_s=kernel.now - req.arrival_s,
            baseline_turnaround_s=baseline,
        )
        if outcome.abort_reason == "deadline_exceeded":
            observe.inc("service.deadline_aborts")
        elif outcome.abort_reason == "host_exhaustion":
            observe.inc("service.execution_aborts")
        held = () if execution is None else tuple(execution.hosts)
        await self._call("finish", req.tenant, request_id, held)
        return TenantOutcome(
            tenant=req.tenant,
            request_id=request_id,
            arrival_s=req.arrival_s,
            admitted=True,
            queue_wait_s=wait,
            outcome=outcome,
            completion_s=kernel.now,
            priority=req.priority,
        )

    # ------------------------------------------------------------------
    def _finalize_fairness(self) -> dict[str, float]:
        fairness: dict[str, float] = {}
        all_waits: list[float] = []
        for tenant in sorted(self._queue_waits):
            waits = sorted(self._queue_waits[tenant])
            p50 = _percentile(waits, 50.0)
            p99 = _percentile(waits, 99.0)
            fairness[f"queue_wait_p50.tenant{tenant}"] = p50
            fairness[f"queue_wait_p99.tenant{tenant}"] = p99
            observe.gauge(f"service.queue_wait_p50.tenant{tenant}", p50)
            observe.gauge(f"service.queue_wait_p99.tenant{tenant}", p99)
            all_waits.extend(waits)
        all_waits.sort()
        fairness["queue_wait_p50"] = _percentile(all_waits, 50.0)
        fairness["queue_wait_p99"] = _percentile(all_waits, 99.0)
        observe.gauge("service.queue_wait_p50", fairness["queue_wait_p50"])
        observe.gauge("service.queue_wait_p99", fairness["queue_wait_p99"])
        if self._batch_sizes:
            fairness["batch_size_max"] = float(max(self._batch_sizes))
            fairness["batch_size_mean"] = float(
                sum(self._batch_sizes) / len(self._batch_sizes)
            )
            observe.gauge("service.batch_size_max", fairness["batch_size_max"])
            observe.gauge("service.batch_size_mean", fairness["batch_size_mean"])
        return fairness


# ======================================================================
# Request construction
# ======================================================================
def make_spec(
    dag: DAG,
    size: int,
    *,
    clock_ghz: float = 3.0,
    heterogeneity_tolerance: float = 0.3,
    heuristic: str = "mcp",
    threshold: float = 0.01,
    ccr: float = 0.01,
) -> ResourceSpecification:
    """A resource specification for ``dag`` without a trained size model
    (the service's request files name sizes explicitly)."""
    size = int(max(1, size))
    return ResourceSpecification(
        heuristic=heuristic,
        size=size,
        min_size=max(1, int(round(0.9 * size))),
        clock_min_mhz=clock_ghz * 1000.0 * (1.0 - heterogeneity_tolerance),
        clock_max_mhz=clock_ghz * 1000.0,
        connectivity="loose" if ccr < 0.05 else "tight",
        threshold=threshold,
        dag_name=dag.name,
    )


def synthesize_requests(
    platform: Platform,
    n_tenants: int,
    *,
    seed: int = 0,
    spacing_s: float = 2.0,
    levels: int = 3,
    ccr: float = 0.01,
) -> list[TenantRequest]:
    """A deterministic contended workload for ``repro serve --tenants N``.

    Tenants arrive in pairs (``spacing_s`` apart per pair) so same-instant
    selections collide at the binder, and RC sizes vary per tenant.  All
    tenants share one Montage DAG — which is also what exercises the
    service's shared ladder/preflight/baseline caches.
    """
    if n_tenants < 1:
        raise ServiceError("need at least one tenant")
    rng = np.random.default_rng(seed)
    dag = montage_dag(montage_level_counts(levels), ccr=ccr)
    requests = []
    for t in range(n_tenants):
        size = int(rng.integers(4, 9))
        requests.append(
            TenantRequest(
                tenant=t,
                dag=dag,
                spec=make_spec(dag, size, ccr=ccr),
                arrival_s=float(t // 2) * float(spacing_s),
            )
        )
    return requests


def load_requests(path: str) -> list[TenantRequest]:
    """Parse a request file (JSON list) into :class:`TenantRequest`\\ s.

    Each entry: ``{"tenant": int, "arrival_s": float, "size": int,
    "levels": int?, "ccr": float?, "clock_ghz": float?}`` — ``levels``
    (default 3) and ``ccr`` (default 0.01) shape the tenant's Montage
    DAG; ``size``/``clock_ghz`` shape its specification.  Identical
    ``(levels, ccr)`` entries share one DAG object, which lets the
    service share their derived caches too.
    """
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, list) or not entries:
        raise ServiceError(f"{path}: expected a non-empty JSON list of requests")
    dags: dict[tuple[int, float], DAG] = {}
    requests = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ServiceError(f"{path}: request {i} is not an object")
        try:
            tenant = int(entry.get("tenant", i))
            arrival = float(entry.get("arrival_s", 0.0))
            size = int(entry["size"])
            levels = int(entry.get("levels", 3))
            ccr = float(entry.get("ccr", 0.01))
            clock_ghz = float(entry.get("clock_ghz", 3.0))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"{path}: request {i} is malformed: {exc}") from None
        dag_key = (levels, ccr)
        if dag_key not in dags:
            dags[dag_key] = montage_dag(montage_level_counts(levels), ccr=ccr)
        dag = dags[dag_key]
        requests.append(
            TenantRequest(
                tenant=tenant,
                dag=dag,
                spec=make_spec(dag, size, clock_ghz=clock_ghz, ccr=ccr),
                arrival_s=arrival,
            )
        )
    return requests
