"""Parallel experiment engine: deterministic, fault-tolerant cell fan-out.

The dissertation's tables are sweeps over *cells* — (DAG configuration,
RC size, heuristic) tuples — that are embarrassingly parallel but were run
serially.  This module provides the primitives every sweep is ported onto:

``map_cells``
    Map a picklable function over a list of cells, either serially
    (``jobs=1``, the default — keeps tests single-process and easy to
    debug) or on an incremental, futures-based
    :class:`~concurrent.futures.ProcessPoolExecutor` dispatcher.  Results
    always come back in input order, so callers are oblivious to worker
    count and completion order.

:class:`FaultPolicy`
    What happens when a cell fails.  Hours-long sweeps must survive a
    transient exception, a hung worker, or a worker hard-killed by the
    OS — the engine supports per-cell retries with capped exponential
    backoff (deterministic: the jitter is derived from the cell digest,
    never from wall-clock randomness), per-cell timeouts, and full
    ``BrokenProcessPool`` recovery (the pool is rebuilt, lost cells are
    re-dispatched, and a cell that *repeatedly* kills its worker is
    quarantined as a structured :class:`CellFailure` instead of taking
    the sweep down).  ``on_error`` selects the overall discipline:

    ``"raise"`` (default)
        Fail fast: the first failed cell aborts the sweep.  Cells
        completed before the failure are already checkpointed.
    ``"retry"``
        Retry each failing cell up to ``max_retries`` extra attempts;
        a cell still failing with an exception or timeout raises
        :class:`SweepError`, while a worker-killing cell is quarantined
        (the rest of the fleet's work survives the bad node).
    ``"skip"``
        Like ``"retry"``, but exhausted cells of *any* cause become
        :class:`CellFailure` entries in the result list and the sweep
        always completes.

    ``map_cells`` takes an explicit ``policy=``; sweeps that don't pass
    one inherit the ambient policy installed with
    :func:`use_fault_policy` (how the experiment runner threads
    ``--max-retries`` / ``--cell-timeout`` / ``--on-error`` down to
    every call site without changing their signatures).

``rng_for_cell`` / ``seed_for_cell``
    Per-cell deterministic seed derivation.  Each cell's generator is
    spawned from ``SeedSequence(base_seed, spawn_key=sha256(cell_key))``,
    so a cell's random stream depends only on ``(base_seed, cell_key)`` —
    never on which worker ran it, in what order, or how many times it was
    retried.  Sweeps seeded this way produce bit-identical tables for any
    ``jobs`` value, *including* runs where cells failed and were retried.

``ResultCache``
    Content-keyed on-disk JSON cache.  Keys are sha256 digests of a
    canonical encoding of (namespace, version tag, key parts); any change
    to a cell parameter or to the version tag is a miss.  Entries are
    checksummed and written atomically (:mod:`repro.durability`);
    corrupted ones are quarantined as ``*.corrupt`` and recomputed,
    never served and never fatal.
    ``map_cells`` checkpoints each cell *as it completes* — not after the
    whole batch — so an interrupted sweep (Ctrl-C, OOM kill, machine
    reboot) resumes from cache with only in-flight cells lost.
    ``prune_tmp`` sweeps up ``*.tmp`` droppings left by a SIGKILLed
    ``store``.

Fault injection (:mod:`repro.faults`): pass ``injector=`` or set the
``REPRO_FAULTS`` environment variable to deterministically raise, hang,
or hard-kill workers on chosen cells — the chaos knob the test suite uses
to prove every recovery path.

Worker count resolution (``resolve_jobs``): explicit ``jobs`` argument,
else the ``REPRO_JOBS`` environment variable, else 1.  ``jobs <= 0`` means
"all cores".

Observability (:mod:`repro.observe`): ``map_cells`` counts cells, cache
hits/misses, computed cells, and the failure machinery —
``parallel.retries`` (re-dispatched attempts), ``parallel.failures``
(cells that exhausted their budget), ``parallel.pool_restarts`` (pool
rebuilds after a kill or timeout), and ``parallel.cells_checkpointed``
(results persisted incrementally).  Each attempt runs under a private
metrics registry whose snapshot is merged into the caller's registry only
on success, so counter totals are identical for any worker count and
unaffected by retried attempts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import traceback as _traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

import repro.durability as durability
import repro.faults as faults
import repro.observe as observe

__all__ = [
    "MISS",
    "CellFailure",
    "FaultPolicy",
    "ResultCache",
    "SweepError",
    "backoff_delay",
    "canonical_key",
    "cell_digest",
    "get_fault_policy",
    "map_cells",
    "resolve_jobs",
    "rng_for_cell",
    "seed_for_cell",
    "set_fault_policy",
    "use_fault_policy",
]

T = TypeVar("T")
R = TypeVar("R")

#: Default cache location, overridable with ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Sentinel returned by :meth:`ResultCache.get` on a miss (``None`` is a
#: legitimate cached payload).
MISS = object()


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------
def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` env var > 1.

    ``jobs <= 0`` (from either source) means "one worker per core".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from None
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# ----------------------------------------------------------------------
# Canonical keys and per-cell seed derivation
# ----------------------------------------------------------------------
def canonical_key(obj: Any) -> str:
    """Deterministic string encoding of a (possibly nested) key.

    Supports the types experiment cells are built from: scalars, strings,
    tuples/lists, dicts (sorted), numpy scalars/arrays, and dataclasses
    (encoded as ``ClassName(fields)``).  Floats use ``repr`` — the shortest
    round-trip representation, identical across processes and platforms —
    so the same parameters always hash the same.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return f"{type(obj).__name__}({canonical_key(dataclasses.asdict(obj))})"
    if obj is None or isinstance(obj, bool):
        return repr(obj)
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_key(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_key(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((canonical_key(k), canonical_key(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    raise TypeError(f"cannot build a canonical key from {type(obj).__name__}")


def cell_digest(*parts: Any) -> str:
    """sha256 hex digest of the canonical encoding of ``parts``."""
    return hashlib.sha256(canonical_key(parts).encode("utf-8")).hexdigest()


def seed_for_cell(base_seed: int, *cell_key: Any) -> np.random.SeedSequence:
    """A :class:`~numpy.random.SeedSequence` unique to ``(base_seed, cell_key)``.

    The cell key is folded into the ``spawn_key`` (the mechanism
    ``SeedSequence.spawn`` itself uses), so streams for different cells are
    statistically independent, and the stream for a given cell is identical
    no matter which process draws it or how many cells ran before it.
    """
    digest = hashlib.sha256(canonical_key(cell_key).encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.SeedSequence(entropy=int(base_seed), spawn_key=words)


def rng_for_cell(base_seed: int, *cell_key: Any) -> np.random.Generator:
    """A generator seeded by :func:`seed_for_cell`."""
    return np.random.default_rng(seed_for_cell(base_seed, *cell_key))


# ----------------------------------------------------------------------
# On-disk result cache
# ----------------------------------------------------------------------
@dataclass
class ResultCache:
    """Content-keyed JSON result cache under ``root``.

    Entries live at ``root/<namespace>/<digest>.json`` and store both the
    canonical key string and the payload; the key string is re-checked on
    load, so a (vanishingly unlikely) digest collision or a stale file
    written by other code degrades to a miss, never to wrong results.

    Entries are written through :mod:`repro.durability`: atomic
    temp-write + rename + fsync, framed with a checksum envelope.  A
    checksum failure on load quarantines the entry as ``*.corrupt`` and
    misses — the cell recomputes; a damaged entry is never served.
    Pre-envelope (legacy) entries remain readable.
    """

    root: Path

    #: ``*.tmp`` files older than this are fair game for :meth:`prune_tmp`
    #: (young ones may belong to a concurrent ``store`` in flight).
    TMP_MAX_AGE_S = 3600.0

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @classmethod
    def default(cls) -> "ResultCache":
        """The cache at ``REPRO_CACHE_DIR`` (default ``.repro_cache``).

        Also prunes orphaned temp files so crash droppings never
        accumulate across runs.
        """
        cache = cls(Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)))
        cache.prune_tmp()
        return cache

    # ------------------------------------------------------------------
    def _key_string(self, namespace: str, key: Any) -> str:
        return canonical_key((namespace, key))

    def path_for(self, namespace: str, key: Any) -> Path:
        """Where the entry for ``(namespace, key)`` lives on disk."""
        digest = hashlib.sha256(self._key_string(namespace, key).encode("utf-8")).hexdigest()
        return self.root / namespace / f"{digest}.json"

    def get(self, namespace: str, key: Any) -> Any:
        """The cached payload, or :data:`MISS`.

        Checksum-corrupt entries are quarantined as ``*.corrupt``;
        unreadable or mismatched ones are deleted — either way the call
        misses and the caller transparently recomputes.
        """
        path = self.path_for(namespace, key)
        try:
            data = durability.read_json_artifact(path, kind="cache-entry")
        except FileNotFoundError:
            self._count(namespace, hit=False)
            return MISS
        except durability.CorruptArtifactError:
            # Already quarantined as *.corrupt by the reader — keep the
            # evidence for `repro fsck`, recompute the cell.
            observe.inc("cache.corrupt_quarantined")
            self._count(namespace, hit=False)
            return MISS
        except (OSError, UnicodeDecodeError):
            self._discard(path)
            self._count(namespace, hit=False)
            return MISS
        if (
            not isinstance(data, dict)
            or "payload" not in data
            or data.get("key") != self._key_string(namespace, key)
        ):
            self._discard(path)
            self._count(namespace, hit=False)
            return MISS
        self._count(namespace, hit=True)
        return data["payload"]

    @staticmethod
    def _count(namespace: str, hit: bool) -> None:
        kind = "hits" if hit else "misses"
        observe.inc(f"cache.{kind}")
        observe.inc(f"cache.{kind}.{namespace}")

    def store(self, namespace: str, key: Any, payload: Any) -> Path:
        """Durably persist ``payload`` (must be JSON-serialisable).

        Atomic (temp + rename + fsync) and checksummed, so a crash
        mid-store leaves the old entry (or none) and a later bit flip is
        detected on load instead of being served as a result.
        """
        return durability.write_json_artifact(
            self.path_for(namespace, key),
            {"key": self._key_string(namespace, key), "payload": payload},
            kind="cache-entry",
            indent=None,
            mkdir=True,
        )

    def prune_tmp(self, max_age_s: float | None = None) -> int:
        """Delete orphaned ``*.tmp`` files older than ``max_age_s`` seconds.

        :meth:`store` writes through a temp file and renames it into
        place; a process SIGKILLed between the two leaves the temp file
        behind forever.  Called from :meth:`default` and from sweep start
        so the droppings never pile up.  Returns the number removed.
        """
        if max_age_s is None:
            max_age_s = self.TMP_MAX_AGE_S
        if not self.root.is_dir():
            return 0
        # st_mtime comparison is inherently wall-clock; never feeds
        # experiment state.
        cutoff = time.time() - max_age_s  # lint: allow
        removed = 0
        for tmp in self.root.glob("**/*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        if removed:
            observe.inc("cache.tmp_pruned", removed)
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Fault policy, failures, deterministic backoff
# ----------------------------------------------------------------------
_ON_ERROR_MODES = ("raise", "retry", "skip")


@dataclass(frozen=True)
class FaultPolicy:
    """How :func:`map_cells` treats failing cells (see module docstring).

    ``max_retries`` bounds *extra* attempts after an exception or timeout
    (a cell runs at most ``max_retries + 1`` times); ``max_kills``
    separately bounds how many times a cell may be in flight when the
    worker pool dies before it is quarantined — kills are budgeted apart
    from exceptions because a pool crash also charges innocent bystander
    cells that merely shared the pool with the killer.
    ``cell_timeout`` is wall-clock seconds per attempt, enforced only for
    ``jobs > 1`` (a hung in-process call cannot be interrupted).
    Backoff before attempt *k* is ``min(cap, base * 2**(k-1))`` scaled by
    a jitter factor in [0.5, 1.0] derived from the cell digest — fully
    deterministic, no wall-clock randomness.
    """

    max_retries: int = 2
    cell_timeout: float | None = None
    on_error: str = "raise"
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    max_kills: int = 2

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {_ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.max_kills < 0:
            raise ValueError(f"max_kills must be >= 0, got {self.max_kills!r}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {self.cell_timeout!r}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must be >= 0")


@dataclass
class CellFailure:
    """Structured record of a cell that exhausted its failure budget.

    Appears in ``map_cells`` results (in the failed cell's slot) under
    ``on_error="skip"``, and for quarantined worker-killing cells under
    ``on_error="retry"``; carried by :class:`SweepError` otherwise.
    """

    cell: Any
    digest: str
    attempts: int
    cause: str  # "exception" | "timeout" | "worker-lost"
    error: str
    traceback: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"CellFailure({self.cause} after {self.attempts} attempt(s), "
            f"cell={self.cell!r}: {self.error})"
        )


class SweepError(RuntimeError):
    """A sweep aborted because a cell exhausted its failure budget."""

    def __init__(self, failure: CellFailure):
        self.failure = failure
        super().__init__(str(failure))


def backoff_delay(policy: FaultPolicy, digest: str, attempt: int) -> float:
    """Deterministic capped-exponential delay before re-dispatching.

    The jitter factor (uniform in [0.5, 1.0]) comes from hashing
    ``(digest, attempt)``, so the same cell backs off identically on
    every run — retried sweeps stay bit-for-bit reproducible.
    """
    if policy.backoff_base_s <= 0:
        return 0.0
    raw = min(policy.backoff_cap_s, policy.backoff_base_s * 2 ** max(0, attempt - 1))
    h = hashlib.sha256(f"backoff:{digest}:{attempt}".encode("utf-8")).digest()
    jitter = 0.5 + 0.5 * int.from_bytes(h[:8], "little") / 2**64
    return raw * jitter


# ----------------------------------------------------------------------
# Ambient (default) fault policy
# ----------------------------------------------------------------------
_default_policy = FaultPolicy()


def get_fault_policy() -> FaultPolicy:
    """The policy ``map_cells`` uses when not given an explicit one."""
    return _default_policy


def set_fault_policy(policy: FaultPolicy) -> FaultPolicy:
    """Install ``policy`` as the ambient default; returns the previous one."""
    global _default_policy
    previous = _default_policy
    _default_policy = policy
    return previous


@contextmanager
def use_fault_policy(policy: FaultPolicy) -> Iterator[FaultPolicy]:
    """Temporarily install ``policy`` as the ambient default.

    This is how the experiment runner applies one CLI-configured policy
    to every sweep of a run without threading it through each signature.
    """
    previous = set_fault_policy(policy)
    try:
        yield policy
    finally:
        set_fault_policy(previous)


# ----------------------------------------------------------------------
# The fan-out primitive
# ----------------------------------------------------------------------
def _attempt_cell(
    fn: Callable[[T], R],
    injector: "faults.FaultInjector | None",
    digest: str,
    attempt: int,
    cell: T,
) -> tuple[R, dict]:
    """Run one attempt of one cell under a private metrics registry.

    Returns ``(result, metrics_snapshot)``; the caller merges the
    snapshot only on success, so a failed attempt contributes nothing to
    the run's counters and retried sweeps aggregate exactly like clean
    ones.  Used identically in-process (``jobs=1``) and in workers.
    """
    registry = observe.MetricsRegistry()
    with observe.use_registry(registry):
        if injector is not None:
            injector.fire(digest, attempt)
        result = fn(cell)
    return result, registry.snapshot()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: terminate workers, then release resources.

    Used when workers are hung (a plain ``shutdown`` would join them
    forever) or the pool is already broken.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class _Dispatcher:
    """Incremental futures-based executor for one ``map_cells`` batch.

    Owns the retry/timeout/pool-recovery state machine; ``results`` and
    checkpointing are shared with the caller through callbacks so the
    serial and pooled paths report identically.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        cells: Sequence[Any],
        pending: Sequence[int],
        digests: dict[int, str],
        policy: FaultPolicy,
        injector: "faults.FaultInjector | None",
        jobs: int,
        results: list[Any],
        checkpoint: Callable[[int, Any], None],
    ) -> None:
        self.fn = fn
        self.cells = cells
        self.digests = digests
        self.policy = policy
        self.injector = injector
        self.max_workers = min(jobs, len(pending))
        self.results = results
        self.checkpoint = checkpoint
        self.registry = observe.get_registry()
        self.prefix = self.registry.current_path()
        self.ready: deque[int] = deque(pending)
        self.delayed: list[tuple[float, int]] = []  # (not-before, index)
        self.attempts = {i: 0 for i in pending}  # dispatch count (1-based)
        self.fails = {i: 0 for i in pending}  # exception + timeout charges
        self.kills = {i: 0 for i in pending}  # pool-death charges
        self.inflight: dict[Any, int] = {}  # Future -> index
        self.deadlines: dict[Any, float | None] = {}  # Future -> deadline

    # -- outcome handling ----------------------------------------------
    def _complete(self, index: int, result: Any, snapshot: dict) -> None:
        self.registry.merge(snapshot, span_prefix=self.prefix)
        self.results[index] = result
        observe.inc("parallel.cells_computed")
        self.checkpoint(index, result)

    def _resolve_failure(
        self, index: int, cause: str, error: str, tb: str, exc: BaseException | None
    ) -> None:
        """A cell is out of budget: skip it, quarantine it, or abort."""
        failure = CellFailure(
            cell=self.cells[index],
            digest=self.digests[index],
            attempts=self.attempts[index],
            cause=cause,
            error=error,
            traceback=tb,
        )
        observe.inc("parallel.failures")
        quarantine = cause == "worker-lost" and self.policy.on_error == "retry"
        if self.policy.on_error == "skip" or quarantine:
            self.results[index] = failure
            return
        raise SweepError(failure) from exc

    def _charge(
        self, index: int, cause: str, error: str, tb: str, exc: BaseException | None = None
    ) -> None:
        """Record one failed attempt; requeue with backoff or resolve."""
        if self.policy.on_error == "raise":
            if cause == "exception" and exc is not None:
                raise exc
            self._resolve_failure(index, cause, error, tb, exc)
            return
        budget = self.kills if cause == "worker-lost" else self.fails
        limit = self.policy.max_kills if cause == "worker-lost" else self.policy.max_retries
        budget[index] += 1
        if budget[index] > limit:
            self._resolve_failure(index, cause, error, tb, exc)
            return
        observe.inc("parallel.retries")
        delay = backoff_delay(self.policy, self.digests[index], self.attempts[index])
        if delay > 0:
            self.delayed.append((time.monotonic() + delay, index))
        else:
            self.ready.append(index)

    # -- serial path ---------------------------------------------------
    def run_serial(self) -> None:
        """In-process execution: same accounting, no timeout enforcement."""
        while self.ready or self.delayed:
            if not self.ready:
                not_before, index = min(self.delayed)
                self.delayed.remove((not_before, index))
                pause = not_before - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                self.ready.append(index)
            index = self.ready.popleft()
            self.attempts[index] += 1
            try:
                result, snapshot = _attempt_cell(
                    self.fn,
                    self.injector,
                    self.digests[index],
                    self.attempts[index],
                    self.cells[index],
                )
            except Exception as exc:
                self._charge(
                    index, "exception", repr(exc), _traceback.format_exc(), exc=exc
                )
            else:
                self._complete(index, result, snapshot)

    # -- pooled path ---------------------------------------------------
    def _submit(self, pool: ProcessPoolExecutor, index: int) -> None:
        self.attempts[index] += 1
        future = pool.submit(
            _attempt_cell,
            self.fn,
            self.injector,
            self.digests[index],
            self.attempts[index],
            self.cells[index],
        )
        self.inflight[future] = index
        self.deadlines[future] = (
            time.monotonic() + self.policy.cell_timeout
            if self.policy.cell_timeout is not None
            else None
        )

    def _restart_pool(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        _kill_pool(pool)
        observe.inc("parallel.pool_restarts")
        return ProcessPoolExecutor(max_workers=self.max_workers)

    def _drain_lost_inflight(self, settle_s: float = 0.5) -> list[int]:
        """After pool breakage: salvage finished results, report the rest.

        Some in-flight futures may have completed before the pool died;
        their results are real and are kept.  Everything else is lost and
        must be charged / re-dispatched by the caller.
        """
        lost: list[int] = []
        remaining = set(self.inflight)
        if remaining:
            done, not_done = wait(remaining, timeout=settle_s)
            for future in done:
                index = self.inflight.pop(future)
                self.deadlines.pop(future, None)
                try:
                    result, snapshot = future.result()
                except BaseException:
                    lost.append(index)
                else:
                    self._complete(index, result, snapshot)
            for future in not_done:
                index = self.inflight.pop(future)
                self.deadlines.pop(future, None)
                lost.append(index)
        return lost

    def run_pool(self) -> None:
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        try:
            while self.ready or self.delayed or self.inflight:
                now = time.monotonic()
                due = [entry for entry in self.delayed if entry[0] <= now]
                for entry in due:
                    self.delayed.remove(entry)
                    self.ready.append(entry[1])

                broken = False
                lost: list[int] = []
                while self.ready and len(self.inflight) < self.max_workers:
                    index = self.ready.popleft()
                    try:
                        self._submit(pool, index)
                    except BrokenProcessPool:
                        # The pool died without us having seen a failed
                        # future yet; undo the dispatch and recover below.
                        self.attempts[index] -= 1
                        self.ready.appendleft(index)
                        broken = True
                        break

                if not broken:
                    if not self.inflight:
                        if self.delayed:
                            next_due = min(entry[0] for entry in self.delayed)
                            time.sleep(max(0.0, next_due - time.monotonic()))
                        continue
                    timeout = None
                    wake_at = [d for d in self.deadlines.values() if d is not None]
                    wake_at += [entry[0] for entry in self.delayed]
                    if wake_at:
                        timeout = max(0.0, min(wake_at) - time.monotonic()) + 0.02
                    done, _ = wait(
                        set(self.inflight), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        index = self.inflight.pop(future)
                        self.deadlines.pop(future, None)
                        try:
                            result, snapshot = future.result()
                        except BrokenProcessPool:
                            broken = True
                            lost.append(index)
                        except Exception as exc:
                            self._charge(
                                index,
                                "exception",
                                repr(exc),
                                "".join(
                                    _traceback.format_exception(
                                        type(exc), exc, exc.__traceback__
                                    )
                                ),
                                exc=exc,
                            )
                        else:
                            self._complete(index, result, snapshot)

                if not broken and self.policy.cell_timeout is not None:
                    now = time.monotonic()
                    expired = {
                        future
                        for future, deadline in self.deadlines.items()
                        if deadline is not None and now >= deadline and future in self.inflight
                    }
                    if expired:
                        # A hung worker cannot be interrupted individually:
                        # kill the whole pool, charge the expired cells, and
                        # re-dispatch the innocent in-flight ones for free.
                        for future in list(self.inflight):
                            index = self.inflight.pop(future)
                            self.deadlines.pop(future, None)
                            if future in expired:
                                self._charge(
                                    index,
                                    "timeout",
                                    f"cell exceeded cell_timeout={self.policy.cell_timeout}s",
                                    "",
                                )
                            else:
                                self.ready.append(index)
                        pool = self._restart_pool(pool)

                if broken:
                    lost.extend(self._drain_lost_inflight())
                    pool = self._restart_pool(pool)
                    for index in lost:
                        self._charge(
                            index,
                            "worker-lost",
                            "worker process died while the cell was in flight "
                            "(BrokenProcessPool)",
                            "",
                        )
        finally:
            _kill_pool(pool)


def map_cells(
    fn: Callable[[T], R],
    cells: Iterable[T] | Sequence[T],
    *,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    namespace: str | None = None,
    key_extra: Any = None,
    policy: FaultPolicy | None = None,
    injector: "faults.FaultInjector | None" = None,
) -> list[R]:
    """Map ``fn`` over ``cells``; results in input order.

    ``jobs`` follows :func:`resolve_jobs`; with one worker (or one cell)
    the map runs in-process, so single-job runs are plain serial Python.
    With ``cache`` set, each cell is looked up under
    ``(key_extra, cell)`` in ``namespace`` first and stored *as it
    completes* — ``key_extra`` must carry everything besides the cell that
    determines the result (grid, seed, version tag, ...).  Cached results
    must therefore be JSON-serialisable.  Because checkpointing is
    incremental, an interrupted sweep re-run with the same cache skips
    every finished cell and recomputes only the rest.

    ``policy`` (default: the ambient :func:`get_fault_policy`) governs
    retries, per-cell timeouts, and pool-crash recovery; failed cells
    surface per ``policy.on_error`` as raised exceptions,
    :class:`SweepError`, or in-place :class:`CellFailure` entries.
    Failed results are never written to the cache.  ``injector``
    (default: :func:`repro.faults.from_env`, i.e. ``REPRO_FAULTS``)
    deterministically injects faults for testing.

    ``fn`` and the cells must be picklable for ``jobs > 1`` (module-level
    functions, ``functools.partial`` over them, plain-data cells).
    """
    cells = list(cells)
    jobs = resolve_jobs(jobs)
    if policy is None:
        policy = get_fault_policy()
    if injector is None:
        injector = faults.from_env()
    if cache is not None and namespace is None:
        raise ValueError("map_cells needs a namespace when a cache is given")

    with observe.span("map_cells"):
        observe.gauge("parallel.jobs", jobs)
        observe.inc("parallel.map_cells.calls")
        observe.inc("parallel.cells_total", len(cells))

        results: list[Any] = [MISS] * len(cells)
        if cache is not None:
            for i, cell in enumerate(cells):
                results[i] = cache.get(namespace, (key_extra, cell))
        pending = [i for i, r in enumerate(results) if r is MISS]

        if pending:
            digests = {i: cell_digest(cells[i]) for i in pending}

            def checkpoint(index: int, result: Any) -> None:
                if cache is not None:
                    cache.store(namespace, (key_extra, cells[index]), result)
                    observe.inc("parallel.cells_checkpointed")

            dispatcher = _Dispatcher(
                fn, cells, pending, digests, policy, injector, jobs, results, checkpoint
            )
            if jobs == 1 or len(pending) == 1:
                dispatcher.run_serial()
            else:
                dispatcher.run_pool()
    return results
