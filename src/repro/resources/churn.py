"""Seeded resource churn: the dynamic platform of a high-load LSDE.

§II.2.3 motivates *integrated* selection-and-binding precisely because a
high-load environment races the user for hosts, and Chapter VII's
alternative-specification algorithm exists because the optimal request is
frequently unfulfillable.  This module supplies the dynamics both features
are designed against:

* **host failure / rejoin** — hosts drop out of the platform (node crash,
  maintenance) and return after a configurable delay;
* **competitor bindings** — other users grab blocks of hosts through the
  shared :class:`~repro.resources.binding.Binder` and hold them for a
  while, preferring the same fast clusters our generated specifications
  target (that is what makes the race contentious);
* **background load** — an initial busy-host set drawn with
  :func:`~repro.resources.binding.sample_busy_hosts`.

Everything is *virtual time* and *seeded*: a :class:`ChurnTrace` is a pure
function of ``(platform, ChurnConfig)``, with no wall-clock or global
randomness, so any churn trajectory replays bit-identically — the same
guarantee :mod:`repro.faults` gives the sweep executor.  The consumer
(:mod:`repro.selection.pipeline`) advances a :class:`ResourceChurn` state
machine along its own virtual clock; events strictly at or before the
clock are applied in timestamp order.

Spec strings (the CLI ``--churn`` flag) mirror ``REPRO_FAULTS``::

    fail=0.002,competitor=0.01,hold=300,size=8,rejoin=600,util=0.2,
    horizon=3600,seed=7

rates are events per virtual second; any subset of keys is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults import _parse_kv_spec
from repro.resources.binding import Binder, sample_busy_hosts
from repro.resources.platform import Platform

__all__ = [
    "ChurnEvent",
    "ChurnConfig",
    "ChurnTrace",
    "ResourceChurn",
    "generate_churn_trace",
    "inject_storm",
    "parse_churn_spec",
]


@dataclass(frozen=True)
class ChurnEvent:
    """One platform state change at a point in virtual time.

    ``kind`` is one of ``fail`` (hosts leave), ``join`` (failed hosts
    return), ``bind`` (a competitor grabs hosts) or ``release`` (a
    competitor lets go).  ``hosts`` are global platform host ids; ``ref``
    links a ``join``/``release`` back to the ``fail``/``bind`` that
    scheduled it.
    """

    time: float
    kind: str  # "fail" | "join" | "bind" | "release"
    hosts: tuple[int, ...]
    ref: int = -1

    def __post_init__(self) -> None:
        if self.kind not in ("fail", "join", "bind", "release"):
            raise ValueError(f"unknown churn event kind {self.kind!r}")
        if self.time < 0:
            raise ValueError("event time must be non-negative")


@dataclass(frozen=True)
class ChurnConfig:
    """Knobs of the seeded churn process (all rates per virtual second)."""

    #: Host-failure events per second (each fails one host).
    fail_rate: float = 0.0
    #: Seconds until a failed host rejoins (0 = never).
    rejoin_s: float = 600.0
    #: Competitor-binding events per second.
    competitor_rate: float = 0.0
    #: Hosts grabbed per competitor event.
    competitor_size: int = 8
    #: Seconds a competitor holds its hosts (0 = forever).
    competitor_hold_s: float = 300.0
    #: Background utilisation: fraction of hosts busy from t = 0.
    utilization: float = 0.0
    #: Length of the generated trace (events beyond it never happen).
    horizon_s: float = 3600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.fail_rate < 0 or self.competitor_rate < 0:
            raise ValueError("churn rates must be non-negative")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError("utilization must be within [0, 1]")
        if self.competitor_size < 1:
            raise ValueError("competitor_size must be >= 1")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")

    def with_seed(self, seed: int) -> "ChurnConfig":
        """A copy of this config under a different seed."""
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class ChurnTrace:
    """A fully materialised, time-sorted churn trajectory."""

    events: tuple[ChurnEvent, ...]
    busy_hosts: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if times != sorted(times):
            raise ValueError("churn events must be sorted by time")

    def failures_in(
        self, hosts: set[int], after: float, until: float
    ) -> ChurnEvent | None:
        """First ``fail`` event hitting ``hosts`` in ``(after, until]``."""
        for e in self.events:
            if e.time <= after:
                continue
            if e.time > until:
                return None
            if e.kind == "fail" and hosts.intersection(e.hosts):
                return e
        return None


def _poisson_times(rate: float, horizon: float, rng: np.random.Generator) -> list[float]:
    """Arrival times of a Poisson process on ``(0, horizon]``."""
    if rate <= 0:
        return []
    times: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t > horizon:
            return times
        times.append(t)


def generate_churn_trace(platform: Platform, config: ChurnConfig) -> ChurnTrace:
    """The deterministic churn trajectory for ``(platform, config)``.

    Failures hit uniformly random hosts; competitor bindings grab a block
    of hosts from a clock-rate-weighted random cluster (competitors want
    fast hosts too — that is what makes the binding race of §II.2.3
    contentious rather than incidental).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([int(config.seed) & 0x7FFFFFFF, platform.n_hosts])
    )
    busy = frozenset(sample_busy_hosts(platform, config.utilization, rng))

    events: list[ChurnEvent] = []
    ref = 0
    for t in _poisson_times(config.fail_rate, config.horizon_s, rng):
        host = int(rng.integers(platform.n_hosts))
        events.append(ChurnEvent(t, "fail", (host,), ref=ref))
        if config.rejoin_s > 0:
            events.append(ChurnEvent(t + config.rejoin_s, "join", (host,), ref=ref))
        ref += 1

    clocks = np.array([spec.clock_ghz for spec in platform.clusters])
    weights = clocks / clocks.sum()
    for t in _poisson_times(config.competitor_rate, config.horizon_s, rng):
        cid = int(rng.choice(platform.n_clusters, p=weights))
        members = platform.cluster_hosts(cid)
        k = min(config.competitor_size, members.size)
        grab = tuple(
            int(h) for h in rng.choice(members, size=k, replace=False)
        )
        events.append(ChurnEvent(t, "bind", grab, ref=ref))
        if config.competitor_hold_s > 0:
            events.append(
                ChurnEvent(t + config.competitor_hold_s, "release", grab, ref=ref)
            )
        ref += 1

    events.sort(key=lambda e: (e.time, e.ref, e.kind))
    return ChurnTrace(events=tuple(events), busy_hosts=busy)


@dataclass
class ResourceChurn:
    """Replayable platform dynamics over a shared :class:`Binder`.

    The state machine applies the trace's events as virtual time advances:
    ``fail`` moves hosts into :attr:`dead` (releasing any binding, ours or
    a competitor's — the local resource manager is gone), ``join`` revives
    them, ``bind``/``release`` move *free* hosts in and out of the shared
    binder on behalf of competitors.  :meth:`unavailable` is the whole
    banned set every selection and rebind reads.
    """

    platform: Platform
    trace: ChurnTrace
    binder: Binder

    now: float = 0.0
    dead: set[int] = field(default_factory=set)
    competitor_held: set[int] = field(default_factory=set)
    _cursor: int = 0

    @classmethod
    def from_config(
        cls, platform: Platform, config: ChurnConfig, binder: Binder | None = None
    ) -> "ResourceChurn":
        """Build the state machine from a config (trace generated here)."""
        return cls(
            platform=platform,
            trace=generate_churn_trace(platform, config),
            binder=binder if binder is not None else Binder(platform),
        )

    # ------------------------------------------------------------------
    def unavailable(self) -> set[int]:
        """Hosts no selection may return: dead, busy under background load,
        or bound in the shared binder (by us or a competitor)."""
        return self.dead | self.trace.busy_hosts | self.binder.bound_hosts

    def advance(self, to_time: float) -> list[ChurnEvent]:
        """Apply every event with ``time <= to_time``; return them."""
        if to_time < self.now:
            raise ValueError("churn time cannot move backwards")
        applied: list[ChurnEvent] = []
        events = self.trace.events
        while self._cursor < len(events) and events[self._cursor].time <= to_time:
            event = events[self._cursor]
            self._cursor += 1
            self._apply(event)
            applied.append(event)
        self.now = to_time
        return applied

    def next_failure(
        self, hosts: set[int], until: float
    ) -> ChurnEvent | None:
        """First not-yet-applied failure hitting ``hosts`` by ``until``."""
        return self.trace.failures_in(hosts, after=self.now, until=until)

    # ------------------------------------------------------------------
    def _apply(self, event: ChurnEvent) -> None:
        if event.kind == "fail":
            lost = set(event.hosts)
            self.dead |= lost
            # The host is gone: whoever held a binding loses it.
            self.binder.release(np.array(sorted(lost), dtype=np.int64))
            self.competitor_held -= lost
        elif event.kind == "join":
            self.dead -= set(event.hosts)
        elif event.kind == "bind":
            free = [
                h
                for h in event.hosts
                if h not in self.dead and not self.binder.is_bound(h)
            ]
            if free:
                self.binder.bind(np.array(sorted(free), dtype=np.int64))
                self.competitor_held |= set(free)
        else:  # release
            held = set(event.hosts) & self.competitor_held
            if held:
                self.binder.release(np.array(sorted(held), dtype=np.int64))
                self.competitor_held -= held


def inject_storm(
    trace: ChurnTrace,
    platform: Platform,
    at_s: float,
    n_hosts: int,
    seed: int,
) -> ChurnTrace:
    """Merge a correlated failure burst into ``trace`` at one instant.

    A *churn storm* — ``n_hosts`` distinct hosts all failing at ``at_s``
    with no rejoin — models the correlated outages (rack power loss,
    network partition) the chaos harness injects.  The victim set is a
    pure function of ``(seed, at_s, n_hosts, platform.n_hosts)``; the
    result is a new sorted :class:`ChurnTrace` sharing ``busy_hosts``.
    """
    if n_hosts <= 0:
        return trace
    if at_s < 0:
        raise ValueError("storm time must be non-negative")
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [int(seed) & 0x7FFFFFFF, platform.n_hosts, int(at_s * 1000) & 0x7FFFFFFF]
        )
    )
    k = min(int(n_hosts), platform.n_hosts)
    victims = sorted(int(h) for h in rng.choice(platform.n_hosts, size=k, replace=False))
    # Storm events get refs past any existing ref so sort order stays
    # stable and join/release pairings in the base trace are untouched.
    base_ref = max((e.ref for e in trace.events), default=-1) + 1
    storm = [
        ChurnEvent(float(at_s), "fail", (host,), ref=base_ref + i)
        for i, host in enumerate(victims)
    ]
    merged = sorted(
        list(trace.events) + storm, key=lambda e: (e.time, e.ref, e.kind)
    )
    return ChurnTrace(events=tuple(merged), busy_hosts=trace.busy_hosts)


# ----------------------------------------------------------------------
# Spec strings
# ----------------------------------------------------------------------
_SPEC_KEYS = {
    "fail": ("fail_rate", float),
    "rejoin": ("rejoin_s", float),
    "competitor": ("competitor_rate", float),
    "size": ("competitor_size", int),
    "hold": ("competitor_hold_s", float),
    "util": ("utilization", float),
    "horizon": ("horizon_s", float),
    "seed": ("seed", int),
}


def parse_churn_spec(spec: str) -> ChurnConfig:
    """Build a :class:`ChurnConfig` from a ``k=v,k=v`` spec string."""
    return ChurnConfig(**_parse_kv_spec(spec, _SPEC_KEYS, "churn"))  # type: ignore[arg-type]
