"""Tests for the parallel experiment engine (:mod:`repro.parallel`):
worker-count-independent determinism, per-cell seeding, and the
content-keyed on-disk result cache."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core.size_model import ObservationGrid, build_observation_knees
from repro.parallel import (
    MISS,
    ResultCache,
    canonical_key,
    cell_digest,
    map_cells,
    resolve_jobs,
    rng_for_cell,
    seed_for_cell,
)

# A deliberately tiny observation grid: enough cells to exercise the pool,
# small enough to sweep in well under a second per cell.
MICRO_GRID = ObservationGrid(
    sizes=(20, 40),
    ccrs=(0.1,),
    parallelisms=(0.4, 0.7),
    regularities=(0.2,),
    instances=1,
    thresholds=(0.01,),
)


# ----------------------------------------------------------------------
# resolve_jobs
# ----------------------------------------------------------------------
def test_resolve_jobs_explicit_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5


def test_resolve_jobs_default_serial(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None) == 1


def test_resolve_jobs_zero_means_all_cores(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    import os

    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


# ----------------------------------------------------------------------
# canonical keys and per-cell seeds
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _Params:
    n: int
    ccr: float


def test_canonical_key_dict_order_insensitive():
    assert canonical_key({"a": 1, "b": 2.5}) == canonical_key({"b": 2.5, "a": 1})


def test_canonical_key_distinguishes_types_and_values():
    keys = {
        canonical_key(1),
        canonical_key(1.0),
        canonical_key("1"),
        canonical_key((1,)),
        canonical_key(_Params(1, 0.1)),
        canonical_key(_Params(1, 0.2)),
    }
    assert len(keys) == 6


def test_canonical_key_handles_numpy_scalars_and_arrays():
    assert canonical_key(np.int64(3)) == canonical_key(3)
    assert canonical_key(np.float64(0.1)) == canonical_key(0.1)
    assert canonical_key(np.array([1.0, 2.0])) == canonical_key([1.0, 2.0])


def test_canonical_key_rejects_unkeyable_objects():
    with pytest.raises(TypeError):
        canonical_key(object())


def test_cell_digest_is_stable_hex():
    d = cell_digest("observation-knees", _Params(20, 0.1))
    assert d == cell_digest("observation-knees", _Params(20, 0.1))
    assert len(d) == 64 and int(d, 16) >= 0


def test_seed_for_cell_varies_with_cell_and_base_seed():
    s = seed_for_cell(0, "sweep", 20, 0.1)
    assert seed_for_cell(0, "sweep", 20, 0.1).entropy == s.entropy
    assert seed_for_cell(0, "sweep", 20, 0.1).spawn_key == s.spawn_key
    assert seed_for_cell(0, "sweep", 40, 0.1).spawn_key != s.spawn_key
    assert seed_for_cell(1, "sweep", 20, 0.1).entropy != s.entropy


def test_rng_for_cell_reproducible_stream():
    a = rng_for_cell(3, "x", 1).uniform(size=4)
    b = rng_for_cell(3, "x", 1).uniform(size=4)
    c = rng_for_cell(4, "x", 1).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ----------------------------------------------------------------------
# map_cells determinism across worker counts
# ----------------------------------------------------------------------
def _noisy_cell(cell, base_seed=0):
    # Module-level so the process pool can pickle it.
    rng = rng_for_cell(base_seed, "noisy", cell)
    return {"cell": cell, "draw": float(rng.uniform())}


def test_map_cells_serial_equals_parallel():
    cells = list(range(12))
    serial = map_cells(_noisy_cell, cells, jobs=1)
    parallel = map_cells(_noisy_cell, cells, jobs=4)
    assert serial == parallel
    assert [r["cell"] for r in serial] == cells  # input order preserved


def test_map_cells_empty_input():
    assert map_cells(_noisy_cell, [], jobs=4) == []


def test_observation_knees_identical_for_any_worker_count():
    # The ported hot sweep must produce bit-identical tables at any -j.
    j1 = build_observation_knees(MICRO_GRID, seed=0, jobs=1)
    j4 = build_observation_knees(MICRO_GRID, seed=0, jobs=4)
    assert j1 == j4


def test_observation_knees_seed_sensitivity():
    a = build_observation_knees(MICRO_GRID, seed=0, jobs=2)
    b = build_observation_knees(MICRO_GRID, seed=0, jobs=2)
    c = build_observation_knees(MICRO_GRID, seed=1, jobs=2)
    assert a == b
    assert a != c


# ----------------------------------------------------------------------
# Fault policy plumbing (the recovery paths themselves live in
# tests/test_faults.py)
# ----------------------------------------------------------------------
from repro.parallel import (  # noqa: E402
    FaultPolicy,
    backoff_delay,
    get_fault_policy,
    set_fault_policy,
    use_fault_policy,
)


def test_fault_policy_validation():
    with pytest.raises(ValueError):
        FaultPolicy(on_error="explode")
    with pytest.raises(ValueError):
        FaultPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        FaultPolicy(cell_timeout=0.0)
    with pytest.raises(ValueError):
        FaultPolicy(max_kills=-2)


def test_backoff_is_deterministic_capped_and_grows():
    policy = FaultPolicy(backoff_base_s=0.1, backoff_cap_s=0.5)
    digest = cell_digest("some-cell")
    first = backoff_delay(policy, digest, 1)
    assert first == backoff_delay(policy, digest, 1)  # no wall-clock noise
    assert 0.05 <= first <= 0.1  # base * jitter in [0.5, 1.0]
    assert backoff_delay(policy, digest, 2) >= first
    assert backoff_delay(policy, digest, 10) <= 0.5  # capped
    assert backoff_delay(policy, cell_digest("other"), 1) != first  # per-cell jitter
    assert backoff_delay(FaultPolicy(backoff_base_s=0.0), digest, 3) == 0.0


def test_use_fault_policy_scopes_the_ambient_default():
    baseline = get_fault_policy()
    scoped = FaultPolicy(on_error="skip", max_retries=7)
    with use_fault_policy(scoped):
        assert get_fault_policy() is scoped
    assert get_fault_policy() is baseline


def test_set_fault_policy_returns_previous():
    baseline = get_fault_policy()
    new = FaultPolicy(on_error="retry")
    try:
        assert set_fault_policy(new) is baseline
        assert get_fault_policy() is new
    finally:
        set_fault_policy(baseline)

