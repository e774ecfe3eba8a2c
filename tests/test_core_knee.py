"""Tests for turn-around curves and knee detection."""

import numpy as np
import pytest

import repro.observe as observe
from repro.core.knee import (
    PrefixRCFactory,
    TurnaroundCurve,
    knee_from_curve,
    rc_size_grid,
    sweep_turnaround,
)
from repro.dag.workflows import chain_dag, scec_dag
from repro.scheduling.costmodel import DEFAULT_COST_MODEL


def _curve(sizes, turn):
    t = np.asarray(turn, dtype=float)
    return TurnaroundCurve(np.asarray(sizes), t, t, np.zeros_like(t), "mcp")


def test_grid_contains_endpoints():
    g = rc_size_grid(100)
    assert g[0] == 1
    assert g[-1] == 100
    assert np.all(np.diff(g) > 0)


def test_grid_dense_at_bottom():
    g = rc_size_grid(200)
    assert set(range(1, 17)) <= set(g.tolist())


def test_grid_single_size():
    assert list(rc_size_grid(1)) == [1]
    assert list(rc_size_grid(3)) == [1, 2, 3]


def test_grid_validation():
    with pytest.raises(ValueError):
        rc_size_grid(0)


def test_curve_validation():
    with pytest.raises(ValueError):
        _curve([3, 2], [1.0, 2.0])  # not increasing
    with pytest.raises(ValueError):
        TurnaroundCurve(np.array([1]), np.array([1.0]), np.array([1.0]), np.array([]), "x")


def test_curve_best():
    c = _curve([1, 2, 4, 8], [10.0, 6.0, 5.0, 5.5])
    assert c.best_turnaround == 5.0
    assert c.best_size == 4
    assert c.at_size(3) == 6.0 or c.at_size(3) == 5.0  # nearest sample


def test_knee_monotone_decreasing():
    c = _curve([1, 2, 4, 8, 16], [100.0, 60.0, 40.0, 39.99, 39.98])
    # Beyond 4 the improvement is < 0.1 %.
    assert knee_from_curve(c, 0.001) == 4


def test_knee_u_shape():
    c = _curve([1, 2, 4, 8, 16], [100.0, 50.0, 30.0, 32.0, 35.0])
    assert knee_from_curve(c, 0.001) == 4


def test_knee_flat_curve():
    c = _curve([1, 2, 4], [10.0, 10.0, 10.0])
    assert knee_from_curve(c) == 1


def test_knee_threshold_monotone():
    c = _curve([1, 2, 4, 8, 16, 32], [100.0, 52.0, 30.0, 25.0, 24.0, 23.9])
    knees = [knee_from_curve(c, t) for t in (0.001, 0.01, 0.05, 0.10)]
    assert knees == sorted(knees, reverse=True)


def test_knee_threshold_validation():
    c = _curve([1, 2], [2.0, 1.0])
    with pytest.raises(ValueError):
        knee_from_curve(c, 1.5)


def test_prefix_factory_nested():
    f = PrefixRCFactory(16, heterogeneity=0.4, seed=3)
    rc4 = f(4)
    rc8 = f(8)
    np.testing.assert_allclose(rc8.speed[:4], rc4.speed)
    with pytest.raises(ValueError):
        f(17)
    with pytest.raises(ValueError):
        f(0)


def test_prefix_factory_homogeneous():
    f = PrefixRCFactory(8, mean_speed=2.0)
    assert np.all(f(5).speed == 2.0)


def test_sweep_scec_knee_at_chain_count():
    """SCEC parallel chains: the knee equals the number of chains (§V.3.4)."""
    dag = scec_dag(chains=6, chain_length=8, comp_cost=50.0, comm_cost=1.0)
    curve = sweep_turnaround(dag, rc_size_grid(12), "mcp")
    assert knee_from_curve(curve) == 6


def test_sweep_chain_knee_is_one():
    dag = chain_dag(20, comp_cost=10.0, comm_cost=5.0)
    curve = sweep_turnaround(dag, rc_size_grid(8), "mcp")
    assert knee_from_curve(curve) == 1


def test_sweep_records_components(medium_dag):
    curve = sweep_turnaround(medium_dag, [1, 4, 16], "mcp")
    np.testing.assert_allclose(
        curve.turnaround, curve.makespan + curve.scheduling_time
    )
    assert curve.heuristic == "mcp"


def test_sweep_deduplicates_sizes(medium_dag):
    curve = sweep_turnaround(medium_dag, [4, 4, 2, 2, 1], "greedy")
    assert list(curve.sizes) == [1, 2, 4]


def test_sweep_makespan_dominated_by_work(medium_dag):
    curve = sweep_turnaround(medium_dag, [1], "mcp")
    assert curve.makespan[0] == pytest.approx(medium_dag.total_work())


def _lazy(dag, sizes, heuristic, factory=None, *, within):
    """A ``within`` sweep and the ``knee.sweep_points`` it counted."""
    with observe.use_registry(observe.MetricsRegistry()) as reg:
        curve = sweep_turnaround(dag, sizes, heuristic, factory, within=within)
    return curve, reg.snapshot()["counters"]["knee.sweep_points"]


def _assert_prefix(lazy, full):
    n = lazy.sizes.shape[0]
    for field in ("sizes", "turnaround", "makespan", "scheduling_time"):
        assert getattr(lazy, field).tolist() == getattr(full, field)[:n].tolist()


def test_sweep_within_stops_at_the_first_size_that_meets_it(medium_dag):
    sizes = rc_size_grid(40)
    full = sweep_turnaround(medium_dag, sizes, "greedy")
    within = float(full.turnaround[6])
    first = int(np.flatnonzero(full.turnaround <= within)[0])
    lazy, points = _lazy(medium_dag, sizes, "greedy", within=within)
    _assert_prefix(lazy, full)
    assert lazy.sizes.shape[0] == points == first + 1


@pytest.mark.parametrize("heuristic", ["mcp", "fca"])
def test_sweep_within_stops_at_the_first_schedule_leaving_a_host_idle(heuristic):
    # Six chains never occupy a seventh host, so from size 7 on every
    # schedule is the one at size 7, at a higher scheduling cost.
    dag = scec_dag(chains=6, chain_length=8, comp_cost=50.0, comm_cost=1.0)
    sizes = rc_size_grid(12)
    full = sweep_turnaround(dag, sizes, heuristic)
    lazy, points = _lazy(dag, sizes, heuristic, within=0.0)
    _assert_prefix(lazy, full)
    assert lazy.sizes.tolist() == list(range(1, 8)) and points == 7
    assert (lazy.best_size, lazy.best_turnaround) == (full.best_size, full.best_turnaround)


@pytest.mark.parametrize(
    "heuristic, factory",
    [("dls", None), ("greedy", None), ("mcp", PrefixRCFactory(12, heterogeneity=0.3))],
)
def test_sweep_within_keeps_sweeping_where_an_idle_host_proves_nothing(heuristic, factory):
    dag = scec_dag(chains=6, chain_length=8, comp_cost=50.0, comm_cost=1.0)
    sizes = rc_size_grid(12)
    full = sweep_turnaround(dag, sizes, heuristic, factory)
    lazy, points = _lazy(dag, sizes, heuristic, factory, within=0.0)
    _assert_prefix(lazy, full)
    assert lazy.sizes.shape[0] == points == sizes.shape[0]
