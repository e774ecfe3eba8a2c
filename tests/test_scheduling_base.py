"""Tests for the shared scheduler machinery (EST computation, state)."""

import numpy as np
import pytest

from repro.dag.graph import dag_from_edges
from repro.dag.random_dag import RandomDagSpec, generate_random_dag
from repro.resources.collection import ResourceCollection
from repro.scheduling.base import SchedulerState, log2ceil


def _brute_force_ready(dag, rc, state, v):
    """Reference EST computation, one host at a time, with the same float
    operations as the scheduler (so results are compared exactly)."""
    p = rc.n_hosts
    ready = np.zeros(p)
    for h in range(p):
        t = 0.0
        for e in dag.in_edges(v):
            u = int(dag.edge_src[e])
            arr = state.finish[u] + rc.comm_time(float(dag.edge_comm[e]), int(state.host[u]), h)
            t = max(t, arr)
        ready[h] = t
    return ready


@pytest.mark.parametrize("het_net", [False, True])
def test_data_ready_all_hosts_matches_brute_force(rng, het_net):
    dag = generate_random_dag(
        RandomDagSpec(size=40, ccr=1.0, parallelism=0.5, regularity=0.5, density=0.8),
        rng,
    )
    if het_net:
        factor = np.array([[1.0, 4.0, 16.0], [4.0, 1.0, 8.0], [16.0, 8.0, 1.0]])
        rc = ResourceCollection(
            speed=np.ones(9),
            cluster=np.repeat(np.arange(3), 3),
            comm_factor=factor,
        )
    else:
        rc = ResourceCollection.homogeneous(9)
    state = SchedulerState(dag, rc)
    # Place tasks in topological order on pseudo-random hosts, checking the
    # vectorised ready computation against brute force at every step.
    hosts = rng.integers(0, rc.n_hosts, size=dag.n)
    for v in dag.topo_order:
        ready = state.data_ready_all_hosts(int(v))
        expected = _brute_force_ready(dag, rc, state, int(v))
        np.testing.assert_array_equal(ready, expected)
        h = int(hosts[v])
        start = max(ready[h], state.avail[h])
        state.place(int(v), h, start)


def test_data_ready_on_host_consistent(rng, networked_rc):
    dag = generate_random_dag(
        RandomDagSpec(size=30, ccr=0.8, parallelism=0.5, regularity=0.5), rng
    )
    state = SchedulerState(dag, networked_rc)
    hosts = rng.integers(0, networked_rc.n_hosts, size=dag.n)
    for v in dag.topo_order:
        all_hosts = state.data_ready_all_hosts(int(v))
        for h in (0, 3, 5, 7):
            assert state.data_ready_on_host(int(v), h) == all_hosts[h]
        h = int(hosts[v])
        state.place(int(v), h, max(all_hosts[h], state.avail[h]))


def test_entry_task_ready_everywhere(diamond_dag, rc8):
    state = SchedulerState(diamond_dag, rc8)
    assert np.all(state.data_ready_all_hosts(0) == 0.0)
    assert state.data_ready_on_host(0, 3) == 0.0


def test_place_updates_state(diamond_dag, rc8):
    state = SchedulerState(diamond_dag, rc8)
    state.place(0, 2, 1.0)
    assert state.host[0] == 2
    assert state.start[0] == 1.0
    assert state.finish[0] == pytest.approx(5.0)  # comp 4.0 / speed 1.0
    assert state.avail[2] == pytest.approx(5.0)


def test_place_respects_speed(diamond_dag):
    rc = ResourceCollection.homogeneous(2, speed=2.0)
    state = SchedulerState(diamond_dag, rc)
    state.place(0, 0, 0.0)
    assert state.finish[0] == pytest.approx(2.0)


def test_best_finish_colocates_to_avoid_transfer():
    # Host 0 is busy until t=1, but the data only arrives on any other host
    # at t=11: finishing soonest means co-locating with the parent.
    dag = dag_from_edges([1.0, 1.0], [(0, 1, 10.0)])
    rc = ResourceCollection.homogeneous(3)
    state = SchedulerState(dag, rc)
    state.place(0, 0, 0.0)
    h_fin, start_fin = state.best_finish_host(1)
    assert h_fin == 0  # co-location avoids the 10 s transfer
    assert start_fin == pytest.approx(1.0)


@pytest.mark.parametrize("het_net", [False, True])
def test_best_finish_host_is_the_first_brute_force_argmin(rng, het_net):
    # Unit costs and no communication on identical hosts: every empty host
    # ties, so the rule must pick the first of them, as argmin does.
    shape = generate_random_dag(
        RandomDagSpec(size=40, ccr=0.0, parallelism=0.6, regularity=0.5, density=0.8), rng
    )
    dag = dag_from_edges(
        np.ones(shape.n), zip(shape.edge_src.tolist(), shape.edge_dst.tolist(), [0.0] * shape.m)
    )
    if het_net:
        rc = ResourceCollection(
            speed=np.ones(6), cluster=np.repeat(np.arange(3), 2), comm_factor=np.eye(3) + 1.0
        )
    else:
        rc = ResourceCollection.homogeneous(6)
    state = SchedulerState(dag, rc)
    for v in dag.topo_order:
        v = int(v)
        ready = _brute_force_ready(dag, rc, state, v)
        start = [max(ready[h], state.avail[h]) for h in range(rc.n_hosts)]
        finish = [start[h] + dag.comp[v] / rc.speed[h] for h in range(rc.n_hosts)]
        expected = min(range(rc.n_hosts), key=finish.__getitem__)
        assert state.best_finish_host(v) == (expected, start[expected])
        state.place(v, expected, start[expected])
    assert len(set(state.host.tolist())) > 1


def test_parents_sharing_host():
    # Both parents on host 0: ready on host 0 = max parent finish.
    dag = dag_from_edges([2.0, 3.0, 1.0], [(0, 2, 50.0), (1, 2, 50.0)])
    rc = ResourceCollection.homogeneous(2)
    state = SchedulerState(dag, rc)
    state.place(0, 0, 0.0)
    state.place(1, 0, 2.0)
    ready = state.data_ready_all_hosts(2)
    assert ready[0] == pytest.approx(5.0)
    assert ready[1] == pytest.approx(55.0)


def test_top_arrival_from_a_host_holding_two_parents():
    # Parents 0 and 1 on host 0 arrive elsewhere at 1 + 20 and 4 + 10,
    # parent 2 on host 1 at 3 + 5.  Host 0 must see only host 1's arrival,
    # not its own second-largest one, next to its own parents' finish, 4.
    dag = dag_from_edges(
        [1.0, 3.0, 3.0, 1.0], [(0, 3, 20.0), (1, 3, 10.0), (2, 3, 5.0)]
    )
    rc = ResourceCollection.homogeneous(3)
    state = SchedulerState(dag, rc)
    state.place(0, 0, 0.0)
    state.place(1, 0, 1.0)
    state.place(2, 1, 0.0)
    ready = state.data_ready_all_hosts(3)
    np.testing.assert_array_equal(ready, [8.0, 21.0, 21.0])
    np.testing.assert_array_equal(ready, _brute_force_ready(dag, rc, state, 3))
    assert [state.data_ready_on_host(3, h) for h in range(3)] == [8.0, 21.0, 21.0]
    assert state.best_finish_host(3) == (0, 8.0)


def test_log2ceil():
    assert log2ceil(1) == 1.0
    assert log2ceil(2) == 1.0
    assert log2ceil(1024) == 10.0
