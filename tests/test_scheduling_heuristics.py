"""Tests for the scheduling heuristics: validity, replay agreement,
behavioural properties."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knee import PrefixRCFactory
from repro.dag.graph import DAG, dag_from_edges
from repro.dag.montage import montage_dag, montage_level_counts
from repro.dag.random_dag import RandomDagSpec, generate_random_dag
from repro.dag.workflows import chain_dag, fork_join_dag, scec_dag
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import get_scale
from repro.resources.collection import ResourceCollection
from repro.scheduling import (
    get_scheduler,
    list_schedulers,
    replay_schedule,
    schedule_dag,
    validate_schedule,
)
from repro.scheduling.base import SchedulerError

ALL = ("mcp", "greedy", "fcfs", "fca", "dls", "minmin", "random", "heft")
FAST = ("mcp", "greedy", "fcfs", "fca", "heft")


def test_registry_lists_all():
    names = list_schedulers()
    for h in ALL:
        assert h in names


def test_unknown_scheduler():
    with pytest.raises(SchedulerError):
        get_scheduler("does-not-exist")


@pytest.mark.parametrize("name", ALL)
def test_valid_and_tight_on_homogeneous(name, medium_dag, rc8):
    s = schedule_dag(name, medium_dag, rc8)
    assert validate_schedule(medium_dag, rc8, s) == []
    r = replay_schedule(medium_dag, rc8, s)
    np.testing.assert_allclose(r.start, s.start, atol=1e-9)
    np.testing.assert_allclose(r.finish, s.finish, atol=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_valid_on_heterogeneous_clock(name, medium_dag, het_rc):
    s = schedule_dag(name, medium_dag, het_rc)
    assert validate_schedule(medium_dag, het_rc, s) == []


@pytest.mark.parametrize("name", FAST)
def test_valid_on_heterogeneous_network(name, medium_dag, networked_rc):
    s = schedule_dag(name, medium_dag, networked_rc)
    assert validate_schedule(medium_dag, networked_rc, s) == []
    r = replay_schedule(medium_dag, networked_rc, s)
    np.testing.assert_allclose(r.makespan, s.makespan, atol=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_single_host_serialises(name):
    dag = chain_dag(10, comp_cost=2.0, comm_cost=1.0)
    rc = ResourceCollection.homogeneous(1)
    s = schedule_dag(name, dag, rc)
    # One host: no communication, pure sum of computation.
    assert s.makespan == pytest.approx(20.0)


@pytest.mark.parametrize("name", ALL)
def test_chain_never_benefits_from_hosts(name):
    dag = chain_dag(8, comp_cost=5.0, comm_cost=0.0)
    s1 = schedule_dag(name, dag, ResourceCollection.homogeneous(1))
    s8 = schedule_dag(name, dag, ResourceCollection.homogeneous(8))
    assert s8.makespan >= s1.makespan - 1e-9


def test_mcp_parallelises_fork_join():
    dag = fork_join_dag(6, comp_cost=10.0, comm_cost=0.1)
    s = schedule_dag("mcp", dag, ResourceCollection.homogeneous(6))
    # 6 parallel tasks on 6 hosts: makespan ~ 10 + 10 + 10 + small comm.
    assert s.makespan < 35.0
    assert s.hosts_used() >= 5


def test_scec_optimal_one_host_per_chain():
    dag = scec_dag(chains=4, chain_length=5, comp_cost=10.0, comm_cost=1.0)
    s = schedule_dag("mcp", dag, ResourceCollection.homogeneous(4))
    # Each chain serial on its own host: 5 * 10 = 50 (no comm if co-located).
    assert s.makespan == pytest.approx(50.0)


def test_mcp_colocates_to_save_communication():
    # Two tasks with a huge edge cost: better on the same host.
    dag = dag_from_edges([5.0, 5.0], [(0, 1, 100.0)])
    s = schedule_dag("mcp", dag, ResourceCollection.homogeneous(4))
    assert s.host[0] == s.host[1]
    assert s.makespan == pytest.approx(10.0)


def test_greedy_ignores_communication_when_choosing():
    dag = dag_from_edges([5.0, 5.0, 5.0], [(0, 2, 100.0), (1, 2, 0.0)])
    rc = ResourceCollection.homogeneous(3)
    s = schedule_dag("greedy", dag, rc)
    assert validate_schedule(dag, rc, s) == []


def test_fca_prefers_fast_hosts():
    dag = fork_join_dag(3, comp_cost=10.0, comm_cost=0.01)
    rc = ResourceCollection(
        speed=np.array([1.0, 1.0, 1.0, 4.0]),
        cluster=np.zeros(4, dtype=int),
        comm_factor=np.ones((1, 1)),
    )
    s = schedule_dag("fca", dag, rc)
    # The entry task must land on the fastest host.
    assert s.host[0] == 3


def test_fcfs_first_idle_host():
    dag = dag_from_edges([1.0, 1.0], [])
    rc = ResourceCollection.homogeneous(4)
    s = schedule_dag("fcfs", dag, rc)
    assert sorted(s.host.tolist()) == [0, 1]


def test_random_deterministic_by_seed(medium_dag, rc8):
    s1 = schedule_dag("random", medium_dag, rc8, seed=3)
    s2 = schedule_dag("random", medium_dag, rc8, seed=3)
    assert np.array_equal(s1.host, s2.host)
    s3 = schedule_dag("random", medium_dag, rc8, seed=4)
    assert not np.array_equal(s1.host, s3.host)


def test_mcp_beats_random(medium_dag):
    rc = ResourceCollection.homogeneous(16)
    mcp = schedule_dag("mcp", medium_dag, rc)
    rnd = schedule_dag("random", medium_dag, rc)
    assert mcp.makespan <= rnd.makespan


def test_dls_uses_fast_hosts_under_heterogeneity(rng):
    dag = generate_random_dag(
        RandomDagSpec(size=60, ccr=0.1, parallelism=0.5, regularity=0.5), rng
    )
    rc = ResourceCollection.heterogeneous_clock(8, 0.5, rng)
    dls = schedule_dag("dls", dag, rc)
    fcfs = schedule_dag("fcfs", dag, rc)
    assert dls.makespan <= fcfs.makespan * 1.05


def test_ops_counted(medium_dag, rc8):
    for name in ALL:
        s = schedule_dag(name, medium_dag, rc8)
        assert s.ops > 0


def test_mcp_ops_scale_with_hosts(medium_dag):
    s8 = schedule_dag("mcp", medium_dag, ResourceCollection.homogeneous(8))
    s64 = schedule_dag("mcp", medium_dag, ResourceCollection.homogeneous(64))
    assert s64.ops > 4 * s8.ops  # ~linear in p


def test_greedy_ops_nearly_host_independent(medium_dag):
    s8 = schedule_dag("greedy", medium_dag, ResourceCollection.homogeneous(8))
    s64 = schedule_dag("greedy", medium_dag, ResourceCollection.homogeneous(64))
    assert s64.ops < 2 * s8.ops


def test_makespan_lower_bounds(medium_dag, rc8):
    s = schedule_dag("mcp", medium_dag, rc8)
    cp_no_comm = medium_dag.bottom_levels(include_comm=False).max()
    work_bound = medium_dag.total_work() / rc8.n_hosts
    assert s.makespan >= cp_no_comm - 1e-9
    assert s.makespan >= work_bound - 1e-9


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=120),
    alpha=st.floats(min_value=0.1, max_value=0.9),
    ccr=st.floats(min_value=0.0, max_value=2.0),
    hosts=st.integers(min_value=1, max_value=12),
    het=st.floats(min_value=0.0, max_value=0.5),
    name=st.sampled_from(FAST),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_schedules_valid_and_replayable(size, alpha, ccr, hosts, het, name, seed):
    """Every fast heuristic on every random DAG/RC produces a valid, tight
    schedule whose replay agrees exactly."""
    rng = np.random.default_rng(seed)
    dag = generate_random_dag(
        RandomDagSpec(size=size, ccr=ccr, parallelism=alpha, regularity=0.5, density=0.5),
        rng,
    )
    rc = (
        ResourceCollection.homogeneous(hosts)
        if het == 0.0
        else ResourceCollection.heterogeneous_clock(hosts, het, rng)
    )
    s = schedule_dag(name, dag, rc)
    assert validate_schedule(dag, rc, s) == []
    r = replay_schedule(dag, rc, s)
    np.testing.assert_allclose(r.start, s.start, atol=1e-6)
    np.testing.assert_allclose(r.finish, s.finish, atol=1e-6)


#: sha256 over every schedule of :func:`_golden_cases`, for every
#: registered heuristic: each schedule's ``host``, ``start`` and
#: ``finish`` bytes and ``float(ops).hex()``.  Byte-identical schedules
#: are the contract of every change to the scheduler kernel, so any
#: change to a placement, a tie-break, a float operation or an op count
#: changes this value.
GOLDEN_SCHEDULES_SHA256 = "bf62265952948bcb9701e4916d4ec90b56c43fac064a92d0128b5dda7cae5744"


def _golden_cases():
    """The fixed DAG x RC corpus the golden schedule digest runs over."""
    rng = np.random.default_rng(11)
    dags = [
        montage_dag(montage_level_counts(levels), ccr=ccr)
        for levels in (3, 10)
        for ccr in (0.01, 0.5)
    ]
    # Unit costs and no communication: equal finish times everywhere, so
    # every host-choice and task-order tie-break is exercised.
    shape = generate_random_dag(
        RandomDagSpec(size=60, ccr=0.0, parallelism=0.5, regularity=0.5, density=0.6), rng
    )
    dags.append(DAG(np.ones(shape.n), shape.edge_src, shape.edge_dst, np.zeros(shape.m)))
    dags.append(
        generate_random_dag(
            RandomDagSpec(size=50, ccr=1.0, parallelism=0.6, regularity=0.5, density=1.0), rng
        )
    )
    prefix = PrefixRCFactory(54, mean_speed=1.25)
    rcs = [prefix(size) for size in (1, 7, 16, 54)]
    rcs.append(PrefixRCFactory(16, heterogeneity=0.3, mean_speed=1.25, seed=0)(16))
    smoke = build_universe(get_scale("smoke"), 0)
    # Hosts spread over every site (differing factors), and two clusters
    # of one site (every factor equal).
    rcs.append(smoke.rc_from_hosts(np.arange(0, smoke.n_hosts, 37)))
    rcs.append(smoke.rc_from_hosts(np.flatnonzero(np.isin(smoke.host_cluster, (1, 2)))))
    # Equal factors other than 1.0 over mixed speeds.
    rcs.append(
        ResourceCollection(
            speed=np.array([1.0, 2.0, 0.5, 1.25, 1.0, 2.0]),
            cluster=np.array([0, 0, 1, 1, 2, 2]),
            comm_factor=np.full((3, 3), 0.5),
        )
    )
    return dags, rcs


def test_schedules_match_the_golden_digest():
    dags, rcs = _golden_cases()
    equal = [bool(np.all(rc.comm_factor == rc.comm_factor.flat[0])) for rc in rcs]
    assert not all(equal) and any(equal[-3:])
    names = list_schedulers()
    assert names == [
        "dls", "fca", "fcfs", "greedy", "heft", "mcp", "mcp_insertion", "minmin", "random",
    ]
    digest = hashlib.sha256()
    for name in names:
        for dag in dags:
            for rc in rcs:
                s = schedule_dag(name, dag, rc)
                for arr in (s.host, s.start, s.finish):
                    digest.update(arr.tobytes())
                digest.update(float(s.ops).hex().encode())
    assert digest.hexdigest() == GOLDEN_SCHEDULES_SHA256
