"""Unit tests for :mod:`repro.selection.index`, and SWORD's vectorized
penalty table against a per-cluster oracle.

No engine consults the index: the planner and :class:`HostIndex` unit
tests cover edge intervals (open/closed endpoints, ``>=``/``<=``
boundary equality), contradictions, MY-shadowing and opaque attributes
for as long as the module exists.  SWORD's penalty table must equal the
oracle bit for bit, including over a Hypothesis sweep of random
platforms and specifications.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.generator import ResourceSpecification
from repro.resources.generator import ClusterSpec
from repro.resources.platform import Platform
from repro.selection.classad import parse_classad
from repro.selection.classad.parser import ClassAd, parse_expression
from repro.selection.index import HostIndex, plan_constraint
from repro.selection.sword import (
    CATEGORICAL_NAMES,
    NUMERIC_NAMES,
    SwordEngine,
    cluster_table,
    parse_sword_query,
)


def make_platform(
    n_clusters: int = 20, hosts_per_cluster: int = 10, seed: int = 0
) -> Platform:
    rng = np.random.default_rng(seed)
    clusters = [
        ClusterSpec(
            cluster_id=c,
            n_hosts=hosts_per_cluster,
            clock_ghz=float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, 3.5])),
            memory_mb=int(rng.choice([512, 1024, 2048, 4096])),
            arch=str(rng.choice(["x86", "sparc"])),
            os=str(rng.choice(["LINUX", "SOLARIS"])),
        )
        for c in range(n_clusters)
    ]
    bw = np.full((n_clusters, n_clusters), 1.0e9)
    return Platform(clusters=clusters, bandwidth_bps=bw)


# ----------------------------------------------------------------------
# Planner unit tests
# ----------------------------------------------------------------------
def test_planner_open_vs_closed_endpoints():
    strict = plan_constraint(parse_expression("TARGET.Clock > 2000"))
    closed = plan_constraint(parse_expression("TARGET.Clock >= 2000"))
    assert strict.intervals["clock"].lo_open is True
    assert closed.intervals["clock"].lo_open is False
    hi = plan_constraint(parse_expression("TARGET.Clock < 2000 && TARGET.Clock >= 100"))
    assert hi.intervals["clock"].hi_open is True
    assert hi.intervals["clock"].lo == 100.0


def test_planner_boundary_equality_is_not_a_contradiction():
    plan = plan_constraint(
        parse_expression("TARGET.Clock >= 2000 && TARGET.Clock <= 2000")
    )
    assert not plan.contradiction
    iv = plan.intervals["clock"]
    assert iv.lo == iv.hi == 2000.0 and not iv.is_empty


def test_planner_contradiction_detection():
    plan = plan_constraint(
        parse_expression("TARGET.Clock >= 3000 && TARGET.Clock <= 2000")
    )
    assert plan.contradiction and plan.prunes
    eq = plan_constraint(
        parse_expression('TARGET.OpSys == "LINUX" && TARGET.OpSys == "SOLARIS"')
    )
    assert eq.contradiction


def test_planner_strict_flag_and_constant_conjuncts():
    # A bare non-boolean constant constraint never matches at top level...
    top = plan_constraint(parse_expression("5"))
    assert top.strict and top.contradiction
    # ...but coerces to true inside a && chain (Condor numeric truthiness).
    chain = plan_constraint(parse_expression("TARGET.Clock >= 2000 && 5"))
    assert not chain.strict and not chain.contradiction
    false_chain = plan_constraint(parse_expression("TARGET.Clock >= 2000 && 0"))
    assert false_chain.contradiction


def test_planner_respects_request_shadowing():
    request = parse_classad("[ Clock = 9999; Requirements = Clock >= 3000 ]")
    plan = plan_constraint(request.get("Requirements"), request=request)
    # Unscoped Clock resolves MY-first to the request's own value, so the
    # clause must stay residual, not become a machine-column probe.
    assert "clock" not in plan.intervals
    assert len(plan.residual) == 1
    scoped = plan_constraint(
        parse_expression("TARGET.Clock >= 3000"), request=request
    )
    assert "clock" in scoped.intervals


def test_planner_foreign_scope_goes_residual():
    plan = plan_constraint(
        parse_expression("cpu.Clock >= 3000"), machine_scopes=("target",)
    )
    assert not plan.intervals and len(plan.residual) == 1
    gang = plan_constraint(
        parse_expression("cpu.Clock >= 3000"), machine_scopes=("target", "cpu")
    )
    assert "clock" in gang.intervals


# ----------------------------------------------------------------------
# HostIndex unit tests
# ----------------------------------------------------------------------
def test_host_index_range_and_equality_queries():
    plat = make_platform(10)
    index = HostIndex.from_platform(plat)
    table = plat.host_table()
    plan = plan_constraint(
        parse_expression('Clock >= 2000 && OpSys == "linux"'),
        machine_scopes=("my", "self"),
    )
    rows, full = index.candidates(plan)
    assert full.size == 0
    expected = np.flatnonzero(
        (table["clock"] >= 2000)
        & (np.char.lower(table["opsys"].astype(str)) == "linux")
    )
    np.testing.assert_array_equal(rows, expected)
    # Case-insensitivity: the query value's case must not matter.
    shout = plan_constraint(
        parse_expression('OpSys == "LINUX"'), machine_scopes=("my", "self")
    )
    np.testing.assert_array_equal(
        index.candidates(shout)[0],
        np.flatnonzero(np.char.lower(table["opsys"].astype(str)) == "linux"),
    )


def test_host_index_boundary_rows_follow_endpoint_openness():
    ads = [ClassAd.from_values({"Clock": float(v)}) for v in (1000, 2000, 3000)]
    index = HostIndex.from_ads(ads)
    closed = plan_constraint(parse_expression("TARGET.Clock >= 2000"))
    opened = plan_constraint(parse_expression("TARGET.Clock > 2000"))
    np.testing.assert_array_equal(index.candidates(closed)[0], [1, 2])
    np.testing.assert_array_equal(index.candidates(opened)[0], [2])
    below = plan_constraint(parse_expression("TARGET.Clock <= 2000"))
    np.testing.assert_array_equal(index.candidates(below)[0], [0, 1])


def test_host_index_opaque_attributes_need_full_check():
    ads = [
        ClassAd.from_values({"Clock": 3000.0}),
        ClassAd.from_values({"Clock": 1000.0}),
    ]
    expr_ad = ClassAd()
    expr_ad["Clock"] = parse_expression("1500 + 1600")  # non-literal: opaque
    ads.append(expr_ad)
    index = HostIndex.from_ads(ads)
    plan = plan_constraint(parse_expression("TARGET.Clock >= 2000"))
    rows, full = index.candidates(plan)
    np.testing.assert_array_equal(rows, [0, 2])
    np.testing.assert_array_equal(full, [2])


def test_host_index_missing_attribute_prunes_row():
    ads = [ClassAd.from_values({"Clock": 3000.0}), ClassAd.from_values({"Memory": 512})]
    index = HostIndex.from_ads(ads)
    plan = plan_constraint(parse_expression("TARGET.Clock >= 1000"))
    np.testing.assert_array_equal(index.candidates(plan)[0], [0])


def test_host_index_ignores_non_indexable_literals():
    ads = [ClassAd.from_values({"Started": True}), ClassAd.from_values({"Started": False})]
    index = HostIndex.from_ads(ads)
    assert "started" not in index.numeric and "started" not in index.categorical


# ----------------------------------------------------------------------
# SWORD: vectorized penalty table against a per-cluster oracle
# ----------------------------------------------------------------------
def _cluster_penalty(platform: Platform, group, cid: int) -> float | None:
    """Per-host penalty of cluster ``cid`` for ``group``, one cluster at a
    time; None when infeasible.  The oracle for
    ``SwordEngine._group_penalty_table``."""
    attrs = platform.cluster_attributes(cid)
    values = {tag: float(attrs[name]) for tag, name in NUMERIC_NAMES.items()}
    values["num_cpus"] = 1.0
    cats = {tag: attrs[name] for tag, name in CATEGORICAL_NAMES.items()}
    penalty = 0.0
    for req in group.numeric:
        v = np.array([values[req.attr]])
        if not bool(req.feasible(v)[0]):
            return None
        penalty += float(req.penalty(v)[0])
    for req in group.categorical:
        if cats[req.attr].lower() != req.value.lower():
            if req.penalty_rate <= 0:
                return None
            penalty += req.penalty_rate
    return penalty


def _assert_penalty_table_matches_oracle(platform: Platform, xml: str) -> None:
    engine, table = SwordEngine(platform), cluster_table(platform)
    for group in parse_sword_query(xml).groups:
        feasible, penalty = engine._group_penalty_table(group, table)
        for cid in range(platform.n_clusters):
            expected = _cluster_penalty(platform, group, cid)
            assert bool(feasible[cid]) == (expected is not None)
            if expected is not None:
                # Bit for bit: the same float64 additions in the same order.
                assert penalty[cid].tobytes() == np.float64(expected).tobytes()


SWORD_QUERY = """<request>
  <group>
    <name>soft</name>
    <num_machines>4</num_machines>
    <clock>1500.0, 2500.0, MAX, MAX, 0.01</clock>
    <free_mem>512.0, 2048.0, MAX, MAX, 0.002</free_mem>
    <cpu_load>0.0, 0.0, 0.1, 0.5, 3.0</cpu_load>
    <arch><value>x86, 0.5</value></arch>
    <os><value>linux, 0.25</value></os>
  </group>
  <group>
    <name>hard</name>
    <num_machines>2</num_machines>
    <clock>2000.0, 3000.0, MAX, MAX, 0.1</clock>
    <os><value>SOLARIS, 0.0</value></os>
  </group>
</request>"""


def test_sword_indexed_equals_naive():
    """The vectorized penalty table equals the per-cluster oracle on every
    cluster, for the generator's query and for soft and hard categorical
    requirements."""
    plat = make_platform(15, seed=6)
    spec = ResourceSpecification(
        heuristic="mcp",
        size=6,
        min_size=4,
        clock_min_mhz=2000.0,
        clock_max_mhz=4000.0,
        connectivity="loose",
        threshold=0.001,
        dag_name="montage",
    )
    for xml in (spec.to_sword_xml(), SWORD_QUERY):
        _assert_penalty_table_matches_oracle(plat, xml)
    assert SwordEngine(plat).query(spec.to_sword_xml()) is not None


# ----------------------------------------------------------------------
# Hypothesis: random platforms and specifications
# ----------------------------------------------------------------------
_spec_strategy = st.builds(
    ResourceSpecification,
    heuristic=st.just("mcp"),
    size=st.integers(min_value=2, max_value=12),
    min_size=st.just(1),
    clock_min_mhz=st.sampled_from([1000.0, 2000.0, 2600.0, 3400.0, 9000.0]),
    clock_max_mhz=st.just(10_000.0),
    connectivity=st.sampled_from(["loose", "tight"]),
    threshold=st.just(0.001),
    dag_name=st.just("montage"),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=10_000), spec=_spec_strategy)
def test_property_sword_penalty_table_equals_oracle(seed, spec):
    plat = make_platform(n_clusters=8, hosts_per_cluster=4, seed=seed)
    _assert_penalty_table_matches_oracle(plat, spec.to_sword_xml())
