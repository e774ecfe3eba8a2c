"""Tests for alternative specification generation (Chapter VII)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alternatives import (
    alternative_specifications,
    clock_size_tradeoff,
    size_to_match,
)
from repro.core.generator import ResourceSpecificationGenerator, request_specification
from repro.core.knee import TurnaroundCurve
from repro.dag.graph import DAG
from repro.dag.montage import montage_dag, montage_level_counts
from repro.dag.random_dag import RandomDagSpec, generate_random_dag
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import get_scale
from repro.scheduling import list_schedulers


def _curve(sizes, turn):
    t = np.asarray(turn, dtype=float)
    return TurnaroundCurve(np.asarray(sizes), t, t, np.zeros_like(t), "mcp")


def test_size_to_match():
    c = _curve([1, 2, 4, 8], [100.0, 60.0, 30.0, 29.0])
    assert size_to_match(c, 50.0) == 4
    assert size_to_match(c, 100.0) == 1
    assert size_to_match(c, 10.0) is None


def test_clock_size_tradeoff_shapes(small_montage):
    points = clock_size_tradeoff(small_montage, (2.0, 3.0), max_size=24, step_frac=0.5)
    clocks = {p.clock_ghz for p in points}
    assert clocks == {2.0, 3.0}
    by_clock = {c: [p for p in points if p.clock_ghz == c] for c in clocks}
    # Same size grid per clock.
    assert len(by_clock[2.0]) == len(by_clock[3.0])
    # Faster clocks dominate at equal size.
    for p2, p3 in zip(by_clock[2.0], by_clock[3.0]):
        assert p2.size == p3.size
        assert p3.turnaround <= p2.turnaround + 1e-9


def test_faster_clock_needs_fewer_hosts(small_montage):
    points = clock_size_tradeoff(small_montage, (2.0, 3.5), max_size=32, step_frac=0.3)
    slow = _points_to_curve(points, 2.0)
    fast = _points_to_curve(points, 3.5)
    target = slow.turnaround.min() * 1.02
    s_slow = size_to_match(slow, target)
    s_fast = size_to_match(fast, target)
    assert s_fast is not None and s_slow is not None
    assert s_fast <= s_slow


def _points_to_curve(points, clock):
    sel = sorted((p.size, p.turnaround) for p in points if p.clock_ghz == clock)
    sizes = np.array([s for s, _ in sel])
    turn = np.array([t for _, t in sel])
    return TurnaroundCurve(sizes, turn, turn, np.zeros_like(turn), "mcp")


def test_alternatives_ranked_by_turnaround(tiny_size_model):
    dag = montage_dag(montage_level_counts(15), ccr=0.01)
    gen = ResourceSpecificationGenerator(tiny_size_model, target_clock_ghz=3.5)
    spec = gen.generate(dag)
    alts = alternative_specifications(dag, spec, (3.0, 2.4, 2.0), max_size=80)
    assert len(alts) == 3
    turns = [t for _, t in alts]
    assert turns == sorted(turns)
    # All alternatives are at or below the requested clock.
    for alt, _ in alts:
        assert alt.clock_max_mhz <= spec.clock_max_mhz


def test_alternatives_skip_faster_clocks(tiny_size_model):
    dag = montage_dag(montage_level_counts(15), ccr=0.01)
    gen = ResourceSpecificationGenerator(tiny_size_model, target_clock_ghz=2.0)
    spec = gen.generate(dag)
    alts = alternative_specifications(dag, spec, (3.5, 1.5), max_size=60)
    assert len(alts) == 1
    assert alts[0][0].clock_max_mhz == pytest.approx(1500.0)


def test_alternatives_offer_faster_bands_when_nothing_slower(tiny_size_model):
    # Regression: asking for 3.0 GHz in an environment that only has faster
    # bands used to return [] — a faster band trivially fulfills the
    # request and must be offered, capped at the original RC size.
    dag = montage_dag(montage_level_counts(15), ccr=0.01)
    gen = ResourceSpecificationGenerator(tiny_size_model, target_clock_ghz=3.0)
    spec = gen.generate(dag)
    alts = alternative_specifications(dag, spec, (3.6, 3.3), max_size=60)
    assert len(alts) == 2
    for alt, turn in alts:
        assert alt.clock_max_mhz > spec.clock_max_mhz
        assert alt.size <= spec.size
        assert alt.min_size <= alt.size
        assert turn > 0
    turns = [t for _, t in alts]
    assert turns == sorted(turns)


def test_alternatives_still_prefer_degrading_when_possible(tiny_size_model):
    # With at least one band at-or-below the request, faster bands stay
    # excluded (the Fig. VII-6 degradation axis).
    dag = montage_dag(montage_level_counts(15), ccr=0.01)
    gen = ResourceSpecificationGenerator(tiny_size_model, target_clock_ghz=3.0)
    spec = gen.generate(dag)
    alts = alternative_specifications(dag, spec, (3.6, 2.4), max_size=60)
    assert len(alts) == 1
    assert alts[0][0].clock_max_mhz == pytest.approx(2400.0)


def test_alternatives_preserve_min_size_fraction(tiny_size_model):
    dag = montage_dag(montage_level_counts(15), ccr=0.01)
    gen = ResourceSpecificationGenerator(tiny_size_model, target_clock_ghz=3.5)
    spec = gen.generate(dag)
    for alt, _ in alternative_specifications(dag, spec, (2.4,), max_size=60):
        assert alt.min_size <= alt.size
        frac_orig = spec.min_size / spec.size
        assert alt.min_size / alt.size == pytest.approx(frac_orig, abs=0.1)


# ----------------------------------------------------------------------
# Golden output: the lazy Fig. VII-6 search returns what a full sweep of
# every band's size grid returned.
# ----------------------------------------------------------------------
#: sha256 over ``repr()`` of :func:`alternative_specifications` on every
#: case of :func:`_golden_cases`, recorded while every band still swept its
#: whole size grid.
GOLDEN_ALTERNATIVES_SHA256 = "040e80d602b9f499f3de985bf3884b2b3bc84907b79d0eb242ee7fe6615ef394"


def _request(heuristic, size, clock_ghz, ccr):
    return request_specification(
        heuristic, size, clock_ghz=clock_ghz, heterogeneity_tolerance=0.0, ccr=ccr,
        threshold=0.001, dag_name="golden",
    )


def _golden_cases():
    """``(dag, spec, clocks, keyword arguments)`` of the golden corpus."""
    small = build_universe(get_scale("small"), 0)
    bands = tuple(sorted({c.clock_ghz for c in small.clusters}, reverse=True))
    on_small = {"platform": small}
    montage = {
        (levels, ccr): montage_dag(montage_level_counts(levels), ccr=ccr)
        for levels in (3, 10)
        for ccr in (0.01, 0.5, 2.0)
    }
    # The end-to-end benchmark's select_degraded requests.
    cases = [
        (montage[levels, ccr], _request("mcp", size, 3.5, ccr), bands, on_small)
        for levels, ccr, size in ((3, 0.01, 9), (3, 0.5, 7), (10, 0.01, 22), (10, 0.5, 15))
    ]
    cases += [
        (dag, _request(heuristic, size, clock, ccr), bands, on_small)
        for (_, ccr), dag in montage.items()
        for size in (1, 16, 60)
        for clock in (3.5, 2.4)
        for heuristic in ("mcp", "fca")
    ]
    rng = np.random.default_rng(5)
    # Unit costs and no communication tie every host and task choice.
    shape = generate_random_dag(
        RandomDagSpec(size=40, ccr=0.0, parallelism=0.6, regularity=0.5, density=0.5), rng
    )
    unit = DAG(np.ones(shape.n), shape.edge_src, shape.edge_dst, np.zeros(shape.m))
    comm = generate_random_dag(
        RandomDagSpec(size=40, ccr=1.0, parallelism=0.5, regularity=0.3, density=0.8), rng
    )
    for dag, ccr in ((unit, 0.0), (comm, 1.0)):
        for heuristic in list_schedulers():
            cases.append((dag, _request(heuristic, 6, 3.0, ccr), (3.5, 3.0, 2.4, 1.5), {}))
            # Every band is faster than the request.
            cases.append((dag, _request(heuristic, 6, 2.0, ccr), (3.6, 3.3, 2.8), {}))
        cases.append(
            (dag, _request("mcp", 4, 3.0, ccr), (3.0, 2.0), {"slack": 0.0, "max_size": 30})
        )
    return cases


def test_alternatives_match_the_golden_digest():
    digest = hashlib.sha256()
    for dag, spec, clocks, kwargs in _golden_cases():
        digest.update(repr(alternative_specifications(dag, spec, clocks, **kwargs)).encode())
    assert digest.hexdigest() == GOLDEN_ALTERNATIVES_SHA256


def test_a_limit_keeps_the_head_of_the_full_ranking():
    # The benchmark's requests on every band of ``small``: small limits
    # skip the slow bands by their critical path.
    for dag, spec, clocks, kwargs in _golden_cases()[:4]:
        full = alternative_specifications(dag, spec, clocks, **kwargs)
        for k in range(len(full) + 2):
            assert alternative_specifications(dag, spec, clocks, **kwargs, limit=k) == full[:k]
    with pytest.raises(ValueError):
        alternative_specifications(dag, spec, clocks, **kwargs, limit=-1)


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=2, max_value=30),
    ccr=st.sampled_from((0.0, 0.01, 0.5, 2.0)),
    dag_seed=st.integers(min_value=0, max_value=2**32 - 1),
    heuristic=st.sampled_from(list_schedulers()),
    clocks=st.lists(
        st.sampled_from((3.6, 3.5, 3.2, 3.0, 2.4, 2.0, 1.5)), min_size=1, max_size=6, unique=True
    ),
    clock=st.sampled_from((3.5, 3.0, 2.4, 1.5)),
    request=st.integers(min_value=1, max_value=12),
    slack=st.sampled_from((0.0, 0.05)),
)
def test_every_limit_keeps_the_head_of_the_full_ranking(
    size, ccr, dag_seed, heuristic, clocks, clock, request, slack
):
    dag = generate_random_dag(
        RandomDagSpec(size=size, ccr=ccr, parallelism=0.6, regularity=0.5, density=0.5),
        np.random.default_rng(dag_seed),
    )
    spec = _request(heuristic, request, clock, ccr)
    full = alternative_specifications(dag, spec, tuple(clocks), slack=slack)
    for k in range(len(full) + 2):
        assert (
            alternative_specifications(dag, spec, tuple(clocks), slack=slack, limit=k)
            == full[:k]
        )
