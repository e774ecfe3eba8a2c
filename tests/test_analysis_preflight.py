"""Tests for the platform-aware satisfiability preflight."""

import dataclasses

import pytest

from repro.analysis.preflight import (
    cluster_ads,
    preflight_constraint,
    preflight_document,
    preflight_specification,
)
from repro.core.generator import ResourceSpecification
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMOKE
from repro.selection.classad import Matchmaker, machine_ads, parse_classad
from repro.selection.classad.parser import parse_expression


@pytest.fixture(scope="module")
def platform():
    return build_universe(SMOKE, seed=0)


@pytest.fixture(scope="module")
def spec():
    return ResourceSpecification(
        heuristic="mcp",
        size=24,
        min_size=20,
        clock_min_mhz=2000.0,
        clock_max_mhz=4000.0,
        connectivity="loose",
        threshold=0.001,
        dag_name="montage",
    )


def test_cluster_ads_cover_every_host(platform):
    ads = cluster_ads(platform)
    assert sum(n for _, n in ads) == platform.n_hosts
    # Every cluster ad advertises the attributes requests actually use.
    for ad, _ in ads:
        for name in ("Type", "Clock", "Memory", "OpSys", "Nodes"):
            assert name in ad


def test_satisfiable_constraint_reports_matching_hosts(platform):
    result = preflight_constraint(parse_expression("Clock >= 2000"), platform)
    assert result.satisfiable
    assert 0 < result.matching_hosts <= platform.n_hosts
    assert result.eliminating_clause is None
    assert result.trace  # clause-by-clause survivor counts recorded


def test_impossible_clause_named_as_eliminator(platform):
    expr = parse_expression('Type == "Machine" && Clock >= 99999')
    result = preflight_constraint(expr, platform)
    assert not result.satisfiable
    assert result.matching_hosts == 0
    assert "Clock >= 99999" in result.eliminating_clause
    assert result.report.codes() == ["SPEC201"]
    # The trace shows full survival until the killer clause.
    assert result.trace[0][1] == platform.n_hosts
    assert result.trace[-1][1] == 0


def test_capacity_shortfall_is_spec202(platform):
    result = preflight_constraint(
        parse_expression("Clock >= 2000"), platform, min_hosts=platform.n_hosts + 1
    )
    assert not result.satisfiable
    assert result.report.codes() == ["SPEC202"]


def test_preflight_specification_satisfiable(platform, spec):
    result = preflight_specification(spec, platform)
    assert result.satisfiable
    assert result.required_hosts == spec.min_size


def test_preflight_specification_impossible_clock(platform, spec):
    fast = dataclasses.replace(spec, clock_min_mhz=99999.0, clock_max_mhz=99999.0)
    result = preflight_specification(fast, platform)
    assert not result.satisfiable
    assert result.report.has_errors
    assert "99999" in result.eliminating_clause


def test_preflight_specification_oversize(platform, spec):
    big = dataclasses.replace(
        spec, size=platform.n_hosts + 50, min_size=platform.n_hosts + 10
    )
    result = preflight_specification(big, platform)
    assert not result.satisfiable
    assert result.report.codes() == ["SPEC202"]


@pytest.mark.parametrize("lang", ["vgdl", "classad", "sword"])
def test_preflight_document_satisfiable_for_rendered_spec(platform, spec, lang):
    text = {
        "vgdl": spec.to_vgdl,
        "classad": spec.to_classad,
        "sword": spec.to_sword_xml,
    }[lang]()
    result = preflight_document(text, platform, lang)
    assert result.satisfiable, result.describe()
    assert result.matching_hosts > 0


@pytest.mark.parametrize("lang", ["vgdl", "classad", "sword"])
def test_preflight_document_impossible_clock(platform, spec, lang):
    fast = dataclasses.replace(spec, clock_min_mhz=99999.0, clock_max_mhz=99999.0)
    text = {
        "vgdl": fast.to_vgdl,
        "classad": fast.to_classad,
        "sword": fast.to_sword_xml,
    }[lang]()
    result = preflight_document(text, platform, lang)
    assert not result.satisfiable
    assert result.report.has_errors


def test_preflight_is_deterministic(platform, spec):
    a = preflight_specification(spec, platform)
    b = preflight_specification(spec, platform)
    assert a.matching_hosts == b.matching_hosts
    assert a.trace == b.trace


@pytest.mark.parametrize(
    "clause", ["cpu.HostId >= 0", 'cpu.Machine != "x"', 'cpu.Name != ""']
)
def test_per_host_clause_eliminates_no_cluster(platform, spec, clause):
    # A cluster ad cannot answer a per-host name, so the preflight keeps
    # every cluster for such a clause -- and the matchmaker, which sees
    # the per-host machine ads, binds the same request.
    text = spec.to_classad().replace("Constraint = ", f"Constraint = {clause} && ", 1)
    assert clause in text
    result = preflight_document(text, platform, "classad")
    assert result.satisfiable, result.describe()
    assert "SPEC201" not in result.report.codes()
    gang = Matchmaker(machine_ads(platform)).gangmatch(parse_classad(text))
    assert gang is not None and len(gang.machines) == spec.size
