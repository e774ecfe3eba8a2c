"""Tests for the platform-aware satisfiability preflight."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.preflight import (
    cluster_ads,
    preflight_document,
    preflight_specification,
)
from repro.analysis.spec import detect_language
from repro.core.generator import ResourceSpecification, request_specification
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMOKE, get_scale
from repro.selection.classad import Matchmaker, machine_ads, parse_classad


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
    result = preflight_document("[ Requirements = Clock >= 2000 ]", platform, "classad")
    assert result.satisfiable
    assert 0 < result.matching_hosts <= platform.n_hosts
    assert result.eliminating_clause is None
    assert result.trace  # clause-by-clause survivor counts recorded


def test_impossible_clause_named_as_eliminator(platform):
    text = '[ Requirements = Type == "Machine" && Clock >= 99999 ]'
    result = preflight_document(text, platform, "classad")
    assert not result.satisfiable
    assert result.matching_hosts == 0
    assert "Clock >= 99999" in result.eliminating_clause
    assert result.report.codes() == ["SPEC201"]
    # The trace shows full survival until the killer clause.
    assert result.trace[0][1] == platform.n_hosts
    assert result.trace[-1][1] == 0


def test_capacity_shortfall_is_spec202(platform):
    text = (
        f"[ Ports = {{ [ Label = cpu; Count = {platform.n_hosts + 1}; "
        "Constraint = cpu.Clock >= 2000 ] } ]"
    )
    result = preflight_document(text, platform, "classad")
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


# ----------------------------------------------------------------------
# Golden digest: preflight verdicts pinned across changes
# ----------------------------------------------------------------------
EXAMPLE_SPECS = sorted(
    p
    for p in (Path(__file__).resolve().parent.parent / "examples" / "specs").iterdir()
    if p.suffix != ".md"
)

#: Documents for the scope rules no rendered spec reaches: two ports or
#: two aggregates where the second cannot match, a combined aggregate
#: floor larger than the platform, a bilateral ``Requirements`` beside a
#: port with a constraint (not checked) and beside one without (checked),
#: a bilateral ``Requirements`` alone, an ad with no constraint at all,
#: and a vgDL bare-string ``OpSys``.
HAND_WRITTEN = [
    (
        "classad",
        "[ Ports = { [ Label = a; Count = 2; Constraint = a.Clock >= 2000 ],"
        " [ Label = b; Count = 1; Constraint = b.Clock >= 99999 ] } ]",
    ),
    (
        "vgdl",
        "VG = ClusterOf(a) [2:4] { a = [ (Clock >= 2000) ] } CloseTo"
        " LooseBagOf(b) [1:2] { b = [ (Clock >= 99999) ] }",
    ),
    (
        "vgdl",
        "VG = LooseBagOf(a) [5000:5000] { a = [ (Clock >= 0) ] } FarFrom"
        " LooseBagOf(b) [5000:5000] { b = [ (Clock >= 0) ] }",
    ),
    (
        "classad",
        "[ Requirements = Clock >= 99999;"
        " Ports = { [ Label = cpu; Count = 2; Constraint = cpu.Clock >= 2000 ] } ]",
    ),
    (
        "classad",
        "[ Requirements = Clock >= 3000;"
        " Ports = { [ Label = cpu; Count = 4; Rank = cpu.Clock ] } ]",
    ),
    ("classad", '[ Requirements = Clock >= 3500 && OpSys == "LINUX"; Rank = Clock ]'),
    ("classad", '[ Type = "Job"; Owner = "nobody" ]'),
    ("vgdl", "VG = LooseBagOf(n) [2:8] { n = [ (OpSys == LINUX && Clock >= 2000) ] }"),
]

#: sha256 over the canonical JSON of every preflight below, on the
#: ``smoke`` and ``small`` universes built with seed 0: satisfiable,
#: matching and required hosts, the eliminating clause, the trace and
#: every diagnostic.  Any change to which scopes the preflight checks,
#: or to a clause's verdict or message, changes this value; so does a
#: new file under ``examples/specs``.
GOLDEN_PREFLIGHT_SHA256 = "7ee7b53dccc496a1aad1b9373e68ff9311e928cbb12bd18fc2a8d9b3160ee430"


def _golden_corpus():
    for size in (1, 4, 33, 90, 600, 5000):
        for clock in (2.0, 3.0, 3.5, 3.6, 9.0):
            for tolerance in (0.0, 0.3):
                spec = request_specification(
                    "mcp",
                    size,
                    clock_ghz=clock,
                    heterogeneity_tolerance=tolerance,
                    ccr=0.01 if size % 2 else 0.5,
                    threshold=0.01,
                    dag_name="montage",
                )
                yield "spec", spec
                yield "vgdl", spec.to_vgdl()
                yield "classad", spec.to_classad()
                yield "sword", spec.to_sword_xml()
                yield "json", json.dumps(spec.to_dict())
    for path in EXAMPLE_SPECS:
        text = path.read_text(encoding="utf-8")
        yield detect_language(text, path.name), text
    yield from HAND_WRITTEN


def _record(result):
    return {
        "satisfiable": result.satisfiable,
        "matching_hosts": result.matching_hosts,
        "required_hosts": result.required_hosts,
        "eliminating_clause": result.eliminating_clause,
        "trace": result.trace,
        "diagnostics": [d.to_dict() for d in result.report],
    }


def test_preflight_matches_the_golden_digest():
    records = []
    for scale in ("smoke", "small"):
        universe = build_universe(get_scale(scale), seed=0)
        for lang, item in _golden_corpus():
            if lang == "spec":
                result = preflight_specification(item, universe)
            else:
                result = preflight_document(item, universe, lang)
            records.append([scale, lang, _record(result)])
    assert any(not r[2]["satisfiable"] for r in records)
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_PREFLIGHT_SHA256
