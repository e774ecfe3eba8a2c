"""Tests for the platform-aware satisfiability preflight."""

import dataclasses
import hashlib
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.preflight import preflight_document, preflight_specification
from repro.analysis.spec import detect_language
from repro.core.generator import ResourceSpecification, request_specification
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMOKE, get_scale
from repro.selection.classad import Matchmaker, machine_ads, parse_classad
from repro.selection.sword import SwordEngine
from repro.selection.vgdl import VgES


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
    # No per-cluster ad answers a per-host name (the machine-ad templates
    # hold None there), so the preflight keeps every cluster for such a
    # clause -- and the matchmaker, which sees the per-host machine ads,
    # binds the same request.
    text = spec.to_classad().replace("Constraint = ", f"Constraint = {clause} && ", 1)
    assert clause in text
    result = preflight_document(text, platform, "classad")
    assert result.satisfiable, result.describe()
    assert "SPEC201" not in result.report.codes()
    gang = Matchmaker(machine_ads(platform)).gangmatch(parse_classad(text))
    assert gang is not None and len(gang.machines) == spec.size


# ----------------------------------------------------------------------
# "Unsatisfiable" is the engine's verdict
# ----------------------------------------------------------------------
#: One document per rule the preflight takes from its engine, each bound
#: by the engine on ``smoke``: ``TARGET.`` and unscoped names in a
#: request or port (the request is ``MY``, the machine ``TARGET``), names
#: the engine's ads advertise or lack (``Nodes``, ``LoadAvg``, ``Type``),
#: a bilateral ``Requirements`` beside ports (gangmatch never reads it),
#: bare numeric conjuncts (``&&`` coerces them), a port's
#: ``Requirements`` beside its ``Constraint`` (the engine reads
#: ``Requirements``), a clause on another port's label, and ``other.``.
ENGINE_DRIFTS = [
    ("classad", "[ Requirements = TARGET.Clock >= 1000; Rank = TARGET.Clock ]"),
    ("classad", "[ Ports = { [ Label = cpu; Count = 2; Constraint = Clock >= 2000 ] } ]"),
    (
        "classad",
        "[ Ports = { [ Label = cpu; Count = 2; Constraint = TARGET.Clock >= 2000 ] } ]",
    ),
    ("classad", "[ Requirements = Nodes =?= UNDEFINED ]"),
    ("vgdl", "VG = LooseBagOf(n) [1:2] { n = [ MY.LoadAvg =?= UNDEFINED ] }"),
    ("vgdl", "VG = LooseBagOf(n) [1:2] { n = [ MY.Type =?= UNDEFINED ] }"),
    (
        "classad",
        "[ Requirements = Clock >= 99999;"
        " Ports = { [ Label = cpu; Count = 4; Rank = cpu.Clock ] } ]",
    ),
    (
        "classad",
        "[ Ports = { [ Label = cpu; Count = 1; Constraint = cpu.Clock && cpu.Memory >= 1 ] } ]",
    ),
    ("vgdl", "VG = LooseBagOf(n) [1:2] { n = [ Clock && Memory >= 1 ] }"),
    (
        "classad",
        "[ Ports = { [ Label = cpu; Count = 1; Requirements = cpu.Clock >= 1;"
        " Constraint = cpu.Clock >= 99999 ] } ]",
    ),
    (
        "classad",
        "[ Ports = { [ Label = a; Count = 1; Constraint = a.Clock >= 1 ],"
        " [ Label = b; Constraint = b.Clock >= a.Clock ] } ]",
    ),
    (
        "classad",
        '[ Requirements = other.Clock >= 1000 && other.OpSys == "LINUX"; Rank = other.Clock ]',
    ),
]


def _engine_binds(platform, matchmaker, lang, text) -> bool:
    """Whether the language's engine fulfils ``text`` on the empty
    platform: ``match`` for a ClassAd request without ports,
    ``gangmatch`` for one with ports."""
    if lang == "vgdl":
        return VgES(platform).find_and_bind(text) is not None
    if lang == "sword":
        return SwordEngine(platform).query(text) is not None
    request = parse_classad(text)
    if request.get("Ports") is None:
        return bool(matchmaker.match(request))
    return matchmaker.gangmatch(request) is not None


@pytest.fixture(scope="module")
def matchmaker(platform):
    return Matchmaker(machine_ads(platform))


@pytest.mark.parametrize("lang, text", ENGINE_DRIFTS)
def test_engine_drift_documents_get_the_engines_verdict(platform, matchmaker, lang, text):
    result = preflight_document(text, platform, lang)
    assert result.satisfiable, result.describe()
    assert _engine_binds(platform, matchmaker, lang, text)


@pytest.mark.parametrize(
    "text",
    [
        "[ Want = TARGET.HostId; Requirements = Want >= 0 ]",
        "[ Want = TARGET.HostId; Ports = { [ Label = cpu; Constraint = MY.Want >= 0 ] } ]",
        "[ Seen = a.Clock; Ports = { [ Label = a; Constraint = a.Clock >= 1 ],"
        " [ Label = b; Constraint = Seen =!= UNDEFINED ] } ]",
    ],
)
def test_a_clause_read_through_the_request_keeps_what_no_cluster_decides(
    platform, matchmaker, text
):
    # The request is MY, so a clause reads what the request's own
    # attributes read: here a per-host name, or port a's binding.
    result = preflight_document(text, platform, "classad")
    assert result.satisfiable, result.describe()
    assert result.matching_hosts == platform.n_hosts
    assert _engine_binds(platform, matchmaker, "classad", text)


#: Attribute names with comparison values: names both the vgES and the
#: machine ads advertise, names only one of them does (``ClockGhz``,
#: ``Nodes``, ``Region``; ``Type``, ``LoadAvg``, ``KeyboardIdle``), a
#: per-host name and one nobody advertises.
_ATOM_VALUES = {
    "Clock": (1500, 2400, 3000, 3500, 99999),
    "ClockGhz": (2.0, 3.5),
    "Memory": (512, 1024, 4096),
    "Disk": (10240, 1e9),
    "KFlops": (2.0e6, 9.0e6),
    "Nodes": (5, 64),
    "LoadAvg": (0, 0.5),
    "KeyboardIdle": (0, 3600),
    "HostId": (0, 10**6),
    "Blorp": (1,),
    "OpSys": ("LINUX", "AIX", "WINNT"),
    "Arch": ("XEON", "SPARC"),
    "Type": ("Machine", "Job"),
    "Region": ("Europe", "Mars"),
}


@st.composite
def _atoms(draw, scopes):
    ref = draw(st.sampled_from(scopes)) + draw(st.sampled_from(sorted(_ATOM_VALUES)))
    kind = draw(st.sampled_from(("compare", "compare", "undefined", "bare")))
    if kind == "bare":  # a bare numeric conjunct coerces inside &&
        return ref
    if kind == "undefined":
        return f"{ref} {draw(st.sampled_from(('=?=', '=!=')))} UNDEFINED"
    value = draw(st.sampled_from(_ATOM_VALUES[ref.split('.')[-1]]))
    if isinstance(value, str):
        return f'{ref} {draw(st.sampled_from(("==", "!=")))} "{value}"'
    return f"{ref} {draw(st.sampled_from(('>=', '<=', '<', '>', '==', '!=')))} {value}"


def _constraints(scopes):
    """A ``&&`` chain of one to three clauses, each an atom or an
    ``||``/``&&``/``!`` combination of atoms."""
    clause = st.recursive(
        _atoms(scopes),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(("&&", "||")), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            inner.map(lambda e: f"!({e})"),
        ),
        max_leaves=3,
    )
    return st.lists(clause, min_size=1, max_size=3).map(" && ".join)


_CLASSAD_SCOPES = ("", "MY.", "TARGET.", "other.")
_PORT_EXPRESSIONS = (("Constraint",), ("Requirements",), ("Requirements", "Constraint"))


@st.composite
def _classad_documents(draw):
    """A bilateral request, one port with ``Count`` 1-3, or two ports
    with ``Count`` 1 whose second reads the first's label; a port writes
    its constraint as ``Constraint``, ``Requirements`` or both."""
    shape = draw(st.sampled_from(("bilateral", "one port", "two ports")))
    bilateral = draw(_constraints((*_CLASSAD_SCOPES, "cpu.")))
    if shape == "bilateral":
        return f'[ Type = "Job"; Requirements = {bilateral}; Rank = TARGET.Clock ]'

    def port(label, count, scopes, extra=""):
        names = draw(st.sampled_from(_PORT_EXPRESSIONS))
        body = "; ".join(f"{name} = {draw(_constraints(scopes))}{extra}" for name in names)
        return f"[ Label = {label}; Count = {count}; {body}; Rank = {label}.Clock ]"

    if shape == "one port":
        ports = [port("cpu", draw(st.integers(1, 3)), (*_CLASSAD_SCOPES, "cpu."))]
    else:
        reads_a = " && " + draw(_atoms(("a.",)))
        ports = [
            port("a", 1, (*_CLASSAD_SCOPES, "a.")),
            port("b", 1, (*_CLASSAD_SCOPES, "a.", "b."), reads_a),
        ]
    head = f"Requirements = {bilateral}; " if draw(st.booleans()) else ""
    return f'[ Type = "Job"; {head}Ports = {{ {", ".join(ports)} }} ]'


@st.composite
def _vgdl_documents(draw):
    connector = draw(st.sampled_from(("", "CloseTo", "FarFrom", "HighBW")))
    aggregates = []
    for var in ("n", "m")[: 2 if connector else 1]:
        kind = draw(st.sampled_from(("ClusterOf", "TightBagOf", "LooseBagOf")))
        lo = draw(st.sampled_from((1, 2, 8, 100, 800)))
        body = draw(_constraints(("", "MY.")))
        aggregates.append(f"{kind}({var}) [{lo}:{lo * 2}] {{ {var} = [ {body} ] }}")
    return "VG = " + f" {connector} ".join(aggregates)


_SWORD_RANGES = {
    "clock": ("1500", "2400", "3000", "3500", "99999", "MAX"),
    "free_mem": ("0", "512", "1024", "4096", "MAX"),
    "free_disk": ("0", "10240", "1e9", "MAX"),
    "cpu_load": ("0.0", "0.5", "MAX"),
    "num_cpus": ("0", "1", "2", "MAX"),
}
_SWORD_CATEGORIES = {
    "os": ("LINUX", "AIX", "WINNT"),
    "arch": ("XEON", "SPARC"),
    "network_coordinate_center": ("Europe", "Mars"),
}


def _sword_bound(token: str) -> float:
    return float("inf") if token == "MAX" else float(token)


@st.composite
def _sword_documents(draw):
    """One or two groups with required ranges, hard (penalty 0) and soft
    categoricals, and an optional latency bound."""
    groups = []
    for name in ("g0", "g1")[: draw(st.integers(1, 2))]:
        machines = draw(st.sampled_from((1, 8, 100, 800)))
        parts = [f"<name>{name}</name>", f"<num_machines>{machines}</num_machines>"]
        ranges = st.lists(st.sampled_from(sorted(_SWORD_RANGES)), max_size=3, unique=True)
        for tag in draw(ranges):
            bounds = st.lists(st.sampled_from(_SWORD_RANGES[tag]), min_size=2, max_size=2)
            lo, hi = sorted(draw(bounds), key=_sword_bound)
            parts.append(f"<{tag}>{lo}, {lo}, {hi}, {hi}, 0.01</{tag}>")
        categories = st.lists(st.sampled_from(sorted(_SWORD_CATEGORIES)), max_size=2, unique=True)
        for tag in draw(categories):
            value = draw(st.sampled_from(_SWORD_CATEGORIES[tag]))
            penalty = draw(st.sampled_from(("0.0", "5.0")))
            parts.append(f"<{tag}><value>{value}, {penalty}</value></{tag}>")
        if draw(st.booleans()):
            hi = draw(st.sampled_from(("1.0", "50.0", "100.0")))
            parts.append(f"<latency>0.0, 0.0, {hi}, {hi}, 0.1</latency>")
        groups.append("<group>" + "".join(parts) + "</group>")
    return "<request>" + "".join(groups) + "</request>"


_DOCUMENTS = st.one_of(
    _classad_documents().map(lambda t: ("classad", t)),
    _vgdl_documents().map(lambda t: ("vgdl", t)),
    _sword_documents().map(lambda t: ("sword", t)),
)


# Two-port requests keep ``Count = 1``: a failing dependent gangmatch
# walks every candidate of the first port (ROADMAP item 6), seconds each.
@settings(max_examples=200, deadline=None)
@given(_DOCUMENTS)
def test_unsatisfiable_means_the_engine_refuses(platform, matchmaker, document):
    """The promise ``repro lint --platform`` and the ladder's pruning
    rest on: when the preflight calls a document unsatisfiable, its
    engine refuses it on the empty platform."""
    lang, text = document
    result = preflight_document(text, platform, lang)
    assert "SPEC001" not in result.report.codes(), text
    if not result.satisfiable:
        assert not _engine_binds(platform, matchmaker, lang, text), result.describe()


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
#: port with a constraint and beside one without (neither checked: a
#: gangmatch never reads it), a bilateral ``Requirements`` alone, an ad
#: with no constraint at all, a vgDL bare-string ``OpSys``, and every
#: :data:`ENGINE_DRIFTS` document.
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
    *ENGINE_DRIFTS,
]

#: sha256 over the canonical JSON of every preflight below, on the
#: ``smoke`` and ``small`` universes built with seed 0: satisfiable,
#: matching and required hosts, the eliminating clause, the trace and
#: every diagnostic.  Any change to which scopes the preflight checks,
#: or to a clause's verdict or message, changes this value; so does a
#: new file under ``examples/specs``.
GOLDEN_PREFLIGHT_SHA256 = "e4e7b2aef63e914d866e1200ed5649f1ea79cc563ee70608e78e73a70374c264"


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
