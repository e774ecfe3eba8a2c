"""Differential parity: frozen legacy analyzers vs the typed-IR passes.

The static-analysis rewrite replaced three per-language analyzer walkers
with one lowering (``repro.analysis.ir``) plus shared semantic passes
(``repro.analysis.passes``).  The refactor's contract is *exact*
diagnostic parity: for every document the IR path must emit the same
``(code, severity, span, message, attr, lang)`` sequence — not merely
the same set — as the historic analyzers.  This suite pins that contract
against :mod:`tests._legacy_analysis`, a frozen verbatim copy of the
pre-IR code, over four corpora:

* the shipped ``examples/specs/`` documents,
* a chapter-7-style grid of generated specifications rendered to all
  three languages (a small grid in tier 1, the full sweep nightly),
* a handcrafted nasties corpus (dead disjunction branches, type errors,
  contradictions, duplicate SWORD ranges, bad counts, parse errors),
* a Hypothesis-driven fuzz corpus of constraint expressions.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    DiagnosticReport,
    check_constraint,
    lint_text,
    lower_expression,
)
from repro.core.generator import ResourceSpecification
from repro.selection.classad.lexer import ClassAdParseError
from repro.selection.classad.parser import parse_expression

from tests._legacy_analysis import (
    legacy_analyze_classad_text,
    legacy_analyze_constraint,
    legacy_analyze_sword_text,
    legacy_analyze_vgdl_text,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"

LEGACY = {
    "vgdl": legacy_analyze_vgdl_text,
    "classad": legacy_analyze_classad_text,
    "sword": legacy_analyze_sword_text,
}


def _sig(report):
    """Full-fidelity diagnostic signature, in emission order."""
    return [
        (
            d.code,
            d.severity,
            None if d.span is None else (d.span.pos, d.span.line, d.span.column),
            d.message,
            d.attr,
            d.lang,
        )
        for d in report.diagnostics
    ]


def _assert_parity(lang: str, text: str) -> None:
    live = _sig(lint_text(text, lang=lang))
    legacy = _sig(LEGACY[lang](text))
    assert live == legacy, (
        f"IR path diverges from legacy analyzer on {lang} document:\n"
        f"live:   {live}\nlegacy: {legacy}\ntext:\n{text}"
    )


# ----------------------------------------------------------------------
# Corpus 1: shipped example documents
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "filename,lang",
    [
        ("montage.vgdl", "vgdl"),
        ("montage.classad", "classad"),
        ("montage.xml", "sword"),
        ("contradictory.classad", "classad"),
    ],
)
def test_example_specs_parity(filename, lang):
    _assert_parity(lang, (EXAMPLES / filename).read_text())


# ----------------------------------------------------------------------
# Corpus 2: chapter-7-style grid of generated specifications
# ----------------------------------------------------------------------
def _grid_specs(sizes, clocks, connectivities):
    specs = []
    for size in sizes:
        for clock_min, clock_max in clocks:
            for connectivity in connectivities:
                specs.append(
                    ResourceSpecification(
                        heuristic="mcp",
                        size=size,
                        min_size=max(1, size - 4),
                        clock_min_mhz=clock_min,
                        clock_max_mhz=clock_max,
                        connectivity=connectivity,
                        threshold=0.001,
                        dag_name=f"grid_{size}_{int(clock_min)}",
                    )
                )
    return specs


def _renderings(spec):
    return [
        ("vgdl", spec.to_vgdl()),
        ("classad", spec.to_classad()),
        ("sword", spec.to_sword_xml()),
    ]


@pytest.mark.parametrize(
    "spec",
    _grid_specs((4, 24), ((2000.0, 4000.0), (1500.0, 1500.0)), ("tight", "loose")),
    ids=lambda s: f"{s.dag_name}-{s.connectivity}",
)
def test_generated_grid_parity(spec):
    for lang, text in _renderings(spec):
        _assert_parity(lang, text)


@pytest.mark.slow
def test_full_grid_parity_sweep():
    # Nightly: the full chapter-7-style sweep in every language.
    specs = _grid_specs(
        sizes=(1, 2, 4, 8, 16, 24, 48, 96),
        clocks=((1000.0, 1000.0), (1500.0, 3000.0), (2000.0, 4000.0), (2500.0, 2500.0)),
        connectivities=("tight", "loose"),
    )
    for spec in specs:
        for lang, text in _renderings(spec):
            _assert_parity(lang, text)


# ----------------------------------------------------------------------
# Corpus 3: handcrafted nasties
# ----------------------------------------------------------------------
NASTY_VGDL = [
    # Bare identifier-shaped string in a numeric comparison (SPEC104 hint).
    'grid_rc = TightBagOf(4, 4, node, [Clock >= fast], rank = Nodes)',
    # Type mismatch: string literal vs number.
    'rc = LooseBagOf(2, 4, node, [Clock >= "fast"], rank = Nodes)',
    # Contradictory clock band.
    "rc = TightBagOf(2, 4, node, [Clock >= 4000 && Clock <= 2000], rank = Nodes)",
    # Bad count range (hi < lo) plus unknown attribute.
    "rc = TightBagOf(9, 4, node, [Blorp >= 10], rank = Nodes)",
    # Dead OR branch.
    "rc = TightBagOf(2, 4, node, [Clock >= 1000 || false], rank = Nodes)",
    # String rank expression.
    'rc = TightBagOf(2, 4, node, [Clock >= 1000], rank = "Nodes")',
    # Nonsense text: parse error.
    "rc = TightBagOf(",
]

NASTY_CLASSAD = [
    # Contradictory requirements.
    '[ Requirements = other.Memory > 4096 && other.Memory < 1024; Rank = 1; ]',
    # Unknown attribute + dead disjunct.
    '[ Requirements = other.Blorp >= 2 || 1 == 2; Rank = other.Mips; ]',
    # Type mismatch in requirements, string rank.
    '[ Requirements = other.OpSys == 42; Rank = "high"; ]',
    # Ports with bad counts.
    '[ Ports = { [ Label = "a"; Count = 0; Requirements = other.Clock >= 100; ] }; ]',
    # Constant-false requirement.
    "[ Requirements = false; ]",
    # Parse error.
    "[ Requirements = ; ]",
]

NASTY_SWORD = [
    # Duplicate range for one attribute.
    (
        "<request><group><name>g</name><numhosts>2</numhosts>"
        "<clock>1000.0, 2000.0, 3000.0, 4000.0, 0.5</clock>"
        "<clock>500.0, 600.0, 700.0, 800.0, 0.1</clock>"
        "</group></request>"
    ),
    # Contradictory required window (lo > hi).
    (
        "<request><group><name>g</name><numhosts>2</numhosts>"
        "<clock>4000.0, 4000.0, 1000.0, 1000.0, 0.5</clock>"
        "</group></request>"
    ),
    # Bad numhosts.
    (
        "<request><group><name>g</name><numhosts>0</numhosts>"
        "<clock>0.0, 0.0, 4000.0, 4000.0, 0.5</clock>"
        "</group></request>"
    ),
    # Parse error.
    "<request><group>",
]


@pytest.mark.parametrize("text", NASTY_VGDL, ids=range(len(NASTY_VGDL)))
def test_nasty_vgdl_parity(text):
    _assert_parity("vgdl", text)


@pytest.mark.parametrize("text", NASTY_CLASSAD, ids=range(len(NASTY_CLASSAD)))
def test_nasty_classad_parity(text):
    _assert_parity("classad", text)


@pytest.mark.parametrize("text", NASTY_SWORD, ids=range(len(NASTY_SWORD)))
def test_nasty_sword_parity(text):
    _assert_parity("sword", text)


# ----------------------------------------------------------------------
# Corpus 4: fuzzed constraint expressions (expression-level parity)
# ----------------------------------------------------------------------
_ATTRS = st.sampled_from(["Clock", "Memory", "Nodes", "OpSys", "Blorp", "fast"])
_NUMS = st.sampled_from(["0", "1", "2", "1000", "4096", "-5", "2.5"])
_STRINGS = st.sampled_from(['"LINUX"', '"fast"', '""'])
_OPS = st.sampled_from([">=", "<=", ">", "<", "==", "!="])
_CONSTS = st.sampled_from(["true", "false", "undefined", "error"])


@st.composite
def _comparison(draw):
    left = draw(_ATTRS)
    op = draw(_OPS)
    right = draw(st.one_of(_NUMS, _STRINGS, _ATTRS, _CONSTS))
    return f"{left} {op} {right}"


@st.composite
def _expression(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(_comparison(), _CONSTS, _ATTRS))
    op = draw(st.sampled_from(["&&", "||"]))
    left = draw(_expression(depth=depth - 1))
    right = draw(_expression(depth=depth - 1))
    return f"({left}) {op} ({right})"


@settings(max_examples=120, deadline=None)
@given(
    source=_expression(),
    lang=st.sampled_from(["vgdl", "classad", "sword"]),
    bare=st.booleans(),
)
def test_fuzzed_constraint_parity(source, lang, bare):
    try:
        expr = parse_expression(source)
    except ClassAdParseError:
        return  # parity only concerns analyzable expressions
    live = _sig(
        check_constraint(
            lower_expression(expr, lang=lang, text=source, vgdl_bare_strings=bare),
            DiagnosticReport(),
        )
    )
    legacy = _sig(
        legacy_analyze_constraint(expr, lang=lang, text=source, vgdl_bare_strings=bare)
    )
    assert live == legacy, f"divergence on {source!r} ({lang}, bare={bare})"
