"""Tests for the spec static analyzer: diagnostics, intervals, checkers."""

import json

import pytest

from repro.analysis import (
    DEFAULT_VOCABULARY,
    DIAGNOSTIC_CODES,
    Diagnostic,
    DiagnosticReport,
    Interval,
    Span,
    analyze_specification,
    check_constraint,
    detect_language,
    infer_type,
    lint_text,
    lower_expression,
)
from repro.selection.classad.parser import parse_expression


def _codes(report):
    return [d.code for d in report]


def _errors(report):
    return [d.code for d in report.errors()]


# ----------------------------------------------------------------------
# Diagnostic / Span / DiagnosticReport plumbing.
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_all_codes_registered_with_description(self):
        for code, description in DIAGNOSTIC_CODES.items():
            assert code.startswith("SPEC")
            assert description

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="SPEC999", severity="error", message="x", lang="vgdl")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="SPEC101", severity="fatal", message="x", lang="vgdl")

    def test_format_includes_code_severity_lang_and_span(self):
        span = Span.from_pos("ab\ncde", 4)
        d = Diagnostic(
            code="SPEC101", severity="error", message="boom", lang="classad", span=span
        )
        text = d.format()
        assert "SPEC101" in text and "error" in text and "classad" in text
        assert "line 2" in text and "column 2" in text and "boom" in text

    def test_span_from_pos_line_column(self):
        span = Span.from_pos("xy\nabcd", 5)
        assert (span.line, span.column) == (2, 3)
        assert span.context == "abcd"

    def test_report_severity_queries_and_render(self):
        r = DiagnosticReport()
        assert not r.has_errors and r.render() == "clean"
        r.add("SPEC102", "warning", "w", "vgdl")
        assert not r.has_errors
        r.add("SPEC101", "error", "e", "vgdl")
        assert r.has_errors
        assert len(r.errors()) == 1 and len(r.warnings()) == 1
        assert "SPEC101" in r.render() and "SPEC102" in r.render()
        assert r.codes() == ["SPEC102", "SPEC101"]

    def test_report_to_json_round_trips(self):
        r = DiagnosticReport()
        r.add("SPEC104", "warning", "m", "sword")
        data = json.loads(r.to_json())
        assert data[0]["code"] == "SPEC104" and data[0]["severity"] == "warning"


# ----------------------------------------------------------------------
# Interval arithmetic.
# ----------------------------------------------------------------------
class TestInterval:
    def test_from_comparison_directions(self):
        assert Interval.from_comparison(">=", 2.0) == Interval(lo=2.0)
        assert Interval.from_comparison("<", 5.0) == Interval(hi=5.0, hi_open=True)
        eq = Interval.from_comparison("==", 3.0)
        assert (eq.lo, eq.hi) == (3.0, 3.0) and not eq.is_empty

    def test_boundary_equality_is_satisfiable(self):
        # [2, inf) ∩ (-inf, 2] = {2} — non-empty.
        merged = Interval.from_comparison(">=", 2.0).intersect(
            Interval.from_comparison("<=", 2.0)
        )
        assert not merged.is_empty
        assert (merged.lo, merged.hi) == (2.0, 2.0)

    def test_open_endpoint_at_same_value_is_empty(self):
        merged = Interval.from_comparison(">", 2.0).intersect(
            Interval.from_comparison("<=", 2.0)
        )
        assert merged.is_empty

    def test_disjoint_is_empty(self):
        merged = Interval.from_comparison(">=", 3.0).intersect(
            Interval.from_comparison("<=", 2.0)
        )
        assert merged.is_empty


# ----------------------------------------------------------------------
# Constraint analysis over parsed expressions (one class per code).
# ----------------------------------------------------------------------
def _analyze(src, **kw):
    kw.setdefault("lang", "classad")
    return check_constraint(lower_expression(parse_expression(src), **kw), DiagnosticReport())


class TestConstraintCodes:
    def test_spec101_contradictory_range(self):
        r = _analyze("Clock >= 3000 && Clock <= 2000")
        assert _errors(r) == ["SPEC101"]

    def test_spec101_boundary_equality_is_clean(self):
        r = _analyze("Clock >= 2000 && Clock <= 2000")
        assert _codes(r) == []

    def test_spec101_scoped_attrs_tracked_separately(self):
        # cpu.Clock and gpu.Clock are different attributes.
        r = _analyze("cpu.Clock >= 3000 && gpu.Clock <= 2000")
        assert _codes(r) == []

    def test_spec101_duplicate_string_equality(self):
        r = _analyze('Arch == "x86" && Arch == "sparc"')
        assert _errors(r) == ["SPEC101"]

    def test_spec102_dead_clause_subsumed_range(self):
        r = _analyze("Clock >= 3000 && Clock >= 2000")
        assert _codes(r) == ["SPEC102"]
        assert not r.has_errors

    def test_spec102_nonnegative_domain_makes_zero_bound_dead(self):
        r = _analyze("Clock >= 0")
        assert _codes(r) == ["SPEC102"]

    def test_spec102_constant_true_conjunct(self):
        r = _analyze("true && Clock >= 2000")
        assert _codes(r) == ["SPEC102"]

    def test_spec103_type_mismatch_string_vs_number(self):
        r = _analyze('Arch >= 3')
        assert _errors(r) == ["SPEC103"]

    def test_spec104_unknown_attribute_warning(self):
        r = _analyze("FrobnicationLevel >= 3")
        assert _codes(r) == ["SPEC104"]
        assert not r.has_errors

    def test_spec105_constant_false_conjunct(self):
        r = _analyze("false && Clock >= 2000")
        assert _errors(r) == ["SPEC105"]

    def test_spec106_dead_or_branch(self):
        r = _analyze("(Clock >= 3000 && Clock <= 2000) || Memory >= 512")
        assert "SPEC106" in _codes(r)
        assert not r.has_errors

    def test_spec105_all_or_branches_dead(self):
        r = _analyze("(Clock >= 3000 && Clock <= 2000) || false")
        assert "SPEC105" in _errors(r)

    def test_clean_typical_constraint(self):
        r = _analyze(
            'Type == "Machine" && OpSys == "LINUX" && Clock >= 2100 && Memory >= 256'
        )
        assert _codes(r) == []


class TestInferType:
    def test_known_attribute_types(self):
        assert infer_type(parse_expression("Clock"), DEFAULT_VOCABULARY) == "number"
        assert infer_type(parse_expression("Arch"), DEFAULT_VOCABULARY) == "string"

    def test_literals_and_comparison(self):
        assert infer_type(parse_expression("3.5"), DEFAULT_VOCABULARY) == "number"
        assert infer_type(parse_expression('"x"'), DEFAULT_VOCABULARY) == "string"
        assert infer_type(parse_expression("Clock >= 2"), DEFAULT_VOCABULARY) == "bool"


# ----------------------------------------------------------------------
# Language front ends.
# ----------------------------------------------------------------------
class TestClassadChecker:
    BAD_PORT = """\
[
  Type = "Job";
  Ports = {
    [
      Label = cpu;
      Count = 4;
      Constraint = cpu.Clock >= 3000 && cpu.Clock <= 2000;
      Rank = cpu.Clock
    ]
  }
]
"""

    def test_contradiction_reported_with_span(self):
        r = lint_text(self.BAD_PORT, lang="classad")
        errs = r.errors()
        assert [d.code for d in errs] == ["SPEC101"]
        assert errs[0].span is not None and errs[0].span.line == 7

    def test_parse_error_is_spec001(self):
        r = lint_text("[ Type = ; ]", lang="classad")
        assert _errors(r) == ["SPEC001"]

    def test_nonpositive_count_is_spec110(self):
        text = self.BAD_PORT.replace("Count = 4", "Count = 0").replace(
            "cpu.Clock >= 3000 && ", ""
        ).replace("cpu.Clock <= 2000", "cpu.Clock >= 2000")
        r = lint_text(text, lang="classad")
        assert "SPEC110" in _errors(r)

    def test_string_rank_is_spec120(self):
        text = self.BAD_PORT.replace("cpu.Clock >= 3000 && cpu.Clock <= 2000",
                                     "cpu.Clock >= 2000").replace(
            "Rank = cpu.Clock", 'Rank = "fastest"'
        )
        r = lint_text(text, lang="classad")
        assert "SPEC120" in _codes(r)


class TestVgdlChecker:
    def test_bare_string_comparison_is_spec104_error(self):
        # vgDL rewrites unknown bare identifiers to string literals, so
        # `Speed >= 3` silently becomes `"Speed" >= 3` — flag it loudly.
        text = "VG =\nLooseBagOf(nodes) [4:8]\n{\n  nodes = [ (Speed >= 3) ]\n}"
        r = lint_text(text, lang="vgdl")
        assert _errors(r) == ["SPEC104"]
        [d] = [d for d in r if d.code == "SPEC104"]
        assert "string" in d.message.lower()
        assert d.span is not None and d.span.line == 4

    def test_parse_error_is_spec001(self):
        r = lint_text("VG = LooseBagOf(", lang="vgdl")
        assert _errors(r) == ["SPEC001"]

    def test_contradiction_inside_aggregate(self):
        text = (
            "VG =\nLooseBagOf(nodes) [4:8]\n"
            "{\n  nodes = [ (Clock >= 3.0) && (Clock <= 2.0) ]\n}"
        )
        r = lint_text(text, lang="vgdl")
        assert "SPEC101" in _errors(r)


class TestSwordChecker:
    def test_parse_error_is_spec001(self):
        r = lint_text("<request><unclosed></request", lang="sword")
        assert _errors(r) == ["SPEC001"]

    def test_contradictory_duplicate_requirements(self):
        text = """<request>
  <group>
    <name>g</name>
    <num_machines>4</num_machines>
    <clock>3000.0, 3000.0, MAX, MAX, 0.01</clock>
    <clock>0.0, 0.0, 2000.0, 2000.0, 0.01</clock>
  </group>
</request>"""
        r = lint_text(text, lang="sword")
        assert _errors(r) == ["SPEC131"]

    def test_latency_below_physical_floor(self):
        text = """<request>
  <group>
    <name>g</name>
    <num_machines>2</num_machines>
    <latency>0.0, 0.0, 0.1, 0.1, 0.1</latency>
  </group>
</request>"""
        r = lint_text(text, lang="sword")
        assert _errors(r) == ["SPEC133"]

    def test_nonpositive_budget_is_spec130(self):
        text = """<request>
  <dist_query_budget>0</dist_query_budget>
  <group>
    <name>g</name>
    <num_machines>2</num_machines>
  </group>
</request>"""
        r = lint_text(text, lang="sword")
        assert "SPEC130" in _errors(r)


# ----------------------------------------------------------------------
# Malformed input is a SPEC001 finding, never an exception.
# ----------------------------------------------------------------------
def _vgdl(constraint):
    return f"VG =\nLooseBagOf(nodes) [4:8]\n{{\n  nodes = [ {constraint} ]\n}}"


def _sword(name="g", num="2", extra="", budget=""):
    return (
        f"<request>{budget}<group><name>{name}</name>"
        f"<num_machines>{num}</num_machines>{extra}</group></request>"
    )


MALFORMED = {
    "vgdl-unterminated-string": ("vgdl", _vgdl('(Arch == "x86)')),
    "vgdl-stray-dollar": ("vgdl", _vgdl("(Clock >= $)")),
    "vgdl-leading-bom": ("vgdl", "\ufeff" + _vgdl("(Clock >= 2000)")),
    "sword-num-machines-word": ("sword", _sword(num="x")),
    "sword-num-machines-fraction": ("sword", _sword(num="6.5")),
    "sword-word-bound": ("sword", _sword(extra="<clock>fast, 0, MAX, MAX, 0.1</clock>")),
    "sword-word-budget": (
        "sword",
        _sword(budget="<dist_query_budget>lots</dist_query_budget>"),
    ),
    "sword-word-penalty": ("sword", _sword(extra="<os><value>LINUX, zz</value></os>")),
    "sword-empty-name": ("sword", _sword(name="")),
}


@pytest.mark.parametrize("lang,text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_is_one_spec001(lang, text):
    r = lint_text(text, lang=lang)
    assert _codes(r) == ["SPEC001"]
    if lang == "vgdl":  # the lexer's position survives as the span
        assert r.diagnostics[0].span is not None


OUT_OF_RANGE = {
    # Before the lexer rejected them, these crashed while the SPEC102 and
    # SPEC101 messages rendered the bound, and in numeric_bound.
    "classad-dead-clause": (
        "classad",
        "[ Requirements = other.Clock >= 1000 && other.Clock <= 1e309; ]",
    ),
    "classad-contradiction": (
        "classad",
        "[ Requirements = other.Clock >= 1e309 && other.Clock <= 5; ]",
    ),
    "classad-401-digit-int": (
        "classad",
        "[ Requirements = other.Clock >= " + "9" * 401 + "; ]",
    ),
    "vgdl-constraint": ("vgdl", _vgdl("(Clock >= 1000) && (Clock <= 1e309)")),
}


@pytest.mark.parametrize("lang,text", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_number_is_spec001_at_the_literal(lang, text):
    r = lint_text(text, lang=lang)
    [d] = r.diagnostics
    assert d.code == "SPEC001"
    assert d.span is not None and text[d.span.pos :].startswith(("1e309", "999"))


# ----------------------------------------------------------------------
# Language detection and the merged self-check.
# ----------------------------------------------------------------------
class TestFrontDoor:
    def test_detect_by_suffix(self):
        assert detect_language("anything", "spec.vgdl") == "vgdl"
        assert detect_language("anything", "spec.classad") == "classad"
        assert detect_language("anything", "query.xml") == "sword"

    def test_detect_by_content(self):
        assert detect_language("<request/>") == "sword"
        assert detect_language("[ Type = \"Job\" ]") == "classad"
        assert detect_language("virtual grid x") == "vgdl"

    def test_lint_text_rejects_unknown_language(self):
        with pytest.raises(ValueError):
            lint_text("x", lang="cobol")

    def test_analyze_specification_clean_for_generated_like_spec(self):
        from repro.core.generator import ResourceSpecification

        spec = ResourceSpecification(
            heuristic="mcp",
            size=24,
            min_size=20,
            clock_min_mhz=2000.0,
            clock_max_mhz=4000.0,
            connectivity="loose",
            threshold=0.001,
            dag_name="montage",
        )
        report = analyze_specification(spec)
        assert not report.has_errors, report.render()
