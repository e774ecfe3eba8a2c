"""Frozen pre-IR analyzers, kept verbatim for the parity suite.

This module is a byte-faithful copy of the per-language static analyzers
as they existed before the typed constraint IR landed: the
``_ConstraintAnalyzer`` cascade from ``repro.analysis.expr`` plus the
ClassAd/vgDL/SWORD document walkers.  ``tests/test_ir_parity.py`` runs
these against the IR passes and asserts the emitted
``(code, severity, span, message)`` sets are identical over the whole
differential corpus.

Do not "improve" this file: its value is that it does NOT change.  Only
the shared, behavior-free utilities (parsers, ``Interval``,
``fold_constant``, ``infer_type``, fact extractors, ``Span``) are
imported from the live tree — they are the substrate both sides share.
"""

from __future__ import annotations

from repro.analysis.diagnostics import DiagnosticReport, Span
from repro.analysis.ir import (
    DEFAULT_VOCABULARY,
    NONNEGATIVE_ATTRIBUTES,
    _COMPARISON_OPS,
    _IDENT_RE,
    Interval,
    _attr_display,
    _attr_key,
    _walk,
    attr_refs,
    fold_constant,
    infer_type,
    iter_conjuncts,
    iter_disjuncts,
    numeric_bound,
    string_equality,
)
from repro.resources.platform import LATENCY_INTRA_CLUSTER_MS
from repro.selection.classad.evaluator import ErrorValue
from repro.selection.classad.lexer import ClassAdParseError
from repro.selection.classad.parser import (
    AttrRef,
    BinaryOp,
    ClassAd,
    Expr,
    ListExpr,
    Literal,
    RecordExpr,
    parse_classad,
)
from repro.selection.sword import (
    NumericRequirement,
    SwordError,
    SwordQuery,
    parse_sword_query,
)
from repro.selection.vgdl import VgdlError, VgdlSpec, parse_vgdl


class _ConstraintAnalyzer:
    """The pre-IR per-conjunct analysis cascade (frozen copy)."""

    def __init__(
        self,
        *,
        lang: str,
        text: str | None,
        vocab: dict[str, str],
        nonneg: frozenset[str],
        vgdl_bare_strings: bool,
        report: DiagnosticReport,
    ) -> None:
        self.lang = lang
        self.text = text
        self.vocab = vocab
        self.nonneg = nonneg
        self.vgdl_bare_strings = vgdl_bare_strings
        self.report = report
        self.intervals: dict[tuple[str, str], Interval] = {}
        self.interval_names: dict[tuple[str, str], str] = {}
        self.string_eq: dict[tuple[str, str], str] = {}

    def span(self, node: Expr) -> Span | None:
        if self.text is None or node.pos is None:
            return None
        return Span.from_pos(self.text, node.pos)

    def analyze(self, expr: Expr) -> None:
        for conj in iter_conjuncts(expr):
            self._conjunct(conj)

    def _conjunct(self, conj: Expr) -> None:
        suppressed = self._check_types(conj)
        self._check_attr_refs(conj)
        if suppressed:
            return
        if isinstance(conj, BinaryOp) and conj.op == "||":
            self._disjunction(conj)
            return
        folded = fold_constant(conj)
        if folded is not None:
            self._constant(conj, folded)
            return
        bound = numeric_bound(conj)
        if bound is not None:
            self._numeric(conj, *bound)
            return
        eq = string_equality(conj)
        if eq is not None:
            self._string(conj, *eq)

    def _check_types(self, conj: Expr) -> bool:
        emitted = False
        for node in _walk(conj):
            if not (isinstance(node, BinaryOp) and node.op in _COMPARISON_OPS):
                continue
            lt = infer_type(node.left, self.vocab)
            rt = infer_type(node.right, self.vocab)
            if self.vgdl_bare_strings and self._bare_string_numeric(node, lt, rt):
                emitted = True
                continue
            concrete = {"number", "string", "bool"}
            if lt in concrete and rt in concrete and lt != rt:
                self.report.add(
                    "SPEC103",
                    "error",
                    f"comparison {node.unparse()} mixes {lt} and {rt}; "
                    "it always evaluates to ERROR and never matches",
                    self.lang,
                    span=self.span(node),
                )
                emitted = True
        return emitted

    def _bare_string_numeric(self, node: BinaryOp, lt: str, rt: str) -> bool:
        for side, side_t, other_t in ((node.left, lt, rt), (node.right, rt, lt)):
            if (
                isinstance(side, Literal)
                and isinstance(side.value, str)
                and _IDENT_RE.match(side.value)
                and other_t == "number"
            ):
                self.report.add(
                    "SPEC104",
                    "error",
                    f"{side.value!r} is not a known attribute; vgDL treats "
                    "unknown identifiers as string literals, so "
                    f"{node.unparse()} compares a string with a number and "
                    "never matches",
                    self.lang,
                    span=self.span(node),
                    attr=side.value,
                )
                return True
        return False

    def _check_attr_refs(self, conj: Expr) -> None:
        for ref in attr_refs(conj):
            if ref.name.lower() not in self.vocab:
                self.report.add(
                    "SPEC104",
                    "warning",
                    f"attribute {_attr_display(ref)!r} is not provided by any "
                    "backend; it evaluates to UNDEFINED",
                    self.lang,
                    span=self.span(ref),
                    attr=ref.name,
                )

    def _disjunction(self, conj: BinaryOp) -> None:
        branches = list(iter_disjuncts(conj))
        dead = 0
        for branch in branches:
            sub = _ConstraintAnalyzer(
                lang=self.lang,
                text=self.text,
                vocab=self.vocab,
                nonneg=self.nonneg,
                vgdl_bare_strings=self.vgdl_bare_strings,
                report=DiagnosticReport(),
            )
            sub.analyze(branch)
            branch_dead = any(d.code in ("SPEC101", "SPEC105") for d in sub.report)
            if branch_dead:
                dead += 1
                self.report.add(
                    "SPEC106",
                    "warning",
                    f"OR-branch {branch.unparse()} is unsatisfiable on its own "
                    "(dead disjunct)",
                    self.lang,
                    span=self.span(branch),
                )
            for d in sub.report:
                if d.code not in ("SPEC101", "SPEC105", "SPEC102"):
                    self.report.diagnostics.append(d)
        if branches and dead == len(branches):
            self.report.add(
                "SPEC105",
                "error",
                f"every branch of {conj.unparse()} is unsatisfiable; the "
                "clause can never hold",
                self.lang,
                span=self.span(conj),
            )

    def _constant(self, conj: Expr, value: object) -> None:
        is_plain_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if value is False or (is_plain_number and value == 0):
            self.report.add(
                "SPEC105",
                "error",
                f"clause {conj.unparse()} is constant false; the constraint "
                "can never hold",
                self.lang,
                span=self.span(conj),
            )
        elif value is True or (is_plain_number and value != 0):
            self.report.add(
                "SPEC102",
                "warning",
                f"clause {conj.unparse()} is constant true (dead clause)",
                self.lang,
                span=self.span(conj),
            )
        elif isinstance(value, ErrorValue):
            self.report.add(
                "SPEC103",
                "error",
                f"clause {conj.unparse()} always evaluates to ERROR",
                self.lang,
                span=self.span(conj),
            )

    def _numeric(self, conj: Expr, ref: AttrRef, op: str, value: float) -> None:
        attr_t = self.vocab.get(ref.name.lower())
        if attr_t is not None and attr_t != "number":
            return
        new = Interval.from_comparison(op, value)
        if new is None:
            return
        key = _attr_key(ref)
        name = _attr_display(ref)
        if key not in self.intervals and ref.name.lower() in self.nonneg:
            self.intervals[key] = Interval(lo=0.0)
        old = self.intervals.get(key, Interval())
        merged = old.intersect(new)
        self.interval_names[key] = name
        if merged.is_empty and not old.is_empty:
            self.report.add(
                "SPEC101",
                "error",
                f"contradictory constraints on {name}: {conj.unparse()} leaves "
                f"no value in {old.describe(name)}",
                self.lang,
                span=self.span(conj),
                attr=ref.name,
            )
        elif merged == old and not old.is_empty:
            self.report.add(
                "SPEC102",
                "warning",
                f"clause {conj.unparse()} is implied by the domain or earlier "
                f"constraints ({old.describe(name)}); dead clause",
                self.lang,
                span=self.span(conj),
                attr=ref.name,
            )
        self.intervals[key] = merged

    def _string(self, conj: Expr, ref: AttrRef, value: str) -> None:
        key = _attr_key(ref)
        name = _attr_display(ref)
        prev = self.string_eq.get(key)
        if prev is None:
            self.string_eq[key] = value.lower()
        elif prev != value.lower():
            self.report.add(
                "SPEC101",
                "error",
                f"contradictory constraints on {name}: it cannot equal both "
                f"{prev!r} and {value!r}",
                self.lang,
                span=self.span(conj),
                attr=ref.name,
            )
        else:
            self.report.add(
                "SPEC102",
                "warning",
                f"clause {conj.unparse()} repeats an earlier equality (dead "
                "clause)",
                self.lang,
                span=self.span(conj),
                attr=ref.name,
            )


def legacy_analyze_constraint(
    expr: Expr,
    *,
    lang: str,
    text: str | None = None,
    vocab: dict[str, str] | None = None,
    nonneg: frozenset[str] | None = None,
    vgdl_bare_strings: bool = False,
    report: DiagnosticReport | None = None,
) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_constraint``."""
    analyzer = _ConstraintAnalyzer(
        lang=lang,
        text=text,
        vocab=DEFAULT_VOCABULARY if vocab is None else vocab,
        nonneg=NONNEGATIVE_ATTRIBUTES if nonneg is None else nonneg,
        vgdl_bare_strings=vgdl_bare_strings,
        report=DiagnosticReport() if report is None else report,
    )
    analyzer.analyze(expr)
    return analyzer.report


# ----------------------------------------------------------------------
# ClassAd document walker (frozen copy of repro.analysis.classad)
# ----------------------------------------------------------------------
def legacy_analyze_classad_text(text: str) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_classad_text``."""
    report = DiagnosticReport()
    try:
        ad = parse_classad(text)
    except ClassAdParseError as exc:
        span = None if exc.pos is None else Span.from_pos(text, exc.pos)
        report.add("SPEC001", "error", exc.message, "classad", span=span)
        return report
    return legacy_analyze_classad_request(ad, text=text, report=report)


def legacy_analyze_classad_request(
    ad: ClassAd,
    *,
    text: str | None = None,
    report: DiagnosticReport | None = None,
) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_classad_request``."""
    report = DiagnosticReport() if report is None else report
    ports = ad.get("Ports")
    if isinstance(ports, ListExpr):
        for port in ports.items:
            if isinstance(port, RecordExpr):
                _analyze_port(port.ad, text, report)
    _analyze_constraint_attr(ad, "Requirements", text, report)
    _analyze_rank(ad, text, report)
    return report


def _span_of(expr: Expr, text: str | None) -> Span | None:
    if text is None or expr.pos is None:
        return None
    return Span.from_pos(text, expr.pos)


def _analyze_port(port: ClassAd, text: str | None, report: DiagnosticReport) -> None:
    count = port.get("Count")
    if isinstance(count, Literal):
        v = count.value
        ok = isinstance(v, int) and not isinstance(v, bool) and v >= 1
        if not ok:
            report.add(
                "SPEC110",
                "error",
                f"port Count must be a positive integer, got {count.unparse()}",
                "classad",
                span=_span_of(count, text),
                attr="Count",
            )
    _analyze_constraint_attr(port, "Constraint", text, report)
    _analyze_rank(port, text, report)


def _analyze_constraint_attr(
    ad: ClassAd, name: str, text: str | None, report: DiagnosticReport
) -> None:
    expr = ad.get(name)
    if expr is not None:
        legacy_analyze_constraint(expr, lang="classad", text=text, report=report)


def _analyze_rank(ad: ClassAd, text: str | None, report: DiagnosticReport) -> None:
    rank = ad.get("Rank")
    if rank is None:
        return
    if isinstance(rank, AttrRef) and rank.scope is not None:
        return
    if infer_type(rank) == "string":
        report.add(
            "SPEC120",
            "warning",
            f"Rank expression {rank.unparse()} is a string; ranks should be "
            "numeric (higher = better)",
            "classad",
            span=_span_of(rank, text),
            attr="Rank",
        )


# ----------------------------------------------------------------------
# vgDL document walker (frozen copy of repro.analysis.vgdl)
# ----------------------------------------------------------------------
def legacy_analyze_vgdl_text(text: str) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_vgdl_text``."""
    report = DiagnosticReport()
    try:
        spec = parse_vgdl(text)
    except VgdlError as exc:
        span = None if exc.pos is None else Span.from_pos(text, exc.pos)
        report.add("SPEC001", "error", str(exc), "vgdl", span=span)
        return report
    return legacy_analyze_vgdl_spec(spec, text=text, report=report)


def legacy_analyze_vgdl_spec(
    spec: VgdlSpec,
    *,
    text: str | None = None,
    report: DiagnosticReport | None = None,
) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_vgdl_spec``."""
    report = DiagnosticReport() if report is None else report
    for agg in spec.aggregates:
        if agg.lo < 1 or agg.hi < agg.lo:
            report.add(
                "SPEC110",
                "error",
                f"aggregate {agg.var!r} has an invalid size range "
                f"[{agg.lo}:{agg.hi}]",
                "vgdl",
                attr=agg.var,
            )
        if agg.rank is not None and infer_type(agg.rank) == "string":
            report.add(
                "SPEC120",
                "warning",
                f"rank expression {agg.rank.unparse()} of aggregate "
                f"{agg.var!r} is a string; ranks should be numeric",
                "vgdl",
                span=(
                    None
                    if text is None or agg.rank.pos is None
                    else Span.from_pos(text, agg.rank.pos)
                ),
                attr=agg.var,
            )
        legacy_analyze_constraint(
            agg.constraint,
            lang="vgdl",
            text=text,
            vgdl_bare_strings=True,
            report=report,
        )
    return report


# ----------------------------------------------------------------------
# SWORD document walker (frozen copy of repro.analysis.sword)
# ----------------------------------------------------------------------
def _tag_span(text: str | None, tag: str, occurrence: int = 0) -> Span | None:
    if text is None:
        return None
    needle = f"<{tag}>"
    pos = -1
    for _ in range(occurrence + 1):
        pos = text.find(needle, pos + 1)
        if pos < 0:
            return None
    return Span.from_pos(text, pos)


def legacy_analyze_sword_text(text: str) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_sword_text``."""
    report = DiagnosticReport()
    try:
        query = parse_sword_query(text)
    except SwordError as exc:
        report.add("SPEC001", "error", str(exc), "sword")
        return report
    return legacy_analyze_sword_query(query, text=text, report=report)


def legacy_analyze_sword_query(
    query: SwordQuery,
    *,
    text: str | None = None,
    report: DiagnosticReport | None = None,
) -> DiagnosticReport:
    """Frozen copy of the pre-IR ``analyze_sword_query``."""
    report = DiagnosticReport() if report is None else report
    for name, value in (
        ("dist_query_budget", query.dist_query_budget),
        ("optimizer_budget", query.optimizer_budget),
    ):
        if value < 1:
            report.add(
                "SPEC130",
                "error",
                f"{name} must be positive, got {value}; the optimizer would "
                "visit no zones and the query can never be answered",
                "sword",
                span=_tag_span(text, name),
                attr=name,
            )
    for group in query.groups:
        _analyze_group(group, text, report)
    for c in query.constraints:
        if c.latency.required_hi < LATENCY_INTRA_CLUSTER_MS:
            report.add(
                "SPEC133",
                "error",
                f"inter-group latency bound {c.latency.required_hi}ms between "
                f"{c.group_names[0]!r} and {c.group_names[1]!r} is below the "
                f"platform's intra-cluster floor "
                f"({LATENCY_INTRA_CLUSTER_MS}ms); no host pair can satisfy it",
                "sword",
                span=_tag_span(text, "constraint"),
            )
    return report


def _analyze_group(group, text: str | None, report: DiagnosticReport) -> None:
    if group.num_machines < 1:
        report.add(
            "SPEC110",
            "error",
            f"group {group.name!r} requests {group.num_machines} machines; "
            "num_machines must be a positive integer",
            "sword",
            attr=group.name,
        )
    merged: dict[str, NumericRequirement] = {}
    for req in group.numeric:
        prev = merged.get(req.attr)
        if prev is not None:
            lo = max(prev.required_lo, req.required_lo)
            hi = min(prev.required_hi, req.required_hi)
            if lo > hi:
                report.add(
                    "SPEC131",
                    "error",
                    f"group {group.name!r} has contradictory {req.attr} "
                    f"requirements: [{prev.required_lo}, {prev.required_hi}] "
                    f"and [{req.required_lo}, {req.required_hi}] do not "
                    "intersect",
                    "sword",
                    span=_tag_span(text, req.attr, occurrence=1),
                    attr=req.attr,
                )
        merged[req.attr] = req
    hard: dict[str, str] = {}
    for cat in group.categorical:
        if cat.penalty_rate > 0:
            continue
        prev = hard.get(cat.attr)
        if prev is not None and prev != cat.value.lower():
            report.add(
                "SPEC131",
                "error",
                f"group {group.name!r} hard-requires {cat.attr} to equal both "
                f"{prev!r} and {cat.value!r}",
                "sword",
                span=_tag_span(text, cat.attr, occurrence=1),
                attr=cat.attr,
            )
        hard[cat.attr] = cat.value.lower()
    if group.latency is not None and group.latency.required_hi < LATENCY_INTRA_CLUSTER_MS:
        report.add(
            "SPEC133",
            "error",
            f"group {group.name!r} bounds intra-group latency at "
            f"{group.latency.required_hi}ms, below the platform's "
            f"intra-cluster floor ({LATENCY_INTRA_CLUSTER_MS}ms); no zone "
            "can satisfy it",
            "sword",
            span=_tag_span(text, "latency"),
            attr="latency",
        )
