"""The typed constraint IR and its per-language lowering frontends.

Every specification language this repo speaks — vgDL collections, Condor
ClassAd (gangmatch and bilateral) requests, SWORD XML queries, and plain
JSON :meth:`~repro.core.generator.ResourceSpecification.to_dict`
documents — lowers into one typed intermediate representation, and every
analysis (the SPEC### semantic passes, the platform preflight, the index
planner's clause splitter, the cross-language equivalence checker) runs
*once* over that IR instead of once per language.

The design rule is **facts, not decisions**: a lowered :class:`Clause`
carries *all* of its extracted facts — the folded constant value, the
normalised numeric bound, the string equality, the lowered OR-branches,
the type-mismatch and attribute-reference facts — and each pass applies
its own precedence over them.  That matters because the semantic
analyzer and the index planner genuinely classify clauses differently
(the analyzer treats a top-level ``||`` as a disjunction before trying
to fold it; the planner folds first), and the IR must not bake either
ordering in.

Lowering invariants:

* **Spans are resolved at lowering time.**  Passes never touch source
  text; every fact that can carry a source location already does.
* **Source expressions are preserved.**  Each clause keeps the exact
  sub-AST it came from (``Clause.expr``), so diagnostic messages can
  ``unparse()`` it and the preflight/evaluator can execute it.
* **Conjunct order is the ``&&`` chain's left-to-right leaf order** —
  the same order :func:`iter_conjuncts` yields, so pass output order is
  reproducible and matches the historic analyzers.
* ``deep=False`` lowering (the platform preflight's path) skips the
  analysis-only facts (types, references, branches, spans) and extracts
  only the clause-classification facts; no selection engine consults
  the index planner that shares them.

The expression helpers the facts are built from live here too: the
attribute vocabulary, :class:`Interval` arithmetic (whose boundary case
``Clock >= 2.0 && Clock <= 2.0`` is the non-empty point ``[2.0, 2.0]``,
as in :mod:`repro.selection.classad.evaluator`), constant folding, type
inference and the clause fact extractors the index planner
(:mod:`repro.selection.index`) shares.
"""

from __future__ import annotations

import json as _json
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

from repro.analysis.diagnostics import DiagnosticReport, Span
from repro.selection.classad.evaluator import (
    ErrorValue,
    EvalContext,
    Undefined,
    evaluate,
)
from repro.selection.classad.lexer import ClassAdParseError
from repro.selection.classad.parser import (
    AttrRef,
    BinaryOp,
    ClassAd,
    Expr,
    FuncCall,
    ListExpr,
    Literal,
    RecordExpr,
    Ternary,
    UnaryOp,
    parse_classad,
)
from repro.selection.sword import SwordError, SwordQuery, parse_sword_query
from repro.selection.vgdl import VgdlError, VgdlSpec, parse_vgdl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generator import ResourceSpecification

__all__ = [
    "DEFAULT_VOCABULARY",
    "NONNEGATIVE_ATTRIBUTES",
    "Interval",
    "iter_conjuncts",
    "iter_disjuncts",
    "attr_refs",
    "fold_constant",
    "infer_type",
    "numeric_bound",
    "string_equality",
    "TypeFact",
    "RefFact",
    "NumericBoundFact",
    "StringEqualityFact",
    "Clause",
    "Constraint",
    "CountFact",
    "RankFact",
    "RangeFact",
    "CatFact",
    "BudgetFact",
    "LinkFact",
    "Scope",
    "Document",
    "lower_expression",
    "lower_classad",
    "lower_classad_text",
    "lower_vgdl",
    "lower_vgdl_text",
    "lower_sword",
    "lower_sword_text",
    "lower_specification",
    "lower_spec_dict",
    "lower_json_text",
    "lower_document",
]

_COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: The concrete static types a comparison can mismatch between.
_CONCRETE_TYPES = frozenset({"number", "string", "bool"})


# ----------------------------------------------------------------------
# Vocabulary, intervals and expression helpers
# ----------------------------------------------------------------------
#: Attribute → type vocabulary: every name a host advertises (the one
#: attribute model, :meth:`repro.resources.platform.Platform.host_attributes`,
#: which every backend's ads project), the job-request side, Condor's
#: ``Mips`` and the expression-valued ``Requirements``/``Rank``.  Keys
#: are lowercase.
DEFAULT_VOCABULARY: dict[str, str] = {
    # numeric
    "clock": "number",
    "clockghz": "number",
    "memory": "number",
    "freemem": "number",
    "freedisk": "number",
    "disk": "number",
    "kflops": "number",
    "nodes": "number",
    "loadavg": "number",
    "cpuload": "number",
    "keyboardidle": "number",
    "clusterid": "number",
    "hostid": "number",
    "imagesize": "number",
    "count": "number",
    "mips": "number",
    # string
    "arch": "string",
    "opsys": "string",
    "os": "string",
    "region": "string",
    "name": "string",
    "machine": "string",
    "type": "string",
    "cluster": "string",
    "processor": "string",
    "owner": "string",
    "cmd": "string",
    # expression-valued (type depends on the ad)
    "requirements": "bool",
    "rank": "number",
}

#: Attributes whose physical domain is ``[0, +inf)`` — a clause like
#: ``Clock >= 0`` is therefore dead (SPEC102) rather than informative.
NONNEGATIVE_ATTRIBUTES: frozenset[str] = frozenset(
    {
        "clock",
        "clockghz",
        "memory",
        "freemem",
        "freedisk",
        "disk",
        "kflops",
        "nodes",
        "loadavg",
        "cpuload",
        "keyboardidle",
        "imagesize",
        "count",
        "mips",
    }
)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_FLIPPED_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}

@dataclass(frozen=True)
class Interval:
    """A numeric interval with independently open/closed endpoints.

    ``lo``/``hi`` may be ``-inf``/``+inf``; ``lo_open``/``hi_open`` record
    strictness, so ``Clock > 2000`` is ``(2000, +inf)`` while
    ``Clock >= 2000`` is ``[2000, +inf)``.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    @classmethod
    def from_comparison(cls, op: str, value: float) -> "Interval | None":
        """Interval implied by ``attr OP value``; ``None`` when the operator
        constrains nothing representable (``!=``)."""
        if op == ">=":
            return cls(lo=value)
        if op == ">":
            return cls(lo=value, lo_open=True)
        if op == "<=":
            return cls(hi=value)
        if op == "<":
            return cls(hi=value, hi_open=True)
        if op == "==":
            return cls(lo=value, hi=value)
        return None

    @property
    def is_empty(self) -> bool:
        """True when no number lies in the interval (boundary equality
        ``[c, c]`` is non-empty)."""
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return False

    def intersect(self, other: "Interval") -> "Interval":
        """The intersection of two intervals (possibly empty)."""
        if other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        elif other.lo < self.lo:
            lo, lo_open = self.lo, self.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        elif other.hi > self.hi:
            hi, hi_open = self.hi, self.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def describe(self, name: str = "x") -> str:
        """Human-readable constraint, e.g. ``2000 <= Clock < 4000``."""
        parts = []
        if self.lo != -math.inf:
            parts.append(f"{_fmt_num(self.lo)} {'<' if self.lo_open else '<='} ")
        parts.append(name)
        if self.hi != math.inf:
            parts.append(f" {'<' if self.hi_open else '<='} {_fmt_num(self.hi)}")
        if len(parts) == 1:
            return f"{name} unconstrained"
        return "".join(parts)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def iter_conjuncts(expr: Expr) -> Iterator[Expr]:
    """Yield the leaves of a ``&&`` chain (the expression itself when it is
    not a conjunction)."""
    if isinstance(expr, BinaryOp) and expr.op == "&&":
        yield from iter_conjuncts(expr.left)
        yield from iter_conjuncts(expr.right)
    else:
        yield expr


def iter_disjuncts(expr: Expr) -> Iterator[Expr]:
    """Yield the leaves of a ``||`` chain."""
    if isinstance(expr, BinaryOp) and expr.op == "||":
        yield from iter_disjuncts(expr.left)
        yield from iter_disjuncts(expr.right)
    else:
        yield expr


def _walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order walk over every node of the expression tree."""
    yield expr
    if isinstance(expr, UnaryOp):
        yield from _walk(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from _walk(expr.left)
        yield from _walk(expr.right)
    elif isinstance(expr, Ternary):
        yield from _walk(expr.cond)
        yield from _walk(expr.then)
        yield from _walk(expr.other)
    elif isinstance(expr, (ListExpr,)):
        for item in expr.items:
            yield from _walk(item)
    elif isinstance(expr, FuncCall):
        for arg in expr.args:
            yield from _walk(arg)
    elif isinstance(expr, RecordExpr):
        for _, sub in expr.ad.items():
            yield from _walk(sub)


def attr_refs(expr: Expr) -> list[AttrRef]:
    """All attribute references anywhere in the expression tree."""
    return [node for node in _walk(expr) if isinstance(node, AttrRef)]


def fold_constant(expr: Expr) -> object | None:
    """Evaluate ``expr`` when it contains no attribute references.

    Returns the evaluated value (which may be the UNDEFINED or ERROR
    sentinel), or ``None`` when the expression depends on attributes and
    cannot be folded.
    """
    if attr_refs(expr):
        return None
    return evaluate(expr, EvalContext(my=ClassAd()))


def infer_type(expr: Expr, vocab: Mapping[str, str] | None = None) -> str:
    """Best-effort static type: ``number``/``string``/``bool``/``undefined``
    /``error``/``list``/``record``/``unknown``."""
    vocab = DEFAULT_VOCABULARY if vocab is None else vocab
    if isinstance(expr, Literal):
        v = expr.value
        if isinstance(v, bool):
            return "bool"
        if isinstance(v, (int, float)):
            return "number"
        if isinstance(v, str):
            return "string"
        if isinstance(v, Undefined):
            return "undefined"
        if isinstance(v, ErrorValue):
            return "error"
        return "unknown"
    if isinstance(expr, AttrRef):
        return vocab.get(expr.name.lower(), "unknown")
    if isinstance(expr, UnaryOp):
        return "bool" if expr.op == "!" else "number"
    if isinstance(expr, BinaryOp):
        if expr.op in ("&&", "||", "=?=", "=!=") or expr.op in _COMPARISON_OPS:
            return "bool"
        if expr.op == "+":
            lt = infer_type(expr.left, vocab)
            rt = infer_type(expr.right, vocab)
            if lt == "string" and rt == "string":
                return "string"
            return "number"
        return "number"
    if isinstance(expr, Ternary):
        then_t = infer_type(expr.then, vocab)
        other_t = infer_type(expr.other, vocab)
        return then_t if then_t == other_t else "unknown"
    if isinstance(expr, ListExpr):
        return "list"
    if isinstance(expr, RecordExpr):
        return "record"
    if isinstance(expr, FuncCall):
        name = expr.name.lower()
        if name in ("isundefined", "iserror"):
            return "bool"
        if name == "strcat":
            return "string"
        if name in ("floor", "ceiling", "round", "min", "max", "size"):
            return "number"
        return "unknown"
    return "unknown"


# ----------------------------------------------------------------------
# Clause fact extractors
# ----------------------------------------------------------------------
def numeric_bound(conj: Expr) -> tuple[AttrRef, str, float] | None:
    """Decompose ``attr OP number`` / ``number OP attr`` conjuncts.

    Returns ``(ref, op, value)`` with ``op`` normalised so the attribute
    sits on the left (``3 < Clock`` becomes ``Clock > 3``), or ``None``
    when the conjunct is not a numeric bound.  This is the typed clause
    fact the interval analysis *and* the index planner
    (:mod:`repro.selection.index`) both consume.
    """
    if not (isinstance(conj, BinaryOp) and conj.op in ("<", "<=", ">", ">=", "==")):
        return None
    left, right = conj.left, conj.right
    if isinstance(left, AttrRef) and _is_number_literal(right):
        return left, conj.op, float(right.value)  # type: ignore[union-attr, arg-type]
    if isinstance(right, AttrRef) and _is_number_literal(left):
        return right, _FLIPPED_OP[conj.op], float(left.value)  # type: ignore[union-attr, arg-type]
    return None


def string_equality(conj: Expr) -> tuple[AttrRef, str] | None:
    """Decompose ``attr == "value"`` / ``"value" == attr`` conjuncts.

    The second clause-fact extractor shared by the static analyzer and
    the index planner; the returned value is *not* lowercased (the ClassAd
    evaluator compares strings case-insensitively, so consumers decide).
    """
    if not (isinstance(conj, BinaryOp) and conj.op == "=="):
        return None
    left, right = conj.left, conj.right
    if isinstance(left, AttrRef) and isinstance(right, Literal) and isinstance(right.value, str):
        return left, right.value
    if isinstance(right, AttrRef) and isinstance(left, Literal) and isinstance(left.value, str):
        return right, left.value
    return None


def _is_number_literal(expr: Expr) -> bool:
    return (
        isinstance(expr, Literal)
        and isinstance(expr.value, (int, float))
        and not isinstance(expr.value, bool)
    )


def _attr_key(ref: AttrRef) -> tuple[str, str]:
    return ((ref.scope or "").lower(), ref.name.lower())


def _attr_display(ref: AttrRef) -> str:
    return f"{ref.scope}.{ref.name}" if ref.scope else ref.name


# ----------------------------------------------------------------------
# Expression-level IR nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TypeFact:
    """One type finding on a comparison node.

    ``kind`` is ``"mismatch"`` (the two sides have different concrete
    types — the comparison always evaluates to ERROR) or
    ``"bare_string"`` (the vgDL frontend rewrote an unknown identifier
    into a string literal that is being compared with a number).
    """

    kind: str
    expr: Expr
    left_type: str
    right_type: str
    bare_value: str | None = None
    span: Span | None = None


@dataclass(frozen=True)
class RefFact:
    """One attribute reference inside a clause, resolved against the
    vocabulary (``known`` records whether any backend advertises it)."""

    ref: AttrRef
    name: str
    display: str
    known: bool
    span: Span | None = None


@dataclass(frozen=True)
class NumericBoundFact:
    """A clause of shape ``attr OP number`` with the operator normalised
    so the attribute sits on the left, plus its implied interval."""

    ref: AttrRef
    op: str
    value: float
    interval: Interval | None
    key: tuple[str, str]
    display: str


@dataclass(frozen=True)
class StringEqualityFact:
    """A clause of shape ``attr == "value"`` (value *not* lowercased —
    ClassAd string comparison is case-insensitive, consumers decide)."""

    ref: AttrRef
    value: str
    key: tuple[str, str]
    display: str


@dataclass(frozen=True)
class Clause:
    """One ``&&``-conjunct of a lowered constraint, with all its facts.

    At most one of ``folded``/``bound``/``eq`` is populated (they are
    mutually exclusive by construction: a foldable clause has no
    attribute references, and a numeric-bound clause compares against a
    number literal while a string equality compares against a string).
    ``branches`` is populated when the clause is a top-level ``||``
    chain, with each disjunct lowered as its own :class:`Constraint`.
    """

    expr: Expr
    span: Span | None = None
    type_facts: tuple[TypeFact, ...] = ()
    ref_facts: tuple[RefFact, ...] = ()
    branches: tuple["Constraint", ...] | None = None
    folded: object | None = None
    bound: NumericBoundFact | None = None
    eq: StringEqualityFact | None = None

    @property
    def suppressed(self) -> bool:
        """True when a type finding suppresses downstream analysis of
        this clause (mirrors the historic analyzer's cascade rule)."""
        return bool(self.type_facts)


@dataclass(frozen=True)
class Constraint:
    """A lowered boolean constraint: its clauses plus lowering context.

    ``strict`` records the top-level evaluation rule: a single-clause
    constraint must evaluate to exactly ``True``, while conjuncts inside
    an ``&&`` chain coerce numbers to booleans.  ``vocab``/``nonneg``/
    ``vgdl_bare_strings`` are the lowering parameters, carried along so
    passes need no out-of-band configuration.
    """

    expr: Expr
    clauses: tuple[Clause, ...]
    strict: bool
    lang: str = "classad"
    span: Span | None = None
    vocab: Mapping[str, str] = field(default_factory=lambda: DEFAULT_VOCABULARY)
    nonneg: frozenset[str] = NONNEGATIVE_ATTRIBUTES
    vgdl_bare_strings: bool = False


# ----------------------------------------------------------------------
# Document-level IR nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CountFact:
    """A requested machine count: a ClassAd port ``Count``, a vgDL
    aggregate size range, a SWORD ``num_machines``, or a specification's
    ``[min_size:size]`` band.  ``valid`` is the language's own
    positivity rule; ``render`` is the source rendering for messages."""

    lo: int | None = None
    hi: int | None = None
    value: object | None = None
    valid: bool = True
    render: str | None = None
    span: Span | None = None


@dataclass(frozen=True)
class RankFact:
    """A rank expression plus the facts the rank checks consume."""

    expr: Expr
    is_string: bool
    scoped: bool = False
    span: Span | None = None


@dataclass(frozen=True)
class RangeFact:
    """One SWORD 5-tuple numeric requirement (required/desired ranges
    plus penalty rate).  ``dup_span`` pre-resolves the span the
    duplicate-requirement diagnostic attaches to (the second occurrence
    of the attribute's tag)."""

    attr: str
    required_lo: float
    required_hi: float
    desired_lo: float
    desired_hi: float
    rate: float
    span: Span | None = None
    dup_span: Span | None = None


@dataclass(frozen=True)
class CatFact:
    """One SWORD categorical requirement (hard when ``penalty_rate`` is
    zero or negative)."""

    attr: str
    value: str
    penalty_rate: float
    dup_span: Span | None = None


@dataclass(frozen=True)
class BudgetFact:
    """One SWORD optimizer/distributed-query budget."""

    name: str
    value: int
    span: Span | None = None


@dataclass(frozen=True)
class LinkFact:
    """One SWORD inter-group latency constraint."""

    group_names: tuple[str, str]
    latency: RangeFact
    span: Span | None = None


@dataclass(frozen=True)
class Scope:
    """One matching scope of a document: a gangmatch port, a vgDL
    aggregate, a SWORD group, a bilateral/top-level request, or a whole
    :class:`~repro.core.generator.ResourceSpecification`.

    ``label`` is the port label the candidate machine is referenced
    through (``cpu.Clock``); ``min_hosts`` is the scope's hard host
    floor for the capacity preflight.
    """

    kind: str
    name: str | None = None
    label: str | None = None
    count: CountFact | None = None
    rank: RankFact | None = None
    constraint: Constraint | None = None
    min_hosts: int = 1
    connectivity: str | None = None
    ranges: tuple[RangeFact, ...] = ()
    categoricals: tuple[CatFact, ...] = ()
    latency: RangeFact | None = None


@dataclass(frozen=True)
class Document:
    """A whole lowered specification document.

    ``scopes`` preserve source order (ports before the bilateral
    request scope, aggregates and groups in declaration order) because
    diagnostic emission order is part of the analyzer's contract.
    ``source`` keeps the parsed language object (ClassAd, VgdlSpec,
    SwordQuery or ResourceSpecification) for consumers that need the
    original, e.g. the JSON frontend's normalized-fact extraction.
    """

    lang: str
    scopes: tuple[Scope, ...]
    text: str | None = None
    budgets: tuple[BudgetFact, ...] = ()
    links: tuple[LinkFact, ...] = ()
    source: object | None = None


# ----------------------------------------------------------------------
# Expression lowering
# ----------------------------------------------------------------------
def _span(text: str | None, pos: int | None) -> Span | None:
    if text is None or pos is None:
        return None
    return Span.from_pos(text, pos)


def _type_facts(
    conj: Expr,
    text: str | None,
    vocab: Mapping[str, str],
    vgdl_bare_strings: bool,
) -> tuple[TypeFact, ...]:
    """Type facts for every comparison in ``conj``, in pre-order.

    Replicates the historic cascade exactly: the vgDL bare-string rule
    is tried first (left side, then right; at most one fact per node),
    and only nodes it does not claim can yield a mismatch fact.
    """
    facts: list[TypeFact] = []
    for node in _walk(conj):
        if not (isinstance(node, BinaryOp) and node.op in _COMPARISON_OPS):
            continue
        lt = infer_type(node.left, vocab)
        rt = infer_type(node.right, vocab)
        if vgdl_bare_strings and _bare_string_fact(facts, node, lt, rt, text):
            continue
        if lt in _CONCRETE_TYPES and rt in _CONCRETE_TYPES and lt != rt:
            facts.append(
                TypeFact(
                    kind="mismatch",
                    expr=node,
                    left_type=lt,
                    right_type=rt,
                    span=_span(text, node.pos),
                )
            )
    return tuple(facts)


def _bare_string_fact(
    facts: list[TypeFact], node: BinaryOp, lt: str, rt: str, text: str | None
) -> bool:
    """Append a bare-string fact when one side is an identifier-shaped
    string literal compared against a number; True when claimed."""
    for side, side_t, other_t in ((node.left, lt, rt), (node.right, rt, lt)):
        if (
            isinstance(side, Literal)
            and isinstance(side.value, str)
            and _IDENT_RE.match(side.value)
            and other_t == "number"
        ):
            facts.append(
                TypeFact(
                    kind="bare_string",
                    expr=node,
                    left_type=lt,
                    right_type=rt,
                    bare_value=side.value,
                    span=_span(text, node.pos),
                )
            )
            return True
    return False


def _ref_facts(
    conj: Expr, text: str | None, vocab: Mapping[str, str]
) -> tuple[RefFact, ...]:
    facts = []
    for ref in attr_refs(conj):
        facts.append(
            RefFact(
                ref=ref,
                name=ref.name,
                display=_attr_display(ref),
                known=ref.name.lower() in vocab,
                span=_span(text, ref.pos),
            )
        )
    return tuple(facts)


def _bound_fact(conj: Expr) -> NumericBoundFact | None:
    bound = numeric_bound(conj)
    if bound is None:
        return None
    ref, op, value = bound
    return NumericBoundFact(
        ref=ref,
        op=op,
        value=value,
        interval=Interval.from_comparison(op, value),
        key=_attr_key(ref),
        display=_attr_display(ref),
    )


def _eq_fact(conj: Expr) -> StringEqualityFact | None:
    eq = string_equality(conj)
    if eq is None:
        return None
    ref, value = eq
    return StringEqualityFact(
        ref=ref, value=value, key=_attr_key(ref), display=_attr_display(ref)
    )


def lower_expression(
    expr: Expr,
    *,
    lang: str = "classad",
    text: str | None = None,
    vocab: Mapping[str, str] | None = None,
    nonneg: frozenset[str] | None = None,
    vgdl_bare_strings: bool = False,
    deep: bool = True,
) -> Constraint:
    """Lower one boolean constraint expression into the IR.

    With ``deep=True`` (the analysis path) every clause carries type,
    reference and branch facts plus source spans.  With ``deep=False``
    (the platform preflight and the index planner) only the
    clause-classification facts are extracted — folded constant,
    numeric bound, string equality — and each is computed lazily in the
    planner's precedence order, so the cost matches the historic fact
    extractors exactly.
    """
    vocab = DEFAULT_VOCABULARY if vocab is None else vocab
    nonneg = NONNEGATIVE_ATTRIBUTES if nonneg is None else nonneg
    strict = not (isinstance(expr, BinaryOp) and expr.op == "&&")
    clauses: list[Clause] = []
    for conj in iter_conjuncts(expr):
        if deep:
            clauses.append(
                _lower_clause_deep(conj, lang, text, vocab, nonneg, vgdl_bare_strings)
            )
        else:
            folded = fold_constant(conj)
            bound = _bound_fact(conj) if folded is None else None
            eq = _eq_fact(conj) if folded is None and bound is None else None
            clauses.append(Clause(expr=conj, folded=folded, bound=bound, eq=eq))
    return Constraint(
        expr=expr,
        clauses=tuple(clauses),
        strict=strict,
        lang=lang,
        span=_span(text, expr.pos) if deep else None,
        vocab=vocab,
        nonneg=nonneg,
        vgdl_bare_strings=vgdl_bare_strings,
    )


def _lower_clause_deep(
    conj: Expr,
    lang: str,
    text: str | None,
    vocab: Mapping[str, str],
    nonneg: frozenset[str],
    vgdl_bare_strings: bool,
) -> Clause:
    type_facts = _type_facts(conj, text, vocab, vgdl_bare_strings)
    ref_facts = _ref_facts(conj, text, vocab)
    branches: tuple[Constraint, ...] | None = None
    folded: object | None = None
    bound: NumericBoundFact | None = None
    eq: StringEqualityFact | None = None
    if not type_facts:
        if isinstance(conj, BinaryOp) and conj.op == "||":
            branches = tuple(
                lower_expression(
                    b,
                    lang=lang,
                    text=text,
                    vocab=vocab,
                    nonneg=nonneg,
                    vgdl_bare_strings=vgdl_bare_strings,
                )
                for b in iter_disjuncts(conj)
            )
        else:
            folded = fold_constant(conj)
            if folded is None:
                bound = _bound_fact(conj)
                if bound is None:
                    eq = _eq_fact(conj)
    return Clause(
        expr=conj,
        span=_span(text, conj.pos),
        type_facts=type_facts,
        ref_facts=ref_facts,
        branches=branches,
        folded=folded,
        bound=bound,
        eq=eq,
    )


# ----------------------------------------------------------------------
# ClassAd frontend
# ----------------------------------------------------------------------
def _port_label(port: ClassAd) -> str | None:
    label = port.get("Label")
    if isinstance(label, AttrRef) and label.scope is None:
        return label.name
    if isinstance(label, Literal) and isinstance(label.value, str):
        return label.value
    return None


def _classad_count(port: ClassAd, text: str | None) -> tuple[CountFact | None, int]:
    """The port's Count fact (literal counts only) and its host floor."""
    count = port.get("Count")
    if not isinstance(count, Literal):
        return None, 1
    v = count.value
    valid = isinstance(v, int) and not isinstance(v, bool) and v >= 1
    fact = CountFact(
        value=v,
        valid=valid,
        render=count.unparse(),
        span=_span(text, count.pos),
    )
    return fact, int(v) if valid else 1


def _classad_rank(ad: ClassAd, text: str | None) -> RankFact | None:
    rank = ad.get("Rank")
    if rank is None:
        return None
    return RankFact(
        expr=rank,
        is_string=infer_type(rank) == "string",
        scoped=isinstance(rank, AttrRef) and rank.scope is not None,
        span=_span(text, rank.pos),
    )


def lower_classad(ad: ClassAd, *, text: str | None = None) -> Document:
    """Lower a parsed ClassAd request (gangmatch ports plus the
    bilateral top-level ``Requirements``/``Rank``) into a Document."""
    scopes: list[Scope] = []
    ports = ad.get("Ports")
    if isinstance(ports, ListExpr):
        for port in ports.items:
            if not isinstance(port, RecordExpr):
                continue
            pad = port.ad
            count, need = _classad_count(pad, text)
            constraint = pad.get("Constraint")
            scopes.append(
                Scope(
                    kind="port",
                    label=_port_label(pad),
                    count=count,
                    rank=_classad_rank(pad, text),
                    constraint=(
                        None
                        if constraint is None
                        else lower_expression(constraint, lang="classad", text=text)
                    ),
                    min_hosts=need,
                )
            )
    requirements = ad.get("Requirements")
    scopes.append(
        Scope(
            kind="request",
            constraint=(
                None
                if requirements is None
                else lower_expression(requirements, lang="classad", text=text)
            ),
            rank=_classad_rank(ad, text),
            min_hosts=1,
        )
    )
    return Document(lang="classad", scopes=tuple(scopes), text=text, source=ad)


def lower_classad_text(
    text: str, report: DiagnosticReport | None = None
) -> Document | None:
    """Parse + lower a ClassAd document; a parse failure adds SPEC001 to
    ``report`` and returns None."""
    try:
        ad = parse_classad(text)
    except ClassAdParseError as exc:
        if report is not None:
            span = None if exc.pos is None else Span.from_pos(text, exc.pos)
            report.add("SPEC001", "error", exc.message, "classad", span=span)
        return None
    return lower_classad(ad, text=text)


# ----------------------------------------------------------------------
# vgDL frontend
# ----------------------------------------------------------------------
_VGDL_CONNECTIVITY = {"TightBagOf": "tight", "LooseBagOf": "loose"}


def lower_vgdl(spec: VgdlSpec, *, text: str | None = None) -> Document:
    """Lower a parsed vgDL specification into a Document (one scope per
    aggregate, constraints lowered with the bare-string rewrite rule)."""
    scopes = []
    for agg in spec.aggregates:
        rank = None
        if agg.rank is not None:
            rank = RankFact(
                expr=agg.rank,
                is_string=infer_type(agg.rank) == "string",
                span=_span(text, agg.rank.pos),
            )
        scopes.append(
            Scope(
                kind="aggregate",
                name=agg.var,
                count=CountFact(
                    lo=agg.lo, hi=agg.hi, valid=not (agg.lo < 1 or agg.hi < agg.lo)
                ),
                rank=rank,
                constraint=lower_expression(
                    agg.constraint, lang="vgdl", text=text, vgdl_bare_strings=True
                ),
                min_hosts=agg.lo,
                connectivity=_VGDL_CONNECTIVITY.get(agg.kind),
            )
        )
    return Document(lang="vgdl", scopes=tuple(scopes), text=text, source=spec)


def lower_vgdl_text(
    text: str, report: DiagnosticReport | None = None
) -> Document | None:
    """Parse + lower a vgDL document; a parse failure adds SPEC001 to
    ``report`` and returns None."""
    try:
        spec = parse_vgdl(text)
    except VgdlError as exc:
        if report is not None:
            span = None if exc.pos is None else Span.from_pos(text, exc.pos)
            report.add("SPEC001", "error", str(exc), "vgdl", span=span)
        return None
    return lower_vgdl(spec, text=text)


# ----------------------------------------------------------------------
# SWORD frontend
# ----------------------------------------------------------------------
def _tag_span(text: str | None, tag: str, occurrence: int = 0) -> Span | None:
    """Best-effort span of the ``occurrence``-th ``<tag>`` in the source
    (ElementTree drops offsets, so spans are recovered textually)."""
    if text is None:
        return None
    needle = f"<{tag}>"
    pos = -1
    for _ in range(occurrence + 1):
        pos = text.find(needle, pos + 1)
        if pos < 0:
            return None
    return Span.from_pos(text, pos)


def _range_fact(req, text: str | None, tag: str) -> RangeFact:
    return RangeFact(
        attr=req.attr,
        required_lo=req.required_lo,
        required_hi=req.required_hi,
        desired_lo=req.desired_lo,
        desired_hi=req.desired_hi,
        rate=req.rate,
        span=_tag_span(text, tag),
        dup_span=_tag_span(text, tag, occurrence=1),
    )


def lower_sword(query: SwordQuery, *, text: str | None = None) -> Document:
    """Lower a parsed SWORD query into a Document: budgets, one scope
    per group (5-tuple ranges, categoricals, intra-group latency), and
    inter-group latency links."""
    budgets = tuple(
        BudgetFact(name=name, value=value, span=_tag_span(text, name))
        for name, value in (
            ("dist_query_budget", query.dist_query_budget),
            ("optimizer_budget", query.optimizer_budget),
        )
    )
    scopes = []
    for group in query.groups:
        cats = tuple(
            CatFact(
                attr=cat.attr,
                value=cat.value,
                penalty_rate=cat.penalty_rate,
                dup_span=_tag_span(text, cat.attr, occurrence=1),
            )
            for cat in group.categorical
        )
        scopes.append(
            Scope(
                kind="group",
                name=group.name,
                count=CountFact(
                    value=group.num_machines, valid=group.num_machines >= 1
                ),
                ranges=tuple(
                    _range_fact(req, text, req.attr) for req in group.numeric
                ),
                categoricals=cats,
                latency=(
                    None
                    if group.latency is None
                    else _range_fact(group.latency, text, "latency")
                ),
                min_hosts=group.num_machines,
            )
        )
    links = tuple(
        LinkFact(
            group_names=c.group_names,
            latency=_range_fact(c.latency, text, "constraint"),
            span=_tag_span(text, "constraint"),
        )
        for c in query.constraints
    )
    return Document(
        lang="sword",
        scopes=tuple(scopes),
        text=text,
        budgets=budgets,
        links=links,
        source=query,
    )


def lower_sword_text(
    text: str, report: DiagnosticReport | None = None
) -> Document | None:
    """Parse + lower a SWORD XML document; a parse failure adds SPEC001
    to ``report`` (without a span — ElementTree drops offsets) and
    returns None."""
    try:
        query = parse_sword_query(text)
    except SwordError as exc:
        if report is not None:
            report.add("SPEC001", "error", str(exc), "sword")
        return None
    return lower_sword(query, text=text)


# ----------------------------------------------------------------------
# Specification / JSON frontend — the "fourth frontend is cheap" proof
# ----------------------------------------------------------------------
def lower_specification(
    spec: "ResourceSpecification", *, lang: str = "spec"
) -> Document:
    """Lower a generated ResourceSpecification directly into the IR —
    no rendering, no parsing.  The single scope carries the size band,
    the hard clock floor and the connectivity class, which is everything
    the semantic passes, the preflight and the equivalence checker need.
    """
    from repro.selection.classad.parser import parse_expression

    constraint = parse_expression(f"Clock >= {spec.clock_min_mhz:.0f}")
    scope = Scope(
        kind="spec",
        name=spec.dag_name,
        count=CountFact(
            lo=spec.min_size,
            hi=spec.size,
            value=spec.size,
            valid=1 <= spec.min_size <= spec.size,
        ),
        constraint=lower_expression(constraint, lang=lang),
        min_hosts=spec.min_size,
        connectivity=spec.connectivity,
        # The soft clock ceiling is a desired (not required) bound, the
        # same shape the SWORD frontend lowers its clock 5-tuple to.
        ranges=(
            RangeFact(
                attr="clock",
                required_lo=float(spec.clock_min_mhz),
                required_hi=float("inf"),
                desired_lo=float(spec.clock_max_mhz),
                desired_hi=float("inf"),
                rate=0.01,
            ),
        ),
    )
    return Document(lang=lang, scopes=(scope,), source=spec)


def lower_spec_dict(data: dict, *, text: str | None = None) -> Document:
    """Lower a ``to_dict()``-shaped mapping; raises ``ValueError`` on an
    invalid specification (unknown/missing fields, bad ranges)."""
    from repro.core.generator import ResourceSpecification

    spec = ResourceSpecification.from_dict(data)
    doc = lower_specification(spec, lang="json")
    return Document(
        lang="json",
        scopes=doc.scopes,
        text=text,
        source=spec,
    )


def lower_json_text(
    text: str, report: DiagnosticReport | None = None
) -> Document | None:
    """Parse + lower a JSON specification document; malformed JSON or an
    invalid specification adds SPEC001 to ``report`` and returns None."""
    try:
        data = _json.loads(text)
    except ValueError as exc:
        if report is not None:
            report.add(
                "SPEC001", "error", f"invalid JSON: {exc}", "json"
            )
        return None
    try:
        return lower_spec_dict(data, text=text)
    except (ValueError, TypeError) as exc:
        if report is not None:
            report.add("SPEC001", "error", str(exc), "json")
        return None


#: Language name → text-lowering frontend.  Adding a frontend here is
#: all it takes for ``repro lint`` and the preflight to speak it.
_FRONTENDS = {
    "vgdl": lower_vgdl_text,
    "classad": lower_classad_text,
    "sword": lower_sword_text,
    "json": lower_json_text,
}


def lower_document(
    text: str, lang: str, report: DiagnosticReport | None = None
) -> Document | None:
    """Lower a specification document of language ``lang`` into the IR.

    Parse failures add SPEC001 to ``report`` and return None.  Raises
    ``ValueError`` for a language no frontend understands.
    """
    frontend = _FRONTENDS.get(lang)
    if frontend is None:
        raise ValueError(
            f"unknown specification language {lang!r} (known: {tuple(_FRONTENDS)})"
        )
    return frontend(text, report)
