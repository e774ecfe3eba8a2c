"""Analysis passes over the typed constraint IR.

Every semantic check this repo performs on a resource specification —
regardless of which language it arrived in — lives here, written once
against :mod:`repro.analysis.ir`:

* :func:`check_constraint` — the expression-level pass: interval
  contradiction (SPEC101), dead clauses (SPEC102), type mismatches
  (SPEC103), unknown attributes (SPEC104), constant-false clauses
  (SPEC105) and dead OR-branches (SPEC106), with the three-valued-logic
  constant classification (``UNDEFINED`` folds are silent, ``ERROR``
  folds are SPEC103).
* :func:`check_document` — the document-level pass: counts (SPEC110),
  ranks (SPEC120), SWORD budgets (SPEC130), duplicate-requirement
  contradictions (SPEC131) and latency floors (SPEC133), walking scopes
  in source order so diagnostic emission order is reproducible.
* :func:`check_render_equivalence` — the cross-language equivalence
  checker (SPEC140): the rendered forms of one ResourceSpecification
  must lower to the same normalized facts; a drifting renderer fires.
* :func:`check_subsumption` / :func:`subsumes` — the ladder redundancy
  pass (SPEC141): an alternative specification strictly implied by an
  earlier rung is dominated and not worth retrying.

Pass-ordering contract: within one clause, type facts are emitted before
unknown-attribute facts; a type finding suppresses the clause's
contradiction analysis (the historic cascade rule).  Within a document,
scopes are checked in source order, and the per-language check order of
count/rank/constraint matches the historic analyzers (ClassAd ports
check count → constraint → rank; vgDL aggregates check count → rank →
constraint).  These orders are part of the diagnostic-parity contract
enforced by ``tests/test_ir_parity.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.ir import (
    Clause,
    Constraint,
    Document,
    Interval,
    Scope,
)
from repro.selection.classad.evaluator import ErrorValue
from repro.resources.platform import LATENCY_INTRA_CLUSTER_MS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generator import ResourceSpecification

__all__ = [
    "check_constraint",
    "check_document",
    "normalized_facts",
    "check_render_equivalence",
    "subsumes",
    "check_subsumption",
]

#: Codes that mark an OR-branch as unsatisfiable on its own.
_DEAD_BRANCH_CODES = ("SPEC101", "SPEC105")

#: Branch-local codes *not* forwarded out of a disjunction (the
#: contradiction is summarised as SPEC106; dead clauses inside a branch
#: are noise at the top level).
_UNFORWARDED_CODES = ("SPEC101", "SPEC105", "SPEC102")


# ----------------------------------------------------------------------
# Expression-level pass
# ----------------------------------------------------------------------
class _ConstraintState:
    """Mutable interval/equality state threaded through one constraint."""

    __slots__ = ("intervals", "interval_names", "string_eq")

    def __init__(self) -> None:
        self.intervals: dict[tuple[str, str], Interval] = {}
        self.interval_names: dict[tuple[str, str], str] = {}
        self.string_eq: dict[tuple[str, str], str] = {}


def check_constraint(
    constraint: Constraint, report: DiagnosticReport | None = None
) -> DiagnosticReport:
    """Run the semantic pass over one lowered constraint.

    Emits SPEC101–SPEC106 into ``report`` (a fresh one when omitted) and
    returns it.  The constraint must have been lowered with
    ``deep=True`` — shallow (preflight-path) clauses carry no type or
    reference facts and would silently under-report.
    """
    report = DiagnosticReport() if report is None else report
    state = _ConstraintState()
    for clause in constraint.clauses:
        _check_clause(constraint, clause, state, report)
    return report


def _check_clause(
    constraint: Constraint,
    clause: Clause,
    state: _ConstraintState,
    report: DiagnosticReport,
) -> None:
    lang = constraint.lang
    for tf in clause.type_facts:
        if tf.kind == "bare_string":
            report.add(
                "SPEC104",
                "error",
                f"{tf.bare_value!r} is not a known attribute; vgDL treats "
                "unknown identifiers as string literals, so "
                f"{tf.expr.unparse()} compares a string with a number and "
                "never matches",
                lang,
                span=tf.span,
                attr=tf.bare_value,
            )
        else:
            report.add(
                "SPEC103",
                "error",
                f"comparison {tf.expr.unparse()} mixes {tf.left_type} and "
                f"{tf.right_type}; it always evaluates to ERROR and never "
                "matches",
                lang,
                span=tf.span,
            )
    for rf in clause.ref_facts:
        if not rf.known:
            report.add(
                "SPEC104",
                "warning",
                f"attribute {rf.display!r} is not provided by any backend; "
                "it evaluates to UNDEFINED",
                lang,
                span=rf.span,
                attr=rf.name,
            )
    if clause.suppressed:
        return
    if clause.branches is not None:
        _check_disjunction(constraint, clause, report)
        return
    if clause.folded is not None:
        _check_constant(constraint, clause, report)
        return
    if clause.bound is not None:
        _check_numeric(constraint, clause, state, report)
        return
    if clause.eq is not None:
        _check_string(constraint, clause, state, report)


def _check_disjunction(
    constraint: Constraint, clause: Clause, report: DiagnosticReport
) -> None:
    """Check each OR-branch independently; a contradictory branch is a
    dead disjunct (SPEC106), all branches dead is SPEC105."""
    dead = 0
    branches = clause.branches or ()
    for branch in branches:
        sub = check_constraint(branch)
        if any(d.code in _DEAD_BRANCH_CODES for d in sub):
            dead += 1
            report.add(
                "SPEC106",
                "warning",
                f"OR-branch {branch.expr.unparse()} is unsatisfiable on its "
                "own (dead disjunct)",
                constraint.lang,
                span=branch.span,
            )
        # Surface non-contradiction findings (type errors, unknown
        # attributes) from inside the branch; suppress the branch-local
        # contradiction codes already summarised as SPEC106.
        for d in sub:
            if d.code not in _UNFORWARDED_CODES:
                report.diagnostics.append(d)
    if branches and dead == len(branches):
        report.add(
            "SPEC105",
            "error",
            f"every branch of {clause.expr.unparse()} is unsatisfiable; the "
            "clause can never hold",
            constraint.lang,
            span=clause.span,
        )


def _check_constant(
    constraint: Constraint, clause: Clause, report: DiagnosticReport
) -> None:
    """Classify an attribute-free conjunct by its folded value (the
    three-valued-logic rule: UNDEFINED is silent, ERROR is SPEC103)."""
    value = clause.folded
    is_plain_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if value is False or (is_plain_number and value == 0):
        report.add(
            "SPEC105",
            "error",
            f"clause {clause.expr.unparse()} is constant false; the "
            "constraint can never hold",
            constraint.lang,
            span=clause.span,
        )
    elif value is True or (is_plain_number and value != 0):
        report.add(
            "SPEC102",
            "warning",
            f"clause {clause.expr.unparse()} is constant true (dead clause)",
            constraint.lang,
            span=clause.span,
        )
    elif isinstance(value, ErrorValue):
        report.add(
            "SPEC103",
            "error",
            f"clause {clause.expr.unparse()} always evaluates to ERROR",
            constraint.lang,
            span=clause.span,
        )


def _check_numeric(
    constraint: Constraint,
    clause: Clause,
    state: _ConstraintState,
    report: DiagnosticReport,
) -> None:
    """Fold the clause's numeric bound into the running interval."""
    bound = clause.bound
    assert bound is not None
    attr_lower = bound.ref.name.lower()
    attr_t = constraint.vocab.get(attr_lower)
    if attr_t is not None and attr_t != "number":
        # Already reported as SPEC103 by the type facts.
        return
    if bound.interval is None:
        return
    key, name = bound.key, bound.display
    if key not in state.intervals and attr_lower in constraint.nonneg:
        state.intervals[key] = Interval(lo=0.0)
    old = state.intervals.get(key, Interval())
    merged = old.intersect(bound.interval)
    state.interval_names[key] = name
    if merged.is_empty and not old.is_empty:
        report.add(
            "SPEC101",
            "error",
            f"contradictory constraints on {name}: {clause.expr.unparse()} "
            f"leaves no value in {old.describe(name)}",
            constraint.lang,
            span=clause.span,
            attr=bound.ref.name,
        )
    elif merged == old and not old.is_empty:
        report.add(
            "SPEC102",
            "warning",
            f"clause {clause.expr.unparse()} is implied by the domain or "
            f"earlier constraints ({old.describe(name)}); dead clause",
            constraint.lang,
            span=clause.span,
            attr=bound.ref.name,
        )
    state.intervals[key] = merged


def _check_string(
    constraint: Constraint,
    clause: Clause,
    state: _ConstraintState,
    report: DiagnosticReport,
) -> None:
    """Track string equalities; conflicting duplicates contradict."""
    eq = clause.eq
    assert eq is not None
    key, name = eq.key, eq.display
    prev = state.string_eq.get(key)
    if prev is None:
        state.string_eq[key] = eq.value.lower()
    elif prev != eq.value.lower():
        report.add(
            "SPEC101",
            "error",
            f"contradictory constraints on {name}: it cannot equal both "
            f"{prev!r} and {eq.value!r}",
            constraint.lang,
            span=clause.span,
            attr=eq.ref.name,
        )
    else:
        report.add(
            "SPEC102",
            "warning",
            f"clause {clause.expr.unparse()} repeats an earlier equality "
            "(dead clause)",
            constraint.lang,
            span=clause.span,
            attr=eq.ref.name,
        )


# ----------------------------------------------------------------------
# Document-level pass
# ----------------------------------------------------------------------
def check_document(
    doc: Document, report: DiagnosticReport | None = None
) -> DiagnosticReport:
    """Run every semantic pass over one lowered document.

    Walks budgets, then scopes in source order, then inter-group links,
    dispatching the per-scope check order by scope kind so the emitted
    diagnostic sequence matches the historic per-language analyzers.
    """
    report = DiagnosticReport() if report is None else report
    for budget in doc.budgets:
        if budget.value < 1:
            report.add(
                "SPEC130",
                "error",
                f"{budget.name} must be positive, got {budget.value}; the "
                "optimizer would visit no zones and the query can never be "
                "answered",
                doc.lang,
                span=budget.span,
                attr=budget.name,
            )
    for scope in doc.scopes:
        _check_scope(doc, scope, report)
    for link in doc.links:
        if link.latency.required_hi < LATENCY_INTRA_CLUSTER_MS:
            report.add(
                "SPEC133",
                "error",
                f"inter-group latency bound {link.latency.required_hi}ms "
                f"between {link.group_names[0]!r} and "
                f"{link.group_names[1]!r} is below the platform's "
                f"intra-cluster floor ({LATENCY_INTRA_CLUSTER_MS}ms); no "
                "host pair can satisfy it",
                doc.lang,
                span=link.span,
            )
    return report


def _check_scope(doc: Document, scope: Scope, report: DiagnosticReport) -> None:
    if scope.kind == "port":
        _check_count(doc, scope, report)
        if scope.constraint is not None:
            check_constraint(scope.constraint, report)
        _check_rank_classad(doc, scope, report)
    elif scope.kind == "request":
        if scope.constraint is not None:
            check_constraint(scope.constraint, report)
        _check_rank_classad(doc, scope, report)
    elif scope.kind == "aggregate":
        _check_count(doc, scope, report)
        _check_rank_vgdl(doc, scope, report)
        if scope.constraint is not None:
            check_constraint(scope.constraint, report)
    elif scope.kind == "group":
        _check_count(doc, scope, report)
        _check_group_ranges(doc, scope, report)
        _check_group_categoricals(doc, scope, report)
        _check_group_latency(doc, scope, report)
    elif scope.constraint is not None:
        # spec/json scopes: only the lowered constraint to check.
        check_constraint(scope.constraint, report)


def _check_count(doc: Document, scope: Scope, report: DiagnosticReport) -> None:
    count = scope.count
    if count is None or count.valid:
        return
    if scope.kind == "port":
        report.add(
            "SPEC110",
            "error",
            f"port Count must be a positive integer, got {count.render}",
            doc.lang,
            span=count.span,
            attr="Count",
        )
    elif scope.kind == "aggregate":
        report.add(
            "SPEC110",
            "error",
            f"aggregate {scope.name!r} has an invalid size range "
            f"[{count.lo}:{count.hi}]",
            doc.lang,
            attr=scope.name,
        )
    elif scope.kind == "group":
        report.add(
            "SPEC110",
            "error",
            f"group {scope.name!r} requests {count.value} machines; "
            "num_machines must be a positive integer",
            doc.lang,
            attr=scope.name,
        )
    else:
        report.add(
            "SPEC110",
            "error",
            f"specification {scope.name!r} has an invalid size band "
            f"[{count.lo}:{count.hi}]",
            doc.lang,
            attr=scope.name,
        )


def _check_rank_classad(
    doc: Document, scope: Scope, report: DiagnosticReport
) -> None:
    rank = scope.rank
    if rank is None or rank.scoped:
        # A bare scoped/port reference (cpu.Clock) or number is fine.
        return
    if rank.is_string:
        report.add(
            "SPEC120",
            "warning",
            f"Rank expression {rank.expr.unparse()} is a string; ranks "
            "should be numeric (higher = better)",
            doc.lang,
            span=rank.span,
            attr="Rank",
        )


def _check_rank_vgdl(doc: Document, scope: Scope, report: DiagnosticReport) -> None:
    rank = scope.rank
    if rank is not None and rank.is_string:
        report.add(
            "SPEC120",
            "warning",
            f"rank expression {rank.expr.unparse()} of aggregate "
            f"{scope.name!r} is a string; ranks should be numeric",
            doc.lang,
            span=rank.span,
            attr=scope.name,
        )


def _check_group_ranges(
    doc: Document, scope: Scope, report: DiagnosticReport
) -> None:
    """Duplicate numeric requirements on one attribute: the engine
    applies them all, so disjoint required ranges contradict."""
    merged: dict[str, object] = {}
    for fact in scope.ranges:
        prev = merged.get(fact.attr)
        if prev is not None:
            lo = max(prev.required_lo, fact.required_lo)
            hi = min(prev.required_hi, fact.required_hi)
            if lo > hi:
                report.add(
                    "SPEC131",
                    "error",
                    f"group {scope.name!r} has contradictory {fact.attr} "
                    f"requirements: [{prev.required_lo}, "
                    f"{prev.required_hi}] and [{fact.required_lo}, "
                    f"{fact.required_hi}] do not intersect",
                    doc.lang,
                    span=fact.dup_span,
                    attr=fact.attr,
                )
        merged[fact.attr] = fact


def _check_group_categoricals(
    doc: Document, scope: Scope, report: DiagnosticReport
) -> None:
    """Duplicate hard categorical requirements with different values."""
    hard: dict[str, str] = {}
    for cat in scope.categoricals:
        if cat.penalty_rate > 0:
            continue
        prev = hard.get(cat.attr)
        if prev is not None and prev != cat.value.lower():
            report.add(
                "SPEC131",
                "error",
                f"group {scope.name!r} hard-requires {cat.attr} to equal "
                f"both {prev!r} and {cat.value!r}",
                doc.lang,
                span=cat.dup_span,
                attr=cat.attr,
            )
        hard[cat.attr] = cat.value.lower()


def _check_group_latency(
    doc: Document, scope: Scope, report: DiagnosticReport
) -> None:
    latency = scope.latency
    if latency is not None and latency.required_hi < LATENCY_INTRA_CLUSTER_MS:
        report.add(
            "SPEC133",
            "error",
            f"group {scope.name!r} bounds intra-group latency at "
            f"{latency.required_hi}ms, below the platform's intra-cluster "
            f"floor ({LATENCY_INTRA_CLUSTER_MS}ms); no zone can satisfy it",
            doc.lang,
            span=latency.span,
            attr="latency",
        )


# ----------------------------------------------------------------------
# SPEC140 — cross-language render equivalence
# ----------------------------------------------------------------------
#: The normalized fact keys each language can actually express; a
#: language is only held to the facts its syntax can carry.
EXPRESSIBLE_FACTS: Mapping[str, frozenset[str]] = {
    "vgdl": frozenset(
        {"count_lo", "count_hi", "clock_floor_mhz", "rank", "connectivity"}
    ),
    "classad": frozenset({"count_hi", "clock_floor_mhz", "os", "rank"}),
    "sword": frozenset(
        {"count_hi", "clock_floor_mhz", "clock_desired_mhz", "os", "latency_cap_ms"}
    ),
    "json": frozenset(
        {"count_lo", "count_hi", "clock_floor_mhz", "clock_desired_mhz", "connectivity"}
    ),
}

#: Fact keys compared with a numeric tolerance (renderers round clocks
#: to whole MHz / one decimal; latency tuples carry one decimal).
_NUMERIC_FACTS = frozenset(
    {"count_lo", "count_hi", "clock_floor_mhz", "clock_desired_mhz", "latency_cap_ms"}
)
_NUMERIC_TOLERANCE = 0.5


def normalized_facts(doc: Document) -> dict[str, object]:
    """Extract the language-neutral facts a lowered document encodes.

    Returns a dict with any of: ``count_lo``/``count_hi`` (requested
    machine band), ``clock_floor_mhz`` (hard clock lower bound),
    ``clock_desired_mhz`` (soft clock target), ``os`` (hard OS equality,
    lowercased), ``latency_cap_ms`` (hard intra-group latency bound),
    ``rank`` (``"numeric"``/``"string"``), ``connectivity``.  Only facts
    the document actually carries appear, so comparing two languages
    means comparing the intersection their syntaxes can express.
    """
    facts: dict[str, object] = {}
    for scope in doc.scopes:
        _scope_facts(scope, facts)
    return facts


def _scope_facts(scope: Scope, facts: dict[str, object]) -> None:
    count = scope.count
    if count is not None and count.valid:
        if count.lo is not None:
            facts.setdefault("count_lo", float(count.lo))
        hi = count.hi if count.hi is not None else count.value
        if isinstance(hi, (int, float)) and not isinstance(hi, bool):
            facts.setdefault("count_hi", float(hi))
    if scope.rank is not None:
        facts.setdefault("rank", "string" if scope.rank.is_string else "numeric")
    if scope.connectivity is not None:
        facts.setdefault("connectivity", scope.connectivity)
    if scope.constraint is not None:
        for clause in scope.constraint.clauses:
            bound = clause.bound
            if (
                bound is not None
                and bound.ref.name.lower() == "clock"
                and bound.op in (">=", ">")
            ):
                facts.setdefault("clock_floor_mhz", bound.value)
            eq = clause.eq
            if eq is not None and eq.ref.name.lower() in ("opsys", "os"):
                facts.setdefault("os", eq.value.lower())
    for fact in scope.ranges:
        if fact.attr == "clock":
            facts.setdefault("clock_floor_mhz", fact.required_lo)
            facts.setdefault("clock_desired_mhz", fact.desired_lo)
    for cat in scope.categoricals:
        if cat.attr == "os" and cat.penalty_rate <= 0:
            facts.setdefault("os", cat.value.lower())
    if scope.latency is not None:
        facts.setdefault("latency_cap_ms", scope.latency.required_hi)


def _reference_facts(spec: "ResourceSpecification") -> dict[str, object]:
    """The normalized facts the generator *intends* every rendering to
    carry, derived straight from the specification's fields and the
    renderer constants (single source of truth for SPEC140)."""
    from repro.core.generator import SWORD_LATENCY_TUPLES, TARGET_OS

    latency_cap = float(SWORD_LATENCY_TUPLES[spec.connectivity].split(",")[3])
    return {
        "count_lo": float(spec.min_size),
        "count_hi": float(spec.size),
        "clock_floor_mhz": float(spec.clock_min_mhz),
        "clock_desired_mhz": float(spec.clock_max_mhz),
        "os": TARGET_OS.lower(),
        "latency_cap_ms": latency_cap,
        "rank": "numeric",
        "connectivity": spec.connectivity,
    }


def _facts_match(key: str, expected: object, actual: object) -> bool:
    if key in _NUMERIC_FACTS:
        try:
            return abs(float(actual) - float(expected)) <= _NUMERIC_TOLERANCE
        except (TypeError, ValueError):
            return False
    return expected == actual


def check_render_equivalence(
    spec: "ResourceSpecification",
    report: DiagnosticReport | None = None,
    docs: Mapping[str, Document] | None = None,
) -> DiagnosticReport:
    """SPEC140: every rendering of ``spec`` must lower to the same IR.

    Renders the specification in all three languages plus the JSON
    document form (or reuses pre-lowered documents via ``docs``),
    lowers each, extracts :func:`normalized_facts`, and compares every
    language's expressible subset against the reference facts derived
    from the specification fields.  Any divergence is renderer drift —
    a standing regression net over ``to_vgdl``/``to_classad``/
    ``to_sword_xml``/``to_dict``.
    """
    from repro.analysis import ir

    report = DiagnosticReport() if report is None else report
    reference = _reference_facts(spec)
    renderings = {
        "vgdl": spec.to_vgdl,
        "classad": spec.to_classad,
        "sword": spec.to_sword_xml,
        "json": None,
    }
    for lang in ("vgdl", "classad", "sword", "json"):
        doc = docs.get(lang) if docs is not None else None
        if doc is None:
            if lang == "json":
                doc = ir.lower_spec_dict(spec.to_dict())
            else:
                doc = ir.lower_document(renderings[lang](), lang)
        if doc is None:
            report.add(
                "SPEC140",
                "error",
                f"the {lang} rendering of specification {spec.dag_name!r} "
                "does not parse, so cross-language equivalence cannot hold",
                lang,
            )
            continue
        actual = normalized_facts(doc)
        for key in sorted(EXPRESSIBLE_FACTS[lang]):
            expected = reference[key]
            got = actual.get(key)
            if got is None or not _facts_match(key, expected, got):
                report.add(
                    "SPEC140",
                    "error",
                    f"renderer drift: the {lang} rendering of specification "
                    f"{spec.dag_name!r} lowers {key} to {got!r} but the "
                    f"specification requires {expected!r}",
                    lang,
                    attr=key,
                )
    return report


# ----------------------------------------------------------------------
# SPEC141 — alternative-specification subsumption
# ----------------------------------------------------------------------
def subsumes(a: "ResourceSpecification", b: "ResourceSpecification") -> bool:
    """True when ``a`` (an earlier ladder rung) dominates ``b``.

    ``a`` subsumes ``b`` when every platform that could satisfy ``b``
    necessarily satisfies ``a``: ``a`` needs no more hosts, accepts a
    clock range at least as wide, and imposes connectivity no stricter.
    If the ladder already failed ``a``, retrying ``b`` is pointless.
    Equality counts as domination (an identical rung is redundant).
    """
    return (
        (a.connectivity == b.connectivity or a.connectivity == "loose")
        and a.clock_min_mhz <= b.clock_min_mhz
        and a.clock_max_mhz >= b.clock_max_mhz
        and a.min_size <= b.min_size
        and a.size <= b.size
    )


def _spec_brief(spec: "ResourceSpecification") -> str:
    return (
        f"size=[{spec.min_size}:{spec.size}], "
        f"clock=[{spec.clock_min_mhz:.0f}, {spec.clock_max_mhz:.0f}] MHz, "
        f"{spec.connectivity}"
    )


def check_subsumption(
    specs: Iterable["ResourceSpecification"],
    report: DiagnosticReport | None = None,
) -> DiagnosticReport:
    """SPEC141: flag ladder rungs dominated by an earlier rung.

    ``specs`` is the respecification ladder in retry order (original
    first).  Each rung strictly implied by an earlier one yields one
    SPEC141 warning naming both rungs; the pipeline uses the same
    :func:`subsumes` predicate to skip the dominated retry entirely.
    """
    report = DiagnosticReport() if report is None else report
    seen: list["ResourceSpecification"] = []
    for idx, spec in enumerate(specs):
        for earlier_idx, earlier in enumerate(seen):
            if subsumes(earlier, spec):
                report.add(
                    "SPEC141",
                    "warning",
                    f"ladder rung {idx} ({_spec_brief(spec)}) is subsumed by "
                    f"rung {earlier_idx} ({_spec_brief(earlier)}); the "
                    "ladder would retry a dominated specification",
                    "spec",
                )
                break
        seen.append(spec)
    return report
