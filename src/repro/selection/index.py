"""Indexed candidate pruning for ClassAd matchmaking.

The ClassAd matchmaker answers *which ads satisfy this boolean
constraint?* once per request port.  The naive answer walks the ads one at
a time and interprets the expression per ad.  This module provides the
indexed answer in two pieces:

:class:`HostIndex`
    A columnar snapshot of a machine population (machine ClassAds or the
    platform's host table): float64 columns with a *sorted index* per
    numeric attribute and an *inverted index* (value → sorted row ids) per
    string attribute.

:func:`plan_constraint`
    A constraint-to-index planner consuming the typed clause facts the
    constraint IR extracts (a shallow
    :func:`repro.analysis.ir.lower_expression` pass): range/equality
    conjuncts on machine-side attributes become interval/equality probes
    answered in O(log n) by :meth:`HostIndex.candidates`; everything else
    (Rank, Gangmatch cross-port references, disjunctions, request-shadowed
    attributes) stays in the plan's *residual*, which callers evaluate with
    the ordinary per-host evaluator over the surviving candidates only.
    Contradictory conjuncts (``Clock >= 4000 && Clock < 3000``) short-circuit
    to an empty candidate set without evaluating anything.

No engine consults the index or the planner.  vgES, SWORD and the ClassAd
:class:`~repro.selection.classad.Matchmaker` scan their candidates: a
select builds its engine afresh, so an index would be built and probed
once per select and costs about as much as the scan it replaces.  The
module stays importable only because the benchmark's tracer wraps
:meth:`HostIndex.from_ads`, :meth:`HostIndex.from_platform` and the
:func:`plan_constraint` names the matchmaker and vgDL modules import.

Equivalence contract
--------------------
For the match predicates in this repo — ``evaluate(expr, ctx) is True`` —
a conjunction is TRUE iff *every* conjunct's logical value is TRUE, so
splitting the ``&&`` chain into an indexed fragment and a residual is
exact, not approximate.  Two asymmetries are handled explicitly:

* a conjunct *inside* an ``&&`` chain coerces numbers to booleans
  (``5`` counts as TRUE — :func:`repro.selection.classad.evaluator.as_logical`)
  while a *single-clause* constraint must evaluate to exactly ``True``;
  :attr:`IndexPlan.strict` records which rule applies;
* an ad attribute bound to a non-literal expression cannot be indexed;
  such rows are *opaque* for that attribute: they always survive pruning
  and are re-checked against the full constraint, never the residual.

The index never changes *what* matches — callers must keep candidate
iteration in ascending row order so result ordering and tie-breaking stay
bit-identical to the naive scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.selection.classad.evaluator import EvalContext, as_logical, evaluate
from repro.selection.classad.parser import AttrRef, ClassAd, Expr, Literal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.ir import Interval
    from repro.resources.platform import Platform

__all__ = [
    "HostIndex",
    "IndexPlan",
    "plan_constraint",
    "residual_ok",
]

_EMPTY = np.empty(0, dtype=np.int64)


def _clause_facts():
    """The IR's clause-fact lowering, imported lazily.

    ``repro.analysis`` imports the selection front ends, which import this
    module — a top-level import here would close that cycle during package
    initialisation.  By first call everything is initialised.
    """
    from repro.analysis.ir import Interval, lower_expression

    return Interval, lower_expression


# ----------------------------------------------------------------------
# Columns
# ----------------------------------------------------------------------
@dataclass
class _NumericColumn:
    """One numeric attribute: values plus a sorted index over defined rows."""

    values: np.ndarray  # float64; NaN where the row has no numeric value
    order: np.ndarray  # row ids with defined values, ascending by value

    @classmethod
    def build(cls, values: np.ndarray) -> "_NumericColumn":
        values = np.asarray(values, dtype=np.float64)
        defined = np.flatnonzero(~np.isnan(values))
        order = defined[np.argsort(values[defined], kind="stable")]
        return cls(values=values, order=order)

    def range_rows(self, interval: "Interval") -> np.ndarray:
        """Rows whose value lies in ``interval`` (ascending row order).

        Two ``searchsorted`` probes over the sorted index — O(log n) plus
        the size of the answer; open/closed endpoints map to the probe
        side, so ``Clock > 2000`` and ``Clock >= 2000`` differ exactly as
        the evaluator's ``>`` / ``>=`` do.
        """
        sorted_vals = self.values[self.order]
        lo = np.searchsorted(
            sorted_vals, interval.lo, side="right" if interval.lo_open else "left"
        )
        hi = np.searchsorted(
            sorted_vals, interval.hi, side="left" if interval.hi_open else "right"
        )
        if hi <= lo:
            return _EMPTY
        return np.sort(self.order[lo:hi])


@dataclass
class _CategoricalColumn:
    """One string attribute: inverted index from lowercased value to rows."""

    groups: dict[str, np.ndarray]  # lowercased value -> ascending row ids

    @classmethod
    def build(cls, pairs: Mapping[str, list[int]]) -> "_CategoricalColumn":
        return cls(
            groups={
                value: np.asarray(sorted(rows), dtype=np.int64)
                for value, rows in pairs.items()
            }
        )

    def equal_rows(self, value: str) -> np.ndarray:
        """Rows equal to ``value`` (ClassAd strings compare case-insensitively)."""
        return self.groups.get(value.lower(), _EMPTY)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass
class IndexPlan:
    """What the planner extracted from one boolean constraint.

    ``intervals`` and ``equalities`` are the indexable fragment (lowercase
    attribute → merged :class:`~repro.analysis.ir.Interval` / lowercased
    string value); ``residual`` holds the conjuncts only the evaluator can
    answer.  ``contradiction`` means the constraint can match nothing —
    statically-false clause, empty merged interval, or two different
    equality values — and the candidate set is empty *without* evaluation.
    """

    intervals: dict[str, "Interval"] = field(default_factory=dict)
    equalities: dict[str, str] = field(default_factory=dict)
    residual: list[Expr] = field(default_factory=list)
    contradiction: bool = False
    #: Clause facts consumed by the index (decides :attr:`prunes`).
    indexed_clauses: int = 0
    #: True when the constraint was a single clause: its value must be
    #: exactly ``True`` (top-level rule), with no numeric truthiness.
    strict: bool = False

    @property
    def prunes(self) -> bool:
        """Whether the indexed path can do better than a naive scan."""
        return self.contradiction or self.indexed_clauses > 0

    @property
    def attrs(self) -> set[str]:
        """Lowercase attributes the indexed fragment touches."""
        return set(self.intervals) | set(self.equalities)


def _machine_side(
    ref: AttrRef, request: ClassAd | None, machine_scopes: frozenset[str]
) -> bool:
    """True when ``ref`` is guaranteed to resolve in the machine ad.

    Scoped references are machine-side iff the scope names the machine
    (``TARGET`` for bilateral matching, the port's own label during
    gangmatching, ``MY``/``SELF`` when the constraint is evaluated in the
    machine's own context).  Unscoped references resolve MY-first, so they
    are machine-side only when the request ad does *not* shadow the name.
    """
    if ref.scope is not None:
        return ref.scope.lower() in machine_scopes
    return request is None or ref.name not in request


def plan_constraint(
    expr: Expr | None,
    *,
    request: ClassAd | None = None,
    machine_scopes: Iterable[str] = ("target",),
) -> IndexPlan:
    """Compile a boolean constraint into an :class:`IndexPlan`.

    ``request`` is the ad on the MY side of the evaluation (used to detect
    attribute shadowing); ``machine_scopes`` are the scope names that
    resolve to the machine being tested.  A ``None`` constraint yields an
    empty plan (matches every row, nothing indexed).
    """
    Interval, lower_expression = _clause_facts()
    plan = IndexPlan()
    if expr is None:
        return plan
    scopes = frozenset(s.lower() for s in machine_scopes)
    # Shallow lowering extracts exactly the planner's clause facts —
    # folded constant, numeric bound (with its interval), string
    # equality — in the planner's precedence order, with no spans or
    # analysis-only facts on the hot path.
    lowered = lower_expression(expr, deep=False)
    plan.strict = lowered.strict
    for clause in lowered.clauses:
        if clause.folded is not None:
            folded = clause.folded
            truthy = folded is True if plan.strict else as_logical(folded) is True
            plan.indexed_clauses += 1
            if not truthy:
                plan.contradiction = True
            continue
        bound = clause.bound
        if bound is not None and _machine_side(bound.ref, request, scopes):
            if bound.interval is not None:
                key = bound.ref.name.lower()
                merged = plan.intervals.get(key, Interval()).intersect(bound.interval)
                plan.intervals[key] = merged
                plan.indexed_clauses += 1
                if merged.is_empty:
                    plan.contradiction = True
                continue
        eq = clause.eq
        if eq is not None and _machine_side(eq.ref, request, scopes):
            key = eq.ref.name.lower()
            prev = plan.equalities.get(key)
            if prev is None:
                plan.equalities[key] = eq.value.lower()
            elif prev != eq.value.lower():
                plan.contradiction = True
            plan.indexed_clauses += 1
            continue
        plan.residual.append(clause.expr)
    return plan


def residual_ok(plan: IndexPlan, ctx: EvalContext) -> bool:
    """Evaluate a plan's residual conjuncts in ``ctx``.

    Mirrors the ``&&`` chain's semantics exactly: every residual conjunct's
    logical value must be TRUE (strict ``is True`` for single-clause
    constraints — see :attr:`IndexPlan.strict`).
    """
    for conj in plan.residual:
        v = evaluate(conj, ctx)
        ok = v is True if plan.strict else as_logical(v) is True
        if not ok:
            return False
    return True


# ----------------------------------------------------------------------
# The index
# ----------------------------------------------------------------------
@dataclass
class HostIndex:
    """Sorted + inverted attribute indexes over a machine population.

    Rows are positions in the population the index was built from (list
    index for ads, host id for a platform).  ``opaque`` records, per
    attribute, the rows whose value is a non-literal expression: those
    rows always survive pruning on that attribute and must be re-checked
    against the *full* constraint by the caller (the second element of
    :meth:`candidates`' return value).
    """

    n: int
    numeric: dict[str, _NumericColumn] = field(default_factory=dict)
    categorical: dict[str, _CategoricalColumn] = field(default_factory=dict)
    opaque: dict[str, np.ndarray] = field(default_factory=dict)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_ads(cls, ads: Sequence[ClassAd]) -> "HostIndex":
        """Columnar index over a list of ClassAds (matchmaker population).

        Numeric literals feed the sorted indexes, string literals the
        inverted indexes; boolean / UNDEFINED / ERROR literals index
        nowhere (they satisfy no comparison, exactly like the evaluator);
        non-literal expressions make the row opaque for that attribute.
        """
        n = len(ads)
        numeric_vals: dict[str, np.ndarray] = {}
        cat_rows: dict[str, dict[str, list[int]]] = {}
        opaque_rows: dict[str, list[int]] = {}
        for row, ad in enumerate(ads):
            for name, expr in ad.items():
                key = name.lower()
                if not isinstance(expr, Literal):
                    opaque_rows.setdefault(key, []).append(row)
                    continue
                v = expr.value
                if isinstance(v, bool):
                    continue
                if isinstance(v, (int, float)):
                    col = numeric_vals.get(key)
                    if col is None:
                        col = numeric_vals[key] = np.full(n, np.nan)
                    col[row] = float(v)
                elif isinstance(v, str):
                    cat_rows.setdefault(key, {}).setdefault(v.lower(), []).append(row)
        return cls(
            n=n,
            numeric={k: _NumericColumn.build(v) for k, v in numeric_vals.items()},
            categorical={k: _CategoricalColumn.build(v) for k, v in cat_rows.items()},
            opaque={
                k: np.asarray(rows, dtype=np.int64) for k, rows in opaque_rows.items()
            },
        )

    @classmethod
    def from_platform(cls, platform: "Platform") -> "HostIndex":
        """Index the platform's host table (row = host id).

        Columns mirror :meth:`repro.resources.platform.Platform.host_attributes`
        (and therefore the machine ads of
        :func:`repro.selection.classad.builders.machine_ad`).
        """
        table = platform.host_table()
        numeric: dict[str, _NumericColumn] = {}
        categorical: dict[str, _CategoricalColumn] = {}
        for name, column in table.items():
            if column.dtype.kind in "if":
                numeric[name] = _NumericColumn.build(column.astype(np.float64))
            else:
                groups: dict[str, list[int]] = {}
                for value in np.unique(column):
                    rows = np.flatnonzero(column == value)
                    # ClassAd string equality is case-insensitive; merge
                    # raw values that differ only in case.
                    groups.setdefault(str(value).lower(), []).extend(rows.tolist())
                categorical[name] = _CategoricalColumn.build(groups)
        return cls(n=platform.n_hosts, numeric=numeric, categorical=categorical)

    # -- queries ---------------------------------------------------------
    def candidates(self, plan: IndexPlan) -> tuple[np.ndarray, np.ndarray]:
        """Rows that can possibly satisfy ``plan``'s indexed fragment.

        Returns ``(rows, full_rows)``, both ascending: ``rows`` is the
        pruned candidate set; ``full_rows`` is the
        subset that was admitted through an *opaque* attribute and must be
        re-checked against the full constraint instead of the residual.
        A contradictory plan yields two empty arrays.
        """
        if plan.contradiction:
            return _EMPTY, _EMPTY
        sets: list[np.ndarray] = []
        needs_full = _EMPTY
        for attr, interval in plan.intervals.items():
            col = self.numeric.get(attr)
            rows = col.range_rows(interval) if col is not None else _EMPTY
            rows, needs_full = self._admit_opaque(attr, rows, needs_full)
            sets.append(rows)
        for attr, value in plan.equalities.items():
            col = self.categorical.get(attr)
            rows = col.equal_rows(value) if col is not None else _EMPTY
            rows, needs_full = self._admit_opaque(attr, rows, needs_full)
            sets.append(rows)
        if sets:
            out = sets[0]
            for s in sets[1:]:
                out = np.intersect1d(out, s, assume_unique=True)
        else:
            out = np.arange(self.n, dtype=np.int64)
        needs_full = np.intersect1d(needs_full, out, assume_unique=True)
        return out, needs_full

    def _admit_opaque(
        self, attr: str, rows: np.ndarray, needs_full: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        opaque = self.opaque.get(attr)
        if opaque is None or opaque.size == 0:
            return rows, needs_full
        return np.union1d(rows, opaque), np.union1d(needs_full, opaque)
