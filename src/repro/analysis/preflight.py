"""Platform-aware satisfiability preflight over the constraint IR.

Given a platform snapshot, answer *statically* — without binding anything
or advancing any clock — whether a specification can possibly be
fulfilled, and when it cannot, report *which clause eliminates the last
host*.  The checks are deliberately sound-only: clause-by-clause host
elimination, then capacity — do enough matching hosts exist at all?

Every input is first lowered into a :class:`repro.analysis.ir.Document`
(:func:`~repro.analysis.ir.lower_document` for a document of any
frontend language, :func:`~repro.analysis.ir.lower_specification` for a
generated spec, whose one scope states the clock floor on at least
``min_size`` hosts).  SWORD group scopes eliminate clusters with the
masks SWORD's engine applies to its
:func:`~repro.selection.sword.cluster_table`.  Every other scope is
judged by its engine's rule, on one ad per cluster (clusters are
homogeneous), in the context that engine builds:

* vgDL aggregates, generated specs and JSON documents on
  :func:`~repro.selection.vgdl.cluster_ads`, the ad as ``MY``, as
  :meth:`~repro.selection.vgdl.VgES.matching_clusters` does;
* ClassAd ports on
  :func:`~repro.selection.classad.builders.machine_templates`, the
  request as ``MY`` and the template as ``TARGET`` and as the port's
  label, as a gangmatch judges a candidate with nothing bound yet (it
  never reads the request's ``Requirements``); a ClassAd request without
  ports by its ``Requirements``, the template as ``TARGET``, as
  :meth:`~repro.selection.classad.matchmaker.Matchmaker.satisfies` does.

A host holds iff its constraint is TRUE: a lone clause must be TRUE, and
an ``&&`` chain is TRUE iff every clause is after
:func:`~repro.selection.classad.evaluator.as_logical`.  A template
differs from its machine ads only in the per-host names, which it holds
as ``None``: a clause that may read one, or in a port another port's
label (bound to a machine the preflight cannot know), keeps every
cluster.  A machine's own ``Requirements``, ``LoadAvg <= 0.5``, holds on
every cluster.

Connectivity, latency-zone packing and contention are *not* modelled
here: a spec this module calls unsatisfiable is genuinely hopeless on the
platform, while a "satisfiable" verdict still may fail dynamically.  That
one-sidedness is what lets :class:`~repro.selection.pipeline
.SelectionPipeline` prune ladder rungs without ever skipping a
fulfillable alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis import ir
from repro.resources.platform import PER_HOST_ATTRIBUTES
from repro.selection.classad.builders import machine_templates
from repro.selection.classad.evaluator import EvalContext, as_logical, evaluate
from repro.selection.classad.matchmaker import _PLAIN_SCOPES
from repro.selection.classad.parser import ClassAd, Expr
from repro.selection.sword import cluster_table, in_required_range, matches_category
from repro.selection.vgdl import cluster_ads

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generator import ResourceSpecification
    from repro.resources.platform import Platform

__all__ = ["PreflightResult", "preflight_specification", "preflight_document"]


@dataclass(frozen=True)
class PreflightResult:
    """Outcome of a satisfiability preflight.

    ``trace`` records, clause by clause, how many hosts survived; when the
    count reaches zero, ``eliminating_clause`` names the culprit.
    """

    satisfiable: bool
    matching_hosts: int
    required_hosts: int
    report: DiagnosticReport = field(default_factory=DiagnosticReport)
    eliminating_clause: str | None = None
    trace: tuple[tuple[str, int], ...] = ()

    def describe(self) -> str:
        """One-line human-readable verdict."""
        if self.satisfiable:
            return (
                f"satisfiable: {self.matching_hosts} matching hosts "
                f"(need {self.required_hosts})"
            )
        first = self.report.errors()[0] if self.report.errors() else None
        return first.format() if first is not None else "unsatisfiable"


#: Lowercase per-host names: no per-cluster ad answers them.
_PER_HOST = frozenset(name.lower() for name in PER_HOST_ATTRIBUTES)


def _undecidable(expr: Expr, request: ClassAd | None, own: frozenset[str] | None) -> bool:
    """True when evaluating ``expr`` may read a per-host name or, when
    ``own`` holds a port's scopes, any other scope; names the
    ``request`` (``MY``) defines are followed into their expressions."""
    todo, seen = [expr], set()
    while todo:
        for ref in ir.attr_refs(todo.pop()):
            name, scope = ref.name.lower(), (ref.scope or "my").lower()
            if name in _PER_HOST or (own is not None and scope not in own):
                return True
            mine = request is not None and scope in ("my", "self")
            follow = request.get(name) if mine else None
            if follow is not None and name not in seen:
                seen.add(name)
                todo.append(follow)
    return False


def _preflight_clauses(
    scope: ir.Scope,
    request: ClassAd | None,
    platform: "Platform",
    *,
    lang: str,
    report: DiagnosticReport,
) -> PreflightResult:
    """Clause-by-clause host elimination over one scope's constraint, in
    its engine's context (module docstring); ``request`` is the ClassAd
    request of a ClassAd scope, None for a vgDL, spec or JSON one."""
    label = scope.label
    own = _PLAIN_SCOPES | {(label or "").lower()} if scope.kind == "port" else None
    if request is None:
        contexts = [EvalContext(my=ad) for ad in cluster_ads(platform)]
    else:
        contexts = [
            EvalContext(request, t, {} if label is None else {label: t})
            for t in machine_templates(platform)
        ]
    sizes = [spec.n_hosts for spec in platform.clusters]
    alive = list(range(platform.n_clusters))
    trace: list[tuple[str, int]] = []
    eliminating: str | None = None
    for clause in scope.constraint.clauses:
        survivors = alive
        if not _undecidable(clause.expr, request, own):
            values = [evaluate(clause.expr, contexts[i]) for i in alive]
            if not scope.constraint.strict:
                values = [as_logical(v) for v in values]
            survivors = [i for i, v in zip(alive, values) if v is True]
        rendered = clause.expr.unparse()
        trace.append((rendered, sum(sizes[i] for i in survivors)))
        alive, before = survivors, alive
        if before and not alive:
            eliminating = rendered
            report.add(
                "SPEC201",
                "error",
                f"clause {rendered} eliminates every host of the platform "
                f"snapshot ({platform.n_hosts} hosts in "
                f"{platform.n_clusters} clusters)",
                lang,
            )
            break
    matching = sum(sizes[i] for i in alive)
    if eliminating is None and matching < scope.min_hosts:
        report.add(
            "SPEC202",
            "error",
            f"only {matching} hosts match the constraint but the request "
            f"needs at least {scope.min_hosts}",
            lang,
        )
    return PreflightResult(
        satisfiable=not report.has_errors,
        matching_hosts=matching,
        required_hosts=scope.min_hosts,
        report=report,
        eliminating_clause=eliminating,
        trace=tuple(trace),
    )


def preflight_specification(
    spec: "ResourceSpecification", platform: "Platform"
) -> PreflightResult:
    """Preflight a generated :class:`ResourceSpecification`.

    Checks the single scope :func:`~repro.analysis.ir.lower_specification`
    builds — the *weakest common* hard requirements of the rendered
    languages, the clock floor on at least ``min_size`` hosts — so the
    verdict is sound for every backend: unsatisfiable here means no
    backend can ever fulfill the spec on this platform.
    """
    return _preflight_scopes(ir.lower_specification(spec), platform, DiagnosticReport())


def preflight_document(
    text: str, platform: "Platform", lang: str
) -> PreflightResult:
    """Preflight a specification *document* against a platform snapshot.

    Lowers the document with the ``lang`` frontend
    (``vgdl``/``classad``/``sword``/``json``) and preflights the lowered
    scopes.  Parse errors surface as SPEC001; otherwise each
    aggregate/port/group is preflighted and the first unsatisfiable one
    determines the verdict.
    """
    report = DiagnosticReport()
    doc = ir.lower_document(text, lang, report)
    if doc is None:
        return PreflightResult(
            satisfiable=False, matching_hosts=0, required_hosts=0, report=report
        )
    if lang == "sword":
        return _preflight_sword_doc(doc, platform, report)
    return _preflight_scopes(doc, platform, report)


def _preflight_scopes(
    doc: ir.Document, platform: "Platform", report: DiagnosticReport
) -> PreflightResult:
    """Preflight every constrained scope of a vgDL, ClassAd or
    specification document; the first unsatisfiable one, else the first
    one, is the verdict.

    A ClassAd request with ports is judged by its ports alone, one
    without by its bilateral ``Requirements``.  A document with no
    constraint to judge is satisfiable by every host.  vgDL aggregates
    are disjoint collections, so their lower bounds must also fit the
    platform combined.  A JSON document's findings carry the ``spec``
    tag, like a generated spec's.
    """
    lang = "spec" if doc.lang == "json" else doc.lang
    request = doc.source if doc.lang == "classad" else None
    ports = [s for s in doc.scopes if s.kind == "port"]
    verdict: PreflightResult | None = None
    for scope in ports or doc.scopes:
        if scope.constraint is None:
            continue
        res = _preflight_clauses(scope, request, platform, lang=lang, report=report)
        if verdict is None or (verdict.satisfiable and not res.satisfiable):
            verdict = res
    if doc.lang == "vgdl":
        total_lo = sum(scope.min_hosts for scope in doc.scopes)
        if total_lo > platform.n_hosts:
            report.add(
                "SPEC202",
                "error",
                f"the aggregates need {total_lo} hosts combined but the "
                f"platform has only {platform.n_hosts}",
                "vgdl",
            )
    if verdict is None:
        verdict = PreflightResult(
            satisfiable=True, matching_hosts=platform.n_hosts, required_hosts=0, report=report
        )
    return replace(verdict, satisfiable=not report.has_errors)


def _preflight_sword_doc(
    doc: ir.Document, platform: "Platform", report: DiagnosticReport
) -> PreflightResult:
    """Eliminate clusters through each group's 5-tuple required ranges
    and hard categoricals, with the masks SWORD's engine applies over one
    :func:`~repro.selection.sword.cluster_table`; soft (penalised)
    requirements never prune."""
    values, cats = cluster_table(platform)
    sizes = np.array([c.n_hosts for c in platform.clusters], dtype=np.int64)
    matching = platform.n_hosts
    required = 0
    eliminating: str | None = None
    trace: list[tuple[str, int]] = []
    for scope in doc.scopes:
        group_need = scope.min_hosts
        required = max(required, group_need)
        alive = np.ones(platform.n_clusters, dtype=bool)
        hosts = platform.n_hosts
        for fact in scope.ranges:
            before = bool(alive.any())
            if fact.attr in values:
                alive &= in_required_range(
                    values[fact.attr], fact.required_lo, fact.required_hi
                )
            hosts = int(sizes[alive].sum())
            clause = (
                f"{fact.attr} in [{fact.required_lo}, {fact.required_hi}] "
                f"(group {scope.name!r})"
            )
            trace.append((clause, hosts))
            if before and not alive.any():
                eliminating = clause
                report.add(
                    "SPEC201",
                    "error",
                    f"requirement {clause} eliminates every host of the "
                    "platform snapshot",
                    "sword",
                )
                break
        for cat in scope.categoricals:
            if eliminating is not None or cat.penalty_rate > 0:
                continue
            before = bool(alive.any())
            if cat.attr in cats:
                alive &= matches_category(cats[cat.attr], cat.value)
            hosts = int(sizes[alive].sum())
            clause = f"{cat.attr} == {cat.value!r} (group {scope.name!r})"
            trace.append((clause, hosts))
            if before and not alive.any():
                eliminating = clause
                report.add(
                    "SPEC201",
                    "error",
                    f"requirement {clause} eliminates every host of the "
                    "platform snapshot",
                    "sword",
                )
        if eliminating is None and hosts < group_need:
            report.add(
                "SPEC202",
                "error",
                f"only {hosts} hosts satisfy group {scope.name!r} but it "
                f"needs {group_need}",
                "sword",
            )
        matching = min(matching, hosts)
        if eliminating is not None:
            break
    return PreflightResult(
        satisfiable=not report.has_errors,
        matching_hosts=matching,
        required_hosts=required,
        report=report,
        eliminating_clause=eliminating,
        trace=tuple(trace),
    )
