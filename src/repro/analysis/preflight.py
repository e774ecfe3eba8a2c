"""Platform-aware satisfiability preflight over the constraint IR.

Given a platform snapshot, answer *statically* — without binding anything
or advancing any clock — whether a specification can possibly be
fulfilled, and when it cannot, report *which clause eliminates the last
host*.  The checks are deliberately sound-only:

* clause-by-clause host elimination over per-cluster advertisement ads
  (clusters are homogeneous, so one evaluation per cluster covers every
  host; a clause on a per-host name such as ``HostId`` eliminates
  nothing), and
* capacity — do enough matching hosts exist at all?

Documents of any frontend language (vgDL, ClassAds, SWORD XML, JSON
specification documents) are first lowered into
:class:`repro.analysis.ir.Document`; the preflight then walks the lowered
scopes generically — ClassAd-expression scopes evaluate clause by clause
against the cluster ads, SWORD group scopes eliminate clusters through
their 5-tuple required ranges and hard categoricals.

Connectivity, latency-zone packing and contention are *not* modelled
here: a spec this module calls unsatisfiable is genuinely hopeless on the
platform, while a "satisfiable" verdict still may fail dynamically.  That
one-sidedness is what lets :class:`~repro.selection.pipeline
.SelectionPipeline` prune ladder rungs without ever skipping a
fulfillable alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis import ir
from repro.resources.platform import PER_HOST_ATTRIBUTES
from repro.selection.classad.evaluator import EvalContext, evaluate
from repro.selection.classad.parser import ClassAd, Expr, parse_expression
from repro.selection.sword import cluster_table, in_required_range, matches_category
from repro.selection.vgdl import ADVERTISED as VGES_ADVERTISED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generator import ResourceSpecification
    from repro.resources.platform import Platform

__all__ = ["PreflightResult", "cluster_ads", "preflight_constraint", "preflight_specification", "preflight_document"]


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


#: The host attributes a preflight cluster ad advertises, in ad order
#: (values from :meth:`repro.resources.platform.Platform.cluster_attributes`):
#: the vgES names plus the per-cluster names of the ClassAd machine ads.
ADVERTISED = ("Type", *VGES_ADVERTISED, "LoadAvg", "CpuLoad", "KeyboardIdle")

#: Lowercase per-host names: a cluster ad cannot decide a clause on them.
_PER_HOST = frozenset(name.lower() for name in PER_HOST_ATTRIBUTES)


def cluster_ads(platform: "Platform") -> list[tuple[ClassAd, int]]:
    """Per-cluster advertisement ads and host counts.

    Each ad carries every per-cluster name the vgES cluster ads and the
    ClassAd machine ads advertise (and ``CpuLoad``), so any request the
    generator can emit evaluates without UNDEFINED surprises.  The
    per-host names
    (:data:`~repro.resources.platform.PER_HOST_ATTRIBUTES`) are left out
    because no cluster ad can answer them — :func:`_preflight_clauses`
    keeps every cluster for a clause that references one — and so is
    ``ClusterId``, which no engine advertises.
    """
    out: list[tuple[ClassAd, int]] = []
    for cid, spec in enumerate(platform.clusters):
        attrs = platform.cluster_attributes(cid)
        ad = ClassAd.from_values({name: attrs[name] for name in ADVERTISED})
        out.append((ad, int(spec.n_hosts)))
    return out


def _preflight_clauses(
    clauses: tuple[ir.Clause, ...],
    platform: "Platform",
    *,
    min_hosts: int,
    label: str | None,
    lang: str,
    report: DiagnosticReport,
) -> PreflightResult:
    """Clause-by-clause host elimination over lowered IR clauses.

    A clause that references a per-host name keeps every surviving
    cluster: its hosts may differ on it, so eliminating them would not
    be sound.
    """
    ads = cluster_ads(platform)
    empty = ClassAd()
    alive = list(range(len(ads)))
    trace: list[tuple[str, int]] = []
    eliminating: str | None = None
    for clause in clauses:
        if any(ref.name.lower() in _PER_HOST for ref in ir.attr_refs(clause.expr)):
            survivors = alive
        else:
            survivors = []
            for idx in alive:
                ad = ads[idx][0]
                if label is None:
                    ctx = EvalContext(my=ad)
                else:
                    ctx = EvalContext(my=empty, bindings={label: ad})
                if evaluate(clause.expr, ctx) is True:
                    survivors.append(idx)
        hosts = sum(ads[i][1] for i in survivors)
        rendered = clause.expr.unparse()
        trace.append((rendered, hosts))
        if not survivors and alive:
            eliminating = rendered
            report.add(
                "SPEC201",
                "error",
                f"clause {rendered} eliminates every host of the platform "
                f"snapshot ({platform.n_hosts} hosts in "
                f"{platform.n_clusters} clusters)",
                lang,
            )
            alive = survivors
            break
        alive = survivors
    matching = sum(ads[i][1] for i in alive)
    if eliminating is None and matching < min_hosts:
        report.add(
            "SPEC202",
            "error",
            f"only {matching} hosts match the constraint but the request "
            f"needs at least {min_hosts}",
            lang,
        )
    return PreflightResult(
        satisfiable=not report.has_errors,
        matching_hosts=matching,
        required_hosts=min_hosts,
        report=report,
        eliminating_clause=eliminating,
        trace=tuple(trace),
    )


def preflight_constraint(
    constraint: Expr,
    platform: "Platform",
    *,
    min_hosts: int = 1,
    label: str | None = None,
    lang: str = "classad",
    report: DiagnosticReport | None = None,
) -> PreflightResult:
    """Eliminate hosts clause by clause against the platform snapshot.

    ``label`` is the Gangmatch port label when the constraint references
    the candidate through a scope (``cpu.Clock``); without it the
    candidate ad is the evaluation subject itself (vgDL style).  Emits
    SPEC201 when a clause eliminates the last host and SPEC202 when the
    survivors number fewer than ``min_hosts``.
    """
    report = DiagnosticReport() if report is None else report
    lowered = ir.lower_expression(constraint, lang=lang, deep=False)
    return _preflight_clauses(
        lowered.clauses,
        platform,
        min_hosts=min_hosts,
        label=label,
        lang=lang,
        report=report,
    )


def preflight_specification(
    spec: "ResourceSpecification", platform: "Platform"
) -> PreflightResult:
    """Preflight a generated :class:`ResourceSpecification`.

    Checks the *weakest common* hard requirements of the rendered
    languages — the clock floor and the minimum host count — so the
    verdict is sound for every backend: unsatisfiable here means no
    backend can ever fulfill the spec on this platform.
    """
    constraint = parse_expression(f"Clock >= {spec.clock_min_mhz:.0f}")
    return preflight_constraint(
        constraint,
        platform,
        min_hosts=spec.min_size,
        lang="spec",
    )


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
    if lang == "vgdl":
        return _preflight_vgdl_doc(doc, platform, report)
    if lang == "classad":
        return _preflight_classad_doc(doc, platform, report)
    if lang == "sword":
        return _preflight_sword_doc(doc, platform, report)
    # JSON specification documents carry the spec itself; preflight the
    # weakest-common hard requirements exactly like a generated spec.
    spec = doc.source
    result = preflight_specification(spec, platform)
    report.extend(result.report)
    return PreflightResult(
        satisfiable=result.satisfiable,
        matching_hosts=result.matching_hosts,
        required_hosts=result.required_hosts,
        report=report,
        eliminating_clause=result.eliminating_clause,
        trace=result.trace,
    )


def _preflight_vgdl_doc(
    doc: ir.Document, platform: "Platform", report: DiagnosticReport
) -> PreflightResult:
    """Preflight every aggregate scope; the worst one is the verdict.

    The combined size floor is also checked: aggregates are disjoint
    collections, so their lower bounds add up.
    """
    worst: PreflightResult | None = None
    total_lo = 0
    for scope in doc.scopes:
        total_lo += scope.min_hosts
        assert scope.constraint is not None  # every aggregate carries one
        res = _preflight_clauses(
            scope.constraint.clauses,
            platform,
            min_hosts=scope.min_hosts,
            label=None,
            lang="vgdl",
            report=report,
        )
        if worst is None or (not res.satisfiable and worst.satisfiable):
            worst = res
    if total_lo > platform.n_hosts:
        report.add(
            "SPEC202",
            "error",
            f"the aggregates need {total_lo} hosts combined but the platform "
            f"has only {platform.n_hosts}",
            "vgdl",
        )
    assert worst is not None  # parse_vgdl guarantees >= 1 aggregate
    return PreflightResult(
        satisfiable=not report.has_errors,
        matching_hosts=worst.matching_hosts,
        required_hosts=worst.required_hosts,
        report=report,
        eliminating_clause=worst.eliminating_clause,
        trace=worst.trace,
    )


def _preflight_classad_doc(
    doc: ir.Document, platform: "Platform", report: DiagnosticReport
) -> PreflightResult:
    """Preflight every Gangmatch port scope, falling back to the
    bilateral ``Requirements`` when no port carries a constraint."""
    worst: PreflightResult | None = None
    request_scope: ir.Scope | None = None
    for scope in doc.scopes:
        if scope.kind == "request":
            request_scope = scope
            continue
        if scope.constraint is None:
            continue
        res = _preflight_clauses(
            scope.constraint.clauses,
            platform,
            min_hosts=scope.min_hosts,
            label=scope.label,
            lang="classad",
            report=report,
        )
        if worst is None or (not res.satisfiable and worst.satisfiable):
            worst = res
    if (
        worst is None
        and request_scope is not None
        and request_scope.constraint is not None
    ):
        worst = _preflight_clauses(
            request_scope.constraint.clauses,
            platform,
            min_hosts=1,
            label=None,
            lang="classad",
            report=report,
        )
    if worst is None:
        return PreflightResult(
            satisfiable=not report.has_errors,
            matching_hosts=platform.n_hosts,
            required_hosts=0,
            report=report,
        )
    return PreflightResult(
        satisfiable=not report.has_errors,
        matching_hosts=worst.matching_hosts,
        required_hosts=worst.required_hosts,
        report=report,
        eliminating_clause=worst.eliminating_clause,
        trace=worst.trace,
    )


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
