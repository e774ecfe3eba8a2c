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

Every input is first lowered into a :class:`repro.analysis.ir.Document`:
a document of any frontend language (vgDL, ClassAds, SWORD XML, JSON
specification documents) by :func:`~repro.analysis.ir.lower_document`,
and a generated specification by
:func:`~repro.analysis.ir.lower_specification`, whose one scope states
the clock floor on at least ``min_size`` hosts.  Two walkers read the
lowered scopes: one loop evaluates every ClassAd-expression scope (vgDL
aggregates, gangmatch ports, a bilateral request, a specification)
clause by clause against the cluster ads, and SWORD group scopes
eliminate clusters through their 5-tuple required ranges and hard
categoricals, as SWORD's engine does.

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
from repro.selection.classad.evaluator import EvalContext, evaluate
from repro.selection.classad.parser import ClassAd
from repro.selection.sword import cluster_table, in_required_range, matches_category
from repro.selection.vgdl import ADVERTISED as VGES_ADVERTISED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.generator import ResourceSpecification
    from repro.resources.platform import Platform

__all__ = ["PreflightResult", "cluster_ads", "preflight_specification", "preflight_document"]


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


def cluster_ads(platform: "Platform") -> tuple[tuple[ClassAd, int], ...]:
    """Per-cluster advertisement ads and host counts.

    Each ad carries every per-cluster name the vgES cluster ads and the
    ClassAd machine ads advertise (and ``CpuLoad``), so any request the
    generator can emit evaluates without UNDEFINED surprises.  The
    per-host names
    (:data:`~repro.resources.platform.PER_HOST_ATTRIBUTES`) are left out
    because no cluster ad can answer them — :func:`_preflight_clauses`
    keeps every cluster for a clause that references one — and so is
    ``ClusterId``, which no engine advertises.

    Built once per platform
    (:meth:`~repro.resources.platform.Platform.derived`) and shared by
    every preflight over it; no caller mutates the ads.
    """
    return platform.derived(_build_cluster_ads)


def _build_cluster_ads(platform: "Platform") -> tuple[tuple[ClassAd, int], ...]:
    out: list[tuple[ClassAd, int]] = []
    for cid, spec in enumerate(platform.clusters):
        attrs = platform.cluster_attributes(cid)
        ad = ClassAd.from_values({name: attrs[name] for name in ADVERTISED})
        out.append((ad, int(spec.n_hosts)))
    return tuple(out)


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

    A ClassAd request's bilateral ``Requirements`` is checked only when
    no port carries a constraint.  A document with no constraint at all
    is satisfiable by every host.  vgDL aggregates are disjoint
    collections, so their lower bounds must also fit the platform
    combined.  A JSON document's findings carry the ``spec`` tag, like
    a generated spec's.
    """
    lang = "spec" if doc.lang == "json" else doc.lang
    scopes = [s for s in doc.scopes if s.constraint is not None and s.kind != "request"]
    if not scopes:
        scopes = [s for s in doc.scopes if s.constraint is not None]
    verdict: PreflightResult | None = None
    for scope in scopes:
        res = _preflight_clauses(
            scope.constraint.clauses,
            platform,
            min_hosts=scope.min_hosts,
            label=scope.label,
            lang=lang,
            report=report,
        )
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
