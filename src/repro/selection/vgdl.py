"""vgDL — the Virtual Grid Description Language — and a vgES-style
finder-and-binder (§II.4.1).

Grammar (Figs. II-1 and IV-4)::

    spec      := IDENT '=' vgexpr
    vgexpr    := aggregate (connector aggregate)*
    connector := 'CloseTo' | 'FarFrom' | 'HighBW'
    aggregate := kind '(' IDENT ')' range? rank? '{' IDENT '=' '[' constraint ']' '}'
    kind      := 'ClusterOf' | 'TightBagOf' | 'LooseBagOf'
    range     := '[' INT ':' INT ']'
    rank      := '[' 'rank' '=' expr ']'

Constraints reuse the ClassAd expression language (vgDL adopted the RedLine
attribute-constraint BNF, §II.4.1.1); bare identifiers on the right-hand
side of comparisons (``Processor == Opteron``) denote string literals and
are rewritten as such against the known host-attribute vocabulary.

The three aggregate kinds differ in homogeneity and connectivity
(§II.4.1.1):

* ``ClusterOf`` — identical hosts from a single physical cluster;
* ``TightBagOf`` — possibly heterogeneous hosts with *good* connectivity
  (pairwise effective bandwidth ≥ ``TIGHT_BANDWIDTH_BPS``);
* ``LooseBagOf`` — no connectivity requirement.

The :class:`VgES` engine selects greedily over whole clusters (clusters are
homogeneous, so one constraint evaluation per cluster suffices), honouring
the request's rank function (``Nodes`` → maximise host count, anything
else → evaluate per cluster and prefer higher values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet

import numpy as np

from repro.resources.platform import Platform
from repro.selection.classad.evaluator import EvalContext, evaluate
from repro.selection.classad.lexer import ClassAdParseError, tokenize
from repro.selection.classad.parser import (
    AttrRef,
    BinaryOp,
    ClassAd,
    Expr,
    FuncCall,
    Literal,
    Ternary,
    UnaryOp,
    _Parser,
)

# vgES scans its cluster ads without the index; the name stays importable
# here because the benchmark's tracer wraps it as this module's attribute.
from repro.selection.index import plan_constraint  # noqa: F401

__all__ = [
    "VgdlAggregate",
    "VgdlSpec",
    "VirtualGrid",
    "VgES",
    "cluster_ads",
    "parse_vgdl",
    "TIGHT_BANDWIDTH_BPS",
    "CLOSE_BANDWIDTH_BPS",
]

#: "Good connectivity" threshold for TightBags: effectively reference-rate
#: interconnect (the OptIPuter-style supernetworks of §III.2.2).  A looser
#: threshold makes greedy-on-VG lose the Ch. IV comparisons because the
#: communication-oblivious heuristics pay the full inter-cluster factor.
TIGHT_BANDWIDTH_BPS = 9.0e9
#: Proximity threshold for the CloseTo connector (OC48 class).
CLOSE_BANDWIDTH_BPS = 2.488e9

AGGREGATE_KINDS = ("ClusterOf", "TightBagOf", "LooseBagOf")
CONNECTORS = ("closeto", "farfrom", "highbw")

#: The host attributes a vgES cluster ad advertises, in ad order
#: (values from :meth:`repro.resources.platform.Platform.cluster_attributes`).
ADVERTISED = (
    "Clock",
    "ClockGhz",
    "Memory",
    "FreeMem",
    "Disk",
    "FreeDisk",
    "Processor",
    "Arch",
    "OpSys",
    "OS",
    "Region",
    "Nodes",
    "KFlops",
    "Cluster",
)

#: Host attributes vgDL constraints may reference; anything else on the
#: right-hand side of a comparison is treated as a string literal.
KNOWN_ATTRIBUTES = {name.lower() for name in ADVERTISED}


class VgdlError(ValueError):
    """Raised on malformed vgDL.

    ``pos`` (when known) is the character offset of the defect in the
    source text, for span-carrying diagnostics.
    """

    def __init__(self, message: str, pos: int | None = None) -> None:
        super().__init__(message)
        self.pos = pos


@dataclass(frozen=True)
class VgdlAggregate:
    kind: str  # ClusterOf | TightBagOf | LooseBagOf
    var: str
    lo: int
    hi: int
    rank: Expr | None
    constraint: Expr

    def unparse(self) -> str:
        """Render back to parsable vgDL text."""
        rank = f" [rank = {self.rank.unparse()}]" if self.rank is not None else ""
        return (
            f"{self.kind}({self.var}) [{self.lo}:{self.hi}]{rank} {{\n"
            f"  {self.var} = [ {self.constraint.unparse()} ]\n"
            f"}}"
        )


@dataclass(frozen=True)
class VgdlSpec:
    name: str
    aggregates: tuple[VgdlAggregate, ...]
    connectors: tuple[str, ...]  # len = len(aggregates) - 1

    def unparse(self) -> str:
        """Render back to parsable vgDL text."""
        parts = [self.aggregates[0].unparse()]
        for conn, agg in zip(self.connectors, self.aggregates[1:]):
            pretty = {"closeto": "CloseTo", "farfrom": "FarFrom", "highbw": "HighBW"}[conn]
            parts.append(pretty)
            parts.append(agg.unparse())
        return f"{self.name} =\n" + "\n".join(parts)


@dataclass
class VirtualGrid:
    """A bound VG: per-aggregate host ids, in request order."""

    spec: VgdlSpec
    hosts_per_aggregate: list[np.ndarray]
    #: Simulated selection latency (seconds) — vgES answers quickly even at
    #: scale; modelled as one pass over the cluster database.
    selection_time: float = 0.0

    def all_hosts(self) -> np.ndarray:
        """Union of hosts across the VG's aggregates."""
        return np.unique(np.concatenate(self.hosts_per_aggregate))

    @property
    def size(self) -> int:
        return int(self.all_hosts().size)


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _rewrite_bare_strings(expr: Expr) -> Expr:
    """Turn unknown bare identifiers into string literals (vgDL style).

    Source positions survive the rewrite so the static analyzer can still
    point at the original token.
    """
    if isinstance(expr, AttrRef):
        if expr.scope is None and expr.name.lower() not in KNOWN_ATTRIBUTES:
            return Literal(expr.name, pos=expr.pos)
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _rewrite_bare_strings(expr.left),
            _rewrite_bare_strings(expr.right),
            pos=expr.pos,
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rewrite_bare_strings(expr.operand), pos=expr.pos)
    if isinstance(expr, Ternary):
        return Ternary(
            _rewrite_bare_strings(expr.cond),
            _rewrite_bare_strings(expr.then),
            _rewrite_bare_strings(expr.other),
            pos=expr.pos,
        )
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(_rewrite_bare_strings(a) for a in expr.args), pos=expr.pos
        )
    return expr


class _VgdlParser(_Parser):
    def spec(self) -> VgdlSpec:
        name_tok = self.next()
        if name_tok.kind != "IDENT":
            raise VgdlError("vgDL must start with '<name> ='", pos=name_tok.pos)
        self.expect_op("=")
        aggregates = [self.aggregate()]
        connectors: list[str] = []
        while True:
            tok = self.peek()
            if tok.kind == "IDENT" and str(tok.value).lower() in CONNECTORS:
                self.next()
                connectors.append(str(tok.value).lower())
                aggregates.append(self.aggregate())
            else:
                break
        tok = self.peek()
        if tok.kind != "EOF":
            raise VgdlError(
                f"trailing vgDL input at position {tok.pos}: {tok.value!r}", pos=tok.pos
            )
        return VgdlSpec(str(name_tok.value), tuple(aggregates), tuple(connectors))

    def aggregate(self) -> VgdlAggregate:
        # Optional grouping braces around an aggregate.
        if self.accept_op("{"):
            agg = self.aggregate()
            self.expect_op("}")
            return agg
        kind_tok = self.next()
        if kind_tok.kind != "IDENT" or str(kind_tok.value) not in AGGREGATE_KINDS:
            raise VgdlError(
                f"expected aggregate kind at {kind_tok.pos}, got {kind_tok.value!r}",
                pos=kind_tok.pos,
            )
        kind = str(kind_tok.value)
        self.expect_op("(")
        var_tok = self.next()
        if var_tok.kind != "IDENT":
            raise VgdlError(f"expected variable name at {var_tok.pos}", pos=var_tok.pos)
        var = str(var_tok.value)
        self.expect_op(")")

        lo, hi = 1, 2**31 - 1
        rank: Expr | None = None
        while self.peek().kind == "OP" and self.peek().value == "[":
            self.next()
            tok = self.peek()
            if tok.kind == "IDENT" and str(tok.value).lower() == "rank":
                self.next()
                self.expect_op("=")
                rank = self.expression()
                self.expect_op("]")
            else:
                lo_tok = self.next()
                if lo_tok.kind != "NUMBER":
                    raise VgdlError(f"expected size range at {lo_tok.pos}", pos=lo_tok.pos)
                self.expect_op(":")
                hi_tok = self.next()
                if hi_tok.kind != "NUMBER":
                    raise VgdlError(f"expected size range at {hi_tok.pos}", pos=hi_tok.pos)
                lo, hi = int(lo_tok.value), int(hi_tok.value)
                self.expect_op("]")
        if lo < 1 or hi < lo:
            raise VgdlError(f"invalid size range [{lo}:{hi}]")

        self.expect_op("{")
        body_var = self.next()
        if body_var.kind != "IDENT" or str(body_var.value) != var:
            raise VgdlError(
                f"aggregate body must define {var!r}, got {body_var.value!r}",
                pos=body_var.pos,
            )
        self.expect_op("=")
        self.expect_op("[")
        constraint = _rewrite_bare_strings(self.expression())
        self.expect_op("]")
        self.expect_op("}")
        return VgdlAggregate(kind, var, lo, hi, rank, constraint)


def parse_vgdl(text: str) -> VgdlSpec:
    """Parse a vgDL resource-collection specification.

    Lexer and parser errors alike surface as :class:`VgdlError` carrying
    the defect's position (the message itself stays location-free).
    """
    try:
        return _VgdlParser(tokenize(text)).spec()
    except ClassAdParseError as exc:
        raise VgdlError(exc.message, pos=exc.pos) from exc


# ----------------------------------------------------------------------
# Selection engine (the vgFAB of §II.4.1)
# ----------------------------------------------------------------------
def cluster_ads(platform: Platform) -> tuple[ClassAd, ...]:
    """One vgES ad per cluster, the :data:`ADVERTISED` projection of
    :meth:`~repro.resources.platform.Platform.cluster_attributes`; built
    once per platform through
    :meth:`~repro.resources.platform.Platform.derived` and read by
    :class:`VgES` and the platform preflight."""
    return platform.derived(_build_cluster_ads)


def _build_cluster_ads(platform: Platform) -> tuple[ClassAd, ...]:
    ads = []
    for cid in range(platform.n_clusters):
        attrs = platform.cluster_attributes(cid)
        ads.append(ClassAd.from_values({name: attrs[name] for name in ADVERTISED}))
    return tuple(ads)


@dataclass
class VgES:
    """Finder-and-binder over a synthetic platform database.

    ``unavailable`` holds host ids that must never be selected (busy under
    background load, or bound by other users — see
    :mod:`repro.resources.binding`); the engine only reads it.  The
    cluster ads are the platform's, shared by every engine over it, so a
    select pays for the scan and not for building them.
    """

    platform: Platform
    tight_bandwidth_bps: float = TIGHT_BANDWIDTH_BPS
    close_bandwidth_bps: float = CLOSE_BANDWIDTH_BPS
    unavailable: AbstractSet[int] = field(default_factory=set)

    _cluster_ads: tuple[ClassAd, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._cluster_ads = cluster_ads(self.platform)

    # -- cluster-level matching ----------------------------------------
    def matching_clusters(self, constraint: Expr) -> np.ndarray:
        """Cluster ids whose (homogeneous) hosts satisfy the constraint.

        One evaluation per cluster ad, in cluster order.  The ads are
        built once per platform, but the scan is not memoised: a
        constraint costs the same every time it is asked.
        """
        out = [
            cid
            for cid, ad in enumerate(self._cluster_ads)
            if evaluate(constraint, EvalContext(my=ad)) is True
        ]
        return np.asarray(out, dtype=np.int64)

    def _cluster_rank(self, cid: int, rank: Expr | None) -> float:
        if rank is None:
            return float(self.platform.clusters[cid].clock_ghz)
        v = evaluate(rank, EvalContext(my=self._cluster_ads[cid]))
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return float(v)
        return 0.0

    def _cluster_hosts(self, cid: int, free: np.ndarray) -> np.ndarray:
        hosts = self.platform.cluster_hosts(cid)
        return hosts[free[hosts]]

    # -- aggregate selection --------------------------------------------
    def _candidate_selections(
        self,
        agg: VgdlAggregate,
        allowed_clusters: np.ndarray | None,
        free: np.ndarray,
    ) -> list[np.ndarray]:
        """Candidate host sets among the ``free`` hosts (a
        :meth:`~repro.resources.platform.Platform.free_mask`) for one
        aggregate, best rank first.

        ``ClusterOf`` yields one candidate per feasible cluster (so the
        binder can backtrack when a connector constraint later fails);
        bags yield greedy accumulations from several anchor clusters — a
        fast but poorly-connected first-ranked cluster must not doom a
        TightBag request.
        """
        cids = self.matching_clusters(agg.constraint)
        if allowed_clusters is not None:
            cids = cids[np.isin(cids, allowed_clusters)]
        if cids.size == 0:
            return []
        order = sorted(cids, key=lambda c: -self._cluster_rank(int(c), agg.rank))

        if agg.kind == "ClusterOf":
            out = []
            for cid in order:
                hosts = self._cluster_hosts(int(cid), free)
                if hosts.size >= agg.lo:
                    out.append(hosts[: agg.hi])
            return out

        bw = self.platform.bandwidth_bps
        candidates: list[np.ndarray] = []
        seen: set[tuple[int, ...]] = set()
        for start in range(min(len(order), 8)):
            rotation = order[start:] + order[:start]
            selected: list[np.ndarray] = []
            chosen_clusters: list[int] = []
            total = 0
            for cid in rotation:
                cid = int(cid)
                if agg.kind == "TightBagOf" and chosen_clusters:
                    if any(
                        bw[cid, other] < self.tight_bandwidth_bps
                        for other in chosen_clusters
                    ):
                        continue
                hosts = self._cluster_hosts(cid, free)
                if hosts.size == 0:
                    continue
                take = hosts[: max(0, agg.hi - total)]
                if take.size == 0:
                    break
                selected.append(take)
                chosen_clusters.append(cid)
                total += int(take.size)
                if total >= agg.hi:
                    break
            if total < agg.lo:
                continue
            key = tuple(sorted(chosen_clusters))
            if key not in seen:
                seen.add(key)
                candidates.append(np.concatenate(selected))
        return candidates

    def _allowed_after(self, conn: str, hosts: np.ndarray) -> np.ndarray:
        """Clusters admissible for the next aggregate given a connector."""
        bw = self.platform.bandwidth_bps
        my_clusters = np.unique(self.platform.host_cluster[hosts])
        all_c = np.arange(self.platform.n_clusters)
        if conn in ("closeto", "highbw"):
            thr = self.close_bandwidth_bps if conn == "closeto" else self.tight_bandwidth_bps
            ok = np.array([bool(np.all(bw[c, my_clusters] >= thr)) for c in all_c])
        else:  # farfrom: exclude the chosen clusters and their close peers
            mine = set(my_clusters.tolist())
            ok = np.array(
                [
                    c not in mine
                    and bool(np.all(bw[c, my_clusters] < self.close_bandwidth_bps))
                    for c in all_c
                ]
            )
        return all_c[ok]

    # -- full requests ----------------------------------------------------
    def find_and_bind(
        self, spec: VgdlSpec | str, max_backtracks: int = 64
    ) -> VirtualGrid | None:
        """Select and bind a Virtual Grid for ``spec``.

        Backtracks over earlier aggregates' candidates when a connector
        constraint makes a later aggregate unsatisfiable; returns None when
        the request cannot be fulfilled at all.
        """
        if isinstance(spec, str):
            spec = parse_vgdl(spec)
        free = self.platform.free_mask(self.unavailable)
        chosen = self._bind(spec, 0, None, free, [max_backtracks])
        if chosen is None:
            return None
        # Selection latency: one linear pass over the cluster database per
        # aggregate (vgES uses an indexed relational DB; cheap and flat).
        selection_time = 1e-5 * self.platform.n_clusters * len(spec.aggregates)
        return VirtualGrid(spec, chosen, selection_time=selection_time)

    def _bind(
        self,
        spec: VgdlSpec,
        i: int,
        allowed: np.ndarray | None,
        free: np.ndarray,
        budget: list[int],
    ) -> list[np.ndarray] | None:
        """Hosts for aggregates ``i`` onwards, backtracking over each
        aggregate's candidates; ``budget[0]`` counts the candidates left
        to try, across the whole search."""
        if i == len(spec.aggregates):
            return []
        agg = spec.aggregates[i]
        for hosts in self._candidate_selections(agg, allowed, free):
            if budget[0] <= 0:
                return None
            budget[0] -= 1
            next_allowed: np.ndarray | None = None
            if i < len(spec.connectors):
                next_allowed = self._allowed_after(spec.connectors[i], hosts)
                if next_allowed.size == 0:
                    continue
            rest_free = free.copy()
            rest_free[hosts] = False
            rest = self._bind(spec, i + 1, next_allowed, rest_free, budget)
            if rest is not None:
                return [hosts] + rest
        return None

    def find_and_bind_atomically(self, spec: VgdlSpec | str, binder) -> VirtualGrid | None:
        """Integrated selection *and* binding (the vgFAB's key trick): the
        selected hosts are bound before returning, and hosts bound by
        anyone else are invisible to the selection."""
        previous = set(self.unavailable)
        self.unavailable = previous | binder.bound_hosts
        try:
            vg = self.find_and_bind(spec)
            if vg is None:
                return None
            binder.bind(vg.all_hosts())
            return vg
        finally:
            self.unavailable = previous
