"""SWORD — scalable wide-area resource discovery (§II.4.3).

Implements the XML query language of Fig. II-4 and a penalty-minimising
optimizer over the synthetic platform:

* a query has optional resource-consumption budgets
  (``dist_query_budget`` = number of candidate zones visited,
  ``optimizer_budget`` = number of cross-group combinations evaluated),
  one or more *groups* and optional inter-group *constraints*;
* numeric per-node attributes take a 5-value tuple
  ``req_lo, des_lo, des_hi, req_hi, penalty_rate`` (``MAX`` = unbounded;
  a descending tuple — e.g. ``cpu_load`` 0.5, 0.1, 0.1, 0.0, 0.0 — is read
  in reverse): values outside the required range are infeasible; values
  inside required but outside desired cost ``rate * distance``;
* categorical attributes (``os``, ``network_coordinate_center``) carry
  ``value, penalty``: mismatches are infeasible when the penalty is 0
  (hard), otherwise they add the penalty;
* the per-group ``latency`` tuple bounds intra-group pairwise latency;
  inter-group constraints bound cross-group pairwise latency.  Latencies
  come from the platform's coarse model (intra-cluster ≪ intra-domain ≪
  cross-domain).

The optimizer enumerates *zones* per group — single clusters, single
domains, or the whole platform, depending on how tight the group's latency
requirement is — scores the cheapest ``num_machines`` hosts in each, and
searches the cross-product of group zones (bounded by the budgets) for the
lowest-penalty feasible combination.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from repro.resources.platform import (
    LATENCY_CROSS_DOMAIN_MS,
    LATENCY_INTRA_CLUSTER_MS,
    LATENCY_INTRA_DOMAIN_MS,
    Platform,
)

__all__ = [
    "NumericRequirement",
    "CategoricalRequirement",
    "SwordGroup",
    "SwordQuery",
    "SwordResult",
    "SwordEngine",
    "parse_sword_query",
    "SwordError",
    "cluster_table",
    "in_required_range",
    "matches_category",
]


class SwordError(ValueError):
    """Raised on malformed SWORD queries."""


#: The XML attribute tags a group may constrain, each mapped to the name of
#: :meth:`repro.resources.platform.Platform.cluster_attributes` it reads.
#: ``num_cpus`` is SWORD's own constant: every host is a single-CPU machine.
NUMERIC_NAMES = {
    "cpu_load": "CpuLoad",
    "free_mem": "FreeMem",
    "free_disk": "FreeDisk",
    "clock": "Clock",
}
CATEGORICAL_NAMES = {"os": "OpSys", "arch": "Arch", "network_coordinate_center": "Region"}
NUMERIC_ATTRS = (*NUMERIC_NAMES, "num_cpus")
CATEGORICAL_ATTRS = tuple(CATEGORICAL_NAMES)

#: ``(numeric columns, categorical columns)`` of :func:`cluster_table`.
ClusterTable = tuple[dict[str, np.ndarray], dict[str, np.ndarray]]


def cluster_table(platform: Platform) -> ClusterTable:
    """SWORD's columnar projection of the platform's attribute model,
    indexed by cluster id: one float64 column per :data:`NUMERIC_ATTRS`
    tag and one lowercased string column per :data:`CATEGORICAL_ATTRS`
    tag.

    :class:`SwordEngine` builds it once per query and the platform
    preflight (:mod:`repro.analysis.preflight`) once per call; both
    eliminate clusters with :func:`in_required_range` and
    :func:`matches_category`.
    """
    rows = [platform.cluster_attributes(c) for c in range(platform.n_clusters)]
    values = {
        tag: np.array([float(attrs[name]) for attrs in rows], dtype=np.float64)
        for tag, name in NUMERIC_NAMES.items()
    }
    values["num_cpus"] = np.ones(platform.n_clusters)
    cats = {
        tag: np.array([attrs[name].lower() for attrs in rows])
        for tag, name in CATEGORICAL_NAMES.items()
    }
    return values, cats


def in_required_range(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Element-wise ``lo <= v <= hi``: a value outside a requirement's
    required range is infeasible."""
    return (v >= lo) & (v <= hi)


def matches_category(column: np.ndarray, value: str) -> np.ndarray:
    """Element-wise equality of a lowercased :func:`cluster_table` column
    with ``value``, compared case-insensitively."""
    return column == value.lower()


@dataclass(frozen=True)
class NumericRequirement:
    """5-tuple requirement on a numeric attribute."""

    attr: str
    required_lo: float
    desired_lo: float
    desired_hi: float
    required_hi: float
    rate: float

    @classmethod
    def from_text(cls, attr: str, text: str | None) -> "NumericRequirement":
        try:
            vals = [_parse_bound(tok) for tok in (text or "").split(",")]
        except ValueError:
            raise SwordError(
                f"{attr}: bounds must be numbers, MIN or MAX, got {text!r}"
            ) from None
        if len(vals) != 5:
            raise SwordError(f"{attr}: expected 5 comma-separated values, got {text!r}")
        a, b, c, d, rate = vals
        if a <= d:
            lo, dlo, dhi, hi = a, b, c, d
        else:  # descending tuple (cpu_load style) — read in reverse
            lo, dlo, dhi, hi = d, c, b, a
        if not (lo <= dlo <= dhi <= hi):
            raise SwordError(f"{attr}: ranges must nest: {text!r}")
        return cls(attr, lo, dlo, dhi, hi, rate)

    def feasible(self, v: np.ndarray) -> np.ndarray:
        """Element-wise: value within the required range."""
        return in_required_range(v, self.required_lo, self.required_hi)

    def penalty(self, v: np.ndarray) -> np.ndarray:
        """Element-wise penalty for straying outside the desired range."""
        below = np.maximum(0.0, self.desired_lo - v)
        above = np.maximum(0.0, v - self.desired_hi)
        return self.rate * (below + above)


@dataclass(frozen=True)
class CategoricalRequirement:
    """``value, penalty`` requirement on a categorical attribute."""

    attr: str
    value: str
    penalty_rate: float

    @classmethod
    def from_text(cls, attr: str, text: str | None) -> "CategoricalRequirement":
        parts = [t.strip() for t in (text or "").split(",")]
        if len(parts) > 2 or not parts[0]:
            raise SwordError(f"{attr}: expected 'value, penalty', got {text!r}")
        if len(parts) == 1:
            return cls(attr, parts[0], 0.0)
        try:
            return cls(attr, parts[0], float(parts[1]))
        except ValueError:
            raise SwordError(
                f"{attr}: penalty must be a number, got {parts[1]!r}"
            ) from None


def _element_text(el: ET.Element) -> str:
    """The stripped text of ``el``; :class:`SwordError` when it is empty."""
    text = (el.text or "").strip()
    if not text:
        raise SwordError(f"<{el.tag}> is empty")
    return text


def _element_int(el: ET.Element) -> int:
    """The integer text of ``el``; :class:`SwordError` otherwise."""
    text = _element_text(el)
    try:
        return int(text)
    except ValueError:
        raise SwordError(f"<{el.tag}> must be an integer, got {text!r}") from None


def _parse_bound(tok: str) -> float:
    tok = tok.strip()
    if tok.upper() == "MAX":
        return np.inf
    if tok.upper() == "MIN":
        return -np.inf
    return float(tok)


@dataclass
class SwordGroup:
    name: str
    num_machines: int
    numeric: list[NumericRequirement] = field(default_factory=list)
    categorical: list[CategoricalRequirement] = field(default_factory=list)
    latency: NumericRequirement | None = None  # intra-group pairwise


@dataclass
class InterGroupConstraint:
    group_names: tuple[str, str]
    latency: NumericRequirement


@dataclass
class SwordQuery:
    groups: list[SwordGroup]
    constraints: list[InterGroupConstraint] = field(default_factory=list)
    dist_query_budget: int = 50
    optimizer_budget: int = 1000


@dataclass
class SwordResult:
    """Selected hosts per group plus the total penalty."""

    hosts: dict[str, np.ndarray]
    penalty: float

    def all_hosts(self) -> np.ndarray:
        """Union of selected hosts across groups."""
        return np.unique(np.concatenate(list(self.hosts.values())))


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_sword_query(xml_text: str) -> SwordQuery:
    """Parse a SWORD XML query (Fig. II-4)."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise SwordError(f"invalid XML: {exc}") from exc
    if root.tag != "request":
        raise SwordError("SWORD query root element must be <request>")

    query = SwordQuery(groups=[])
    for child in root:
        if child.tag == "dist_query_budget":
            query.dist_query_budget = _element_int(child)
        elif child.tag == "optimizer_budget":
            query.optimizer_budget = _element_int(child)
        elif child.tag == "group":
            query.groups.append(_parse_group(child))
        elif child.tag == "constraint":
            query.constraints.append(_parse_constraint(child))
        else:
            raise SwordError(f"unknown element <{child.tag}>")
    if not query.groups:
        raise SwordError("a SWORD query needs at least one <group>")
    names = [g.name for g in query.groups]
    if len(set(names)) != len(names):
        raise SwordError("group names must be unique")
    for c in query.constraints:
        for gname in c.group_names:
            if gname not in names:
                raise SwordError(f"constraint references unknown group {gname!r}")
    return query


def _parse_group(el: ET.Element) -> SwordGroup:
    name = None
    num = None
    numeric: list[NumericRequirement] = []
    categorical: list[CategoricalRequirement] = []
    latency = None
    for child in el:
        tag = child.tag
        if tag == "name":
            name = _element_text(child)
        elif tag == "num_machines":
            num = _element_int(child)
        elif tag == "latency":
            latency = NumericRequirement.from_text("latency", child.text)
        elif tag in NUMERIC_ATTRS:
            numeric.append(NumericRequirement.from_text(tag, child.text))
        elif tag in CATEGORICAL_ATTRS:
            value_el = child.find("value")
            text = value_el.text if value_el is not None else child.text
            categorical.append(CategoricalRequirement.from_text(tag, text))
        else:
            raise SwordError(f"unknown group attribute <{tag}>")
    if name is None or num is None:
        raise SwordError("each group needs <name> and <num_machines>")
    if num < 1:
        raise SwordError("num_machines must be >= 1")
    return SwordGroup(name, num, numeric, categorical, latency)


def _parse_constraint(el: ET.Element) -> InterGroupConstraint:
    names_el = el.find("group_names")
    lat_el = el.find("latency")
    if names_el is None or lat_el is None:
        raise SwordError("<constraint> needs <group_names> and <latency>")
    names = tuple((names_el.text or "").split())
    if len(names) != 2:
        raise SwordError("inter-group constraints are pairwise")
    return InterGroupConstraint(names, NumericRequirement.from_text("latency", lat_el.text))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Zone:
    """A latency-feasible region: a cluster, a domain, or everything."""

    kind: str  # "cluster" | "domain" | "global"
    ident: int
    diameter_ms: float


@dataclass
class SwordEngine:
    """Penalty-minimising resource discovery over a synthetic platform.

    ``unavailable`` holds host ids that must never be selected (busy under
    background load, dead, or bound by other users — see
    :mod:`repro.resources.binding`).
    """

    platform: Platform
    unavailable: set[int] = field(default_factory=set)

    def query(self, query: SwordQuery | str) -> SwordResult | None:
        """Answer ``query``; None when no feasible configuration exists."""
        if isinstance(query, str):
            query = parse_sword_query(query)
        # Per group: ranked list of (penalty, zone, host_ids).
        options: list[list[tuple[float, _Zone, np.ndarray]]] = []
        free = self.platform.free_mask(self.unavailable)
        table = cluster_table(self.platform)
        for group in query.groups:
            opts = self._group_options(group, query.dist_query_budget, free, table)
            if not opts:
                return None
            options.append(opts)

        best: tuple[float, list[tuple[float, _Zone, np.ndarray]]] | None = None
        evaluated = 0
        for combo in itertools.product(*options):
            evaluated += 1
            if evaluated > query.optimizer_budget:
                break
            total = sum(c[0] for c in combo)
            if best is not None and total >= best[0]:
                continue
            if not self._intergroup_ok(query, combo):
                continue
            # Groups must not share hosts.
            used: set[int] = set()
            overlap = False
            for _, _, hosts in combo:
                hs = set(int(h) for h in hosts)
                if used & hs:
                    overlap = True
                    break
                used |= hs
            if overlap:
                continue
            best = (total, list(combo))
        if best is None:
            return None
        hosts = {
            g.name: combo[2] for g, combo in zip(query.groups, best[1])
        }
        return SwordResult(hosts=hosts, penalty=best[0])

    # ------------------------------------------------------------------
    def _zones_for(self, latency: NumericRequirement | None) -> list[_Zone]:
        plat = self.platform
        max_lat = latency.required_hi if latency is not None else np.inf
        zones: list[_Zone] = []
        if max_lat >= LATENCY_CROSS_DOMAIN_MS:
            zones.append(_Zone("global", 0, LATENCY_CROSS_DOMAIN_MS))
        if max_lat >= LATENCY_INTRA_DOMAIN_MS:
            for d in np.unique(plat.cluster_domain):
                zones.append(_Zone("domain", int(d), LATENCY_INTRA_DOMAIN_MS))
        if max_lat >= LATENCY_INTRA_CLUSTER_MS:
            for c in range(plat.n_clusters):
                zones.append(_Zone("cluster", c, LATENCY_INTRA_CLUSTER_MS))
        return zones

    def _zone_clusters(self, zone: _Zone) -> np.ndarray:
        plat = self.platform
        if zone.kind == "global":
            return np.arange(plat.n_clusters)
        if zone.kind == "domain":
            return np.flatnonzero(plat.cluster_domain == zone.ident)
        return np.array([zone.ident], dtype=np.int64)

    def _group_penalty_table(
        self, group: SwordGroup, table: ClusterTable
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized per-cluster (feasible, per-host penalty) for one group
        over ``table`` (a :func:`cluster_table`).

        SWORD queries are numeric and categorical bounds over the cluster
        table, so feasibility and penalty are computed element-wise over
        every cluster at once, once per group: each requirement adds its
        float64 penalty in query order, as a per-cluster loop would.
        """
        values, cats = table
        n = self.platform.n_clusters
        feasible = np.ones(n, dtype=bool)
        penalty = np.zeros(n, dtype=np.float64)
        for req in group.numeric:
            v = values[req.attr]
            feasible &= req.feasible(v)
            penalty += req.penalty(v)
        for req in group.categorical:
            match = matches_category(cats[req.attr], req.value)
            if req.penalty_rate <= 0:
                feasible &= match
            else:
                penalty += np.where(match, 0.0, req.penalty_rate)
        return feasible, penalty

    def _group_options(
        self,
        group: SwordGroup,
        budget: int,
        free: np.ndarray,
        table: ClusterTable,
    ) -> list[tuple[float, _Zone, np.ndarray]]:
        """Ranked ``(penalty, zone, hosts)`` options for one group, drawing
        hosts from the ``free`` mask (a
        :meth:`~repro.resources.platform.Platform.free_mask`)."""
        plat = self.platform
        opts: list[tuple[float, _Zone, np.ndarray]] = []
        visited = 0
        feas, pen_arr = self._group_penalty_table(group, table)
        for zone in self._zones_for(group.latency):
            if visited >= budget:
                break
            visited += 1
            cids = self._zone_clusters(zone)
            # Cheapest hosts in the zone: clusters sorted by per-host penalty.
            ranked = sorted(
                (float(pen_arr[cid]), int(cid)) for cid in cids[feas[cids]]
            )
            chosen: list[np.ndarray] = []
            total_pen = 0.0
            needed = group.num_machines
            for pen, cid in ranked:
                hosts = np.flatnonzero((plat.host_cluster == cid) & free)[:needed]
                if hosts.size == 0:
                    continue
                chosen.append(hosts)
                total_pen += pen * hosts.size
                needed -= hosts.size
                if needed <= 0:
                    break
            if needed > 0:
                continue
            # Intra-group latency penalty from the zone diameter.
            if group.latency is not None:
                diam = np.array([zone.diameter_ms])
                if not bool(group.latency.feasible(diam)[0]):
                    continue
                total_pen += float(group.latency.penalty(diam)[0]) * group.num_machines
            opts.append((total_pen, zone, np.concatenate(chosen)))
        opts.sort(key=lambda t: t[0])
        return opts

    def _intergroup_ok(
        self,
        query: SwordQuery,
        combo: tuple[tuple[float, _Zone, np.ndarray], ...],
    ) -> bool:
        plat = self.platform
        by_name = {g.name: combo[i] for i, g in enumerate(query.groups)}
        for c in query.constraints:
            _, _, hosts_a = by_name[c.group_names[0]]
            _, _, hosts_b = by_name[c.group_names[1]]
            ca = np.unique(plat.host_cluster[hosts_a])
            cb = np.unique(plat.host_cluster[hosts_b])
            # The constraint of Fig. II-4 requires at least one cross-group
            # pair within the latency bound.
            best = min(
                plat.latency_ms(int(a), int(b)) for a in ca for b in cb
            )
            if best > c.latency.required_hi:
                return False
        return True
