"""The merged LSDE platform: synthetic clusters + network topology.

A :class:`Platform` is the paper's *resource universe*: host-level numpy
attribute arrays backed by the cluster list of
:mod:`repro.resources.generator` and the effective cluster-to-cluster
bandwidth matrix of :mod:`repro.resources.topology` (the paper merges the
two models the same way, §III.2.1: "we merge the two models by mapping the
nodes from our network model with the clusters generated by our synthetic
compute resource generator").

The platform is also the database the resource-selection substrates
(vgES / Condor / SWORD engines in :mod:`repro.selection`) query.  The
tables they derive from it alone are built once per platform
(:meth:`Platform.derived`); only the banned host set changes between
selects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Collection, TypeVar

import numpy as np

from repro.resources.collection import (
    REFERENCE_BANDWIDTH_BPS,
    REFERENCE_CLOCK_GHZ,
    ResourceCollection,
)
from repro.resources.generator import ClusterSpec, ResourceGeneratorConfig, generate_clusters
from repro.resources.topology import TopologyConfig, effective_bandwidth_matrix, generate_topology

__all__ = [
    "Platform",
    "PlatformConfig",
    "generate_platform",
    "REGION_NAMES",
    "PER_HOST_ATTRIBUTES",
]

#: Intra-cluster LAN bandwidth (bits/s) — clusters are "well-connected".
INTRA_CLUSTER_BANDWIDTH_BPS = 10.0e9

#: Region labels assigned round-robin to administrative domains; these feed
#: SWORD's ``network_coordinate_center`` attribute (Fig. II-4).
REGION_NAMES = ("North_America", "Europe", "Asia_Pacific", "South_America")

#: The names only a single host can answer (see
#: :meth:`Platform.host_attributes`); every other name a host advertises
#: is its cluster's, so one per-cluster evaluation cannot decide them.
PER_HOST_ATTRIBUTES = ("HostId", "Name", "Machine")

#: Coarse latency model (ms).  The paper ignores latency for CCR purposes
#: (§III.2.2) but SWORD queries constrain it, so we expose the conventional
#: LAN / metro / transcontinental scales.
LATENCY_INTRA_CLUSTER_MS = 0.5
LATENCY_INTRA_DOMAIN_MS = 20.0
LATENCY_CROSS_DOMAIN_MS = 80.0

_T = TypeVar("_T")


@dataclass(frozen=True)
class PlatformConfig:
    """Configuration of a full synthetic LSDE."""

    resources: ResourceGeneratorConfig = ResourceGeneratorConfig()
    topology_model: str = "waxman"
    n_domains: int = 4

    def topology(self) -> TopologyConfig:
        """Topology configuration implied by this platform config."""
        return TopologyConfig(
            n_sites=self.resources.n_clusters,
            model=self.topology_model,
            n_domains=self.n_domains,
        )


@dataclass
class Platform:
    """A resource universe.

    ``bandwidth_bps[a, b]`` is the effective (widest-path) bandwidth between
    clusters ``a`` and ``b``; the diagonal holds the intra-cluster LAN
    bandwidth.
    """

    clusters: list[ClusterSpec]
    bandwidth_bps: np.ndarray
    cluster_domain: np.ndarray | None = None

    host_cluster: np.ndarray = field(init=False)
    host_clock: np.ndarray = field(init=False)
    #: ``_host_offsets[c]:_host_offsets[c + 1]`` are cluster ``c``'s host ids.
    _host_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _derived: dict[Callable[["Platform"], Any], Any] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        c = len(self.clusters)
        if self.bandwidth_bps.shape != (c, c):
            raise ValueError("bandwidth matrix must be n_clusters x n_clusters")
        if self.cluster_domain is None:
            self.cluster_domain = np.zeros(c, dtype=np.int64)
        else:
            self.cluster_domain = np.asarray(self.cluster_domain, dtype=np.int64)
            if self.cluster_domain.shape != (c,):
                raise ValueError("cluster_domain must have one entry per cluster")
        counts = np.array([spec.n_hosts for spec in self.clusters], dtype=np.int64)
        self.host_cluster = np.repeat(np.arange(c, dtype=np.int64), counts)
        self._host_offsets = np.concatenate(([0], np.cumsum(counts)))
        self.host_clock = np.repeat(
            np.array([spec.clock_ghz for spec in self.clusters]), counts
        )
        np.fill_diagonal(self.bandwidth_bps, INTRA_CLUSTER_BANDWIDTH_BPS)

    # ------------------------------------------------------------------
    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_hosts(self) -> int:
        return int(self.host_cluster.shape[0])

    def comm_factor_matrix(self) -> np.ndarray:
        """Reference-time multipliers: ``ref_bw / effective_bw``."""
        with np.errstate(divide="ignore"):
            return REFERENCE_BANDWIDTH_BPS / self.bandwidth_bps

    def region_of_cluster(self, cluster_id: int) -> str:
        """Region label of a cluster (its domain's round-robin region)."""
        return REGION_NAMES[int(self.cluster_domain[cluster_id]) % len(REGION_NAMES)]

    def latency_ms(self, cluster_a: int, cluster_b: int) -> float:
        """Coarse pairwise latency between clusters (see module constants)."""
        if cluster_a == cluster_b:
            return LATENCY_INTRA_CLUSTER_MS
        if self.cluster_domain[cluster_a] == self.cluster_domain[cluster_b]:
            return LATENCY_INTRA_DOMAIN_MS
        return LATENCY_CROSS_DOMAIN_MS

    def cluster_attributes(self, cluster_id: int) -> dict[str, Any]:
        """What every host of cluster ``cluster_id`` advertises.

        The one attribute model of the platform, under the ClassAd/vgDL
        names: the vgES cluster ads, the ClassAd machine ads and SWORD's
        attribute table each project the names they advertise from it,
        and the preflight reads those three.  Clusters are homogeneous,
        so every name but :data:`PER_HOST_ATTRIBUTES` is a cluster's.
        """
        spec = self.clusters[cluster_id]
        return {
            "Type": "Machine",
            "Cluster": spec.name,
            "ClusterId": spec.cluster_id,
            "Clock": spec.clock_ghz * 1000.0,  # MHz, the vgDL convention
            "ClockGhz": spec.clock_ghz,
            "Memory": spec.memory_mb,
            "FreeMem": spec.memory_mb,
            "Disk": 20.0 * spec.memory_mb,  # MB, coarse disk proxy
            "FreeDisk": 20.0 * spec.memory_mb,
            "Processor": spec.arch,
            "Arch": spec.arch,
            "OpSys": spec.os,
            "OS": spec.os,
            "Region": self.region_of_cluster(cluster_id),
            "Nodes": spec.n_hosts,
            "KFlops": spec.clock_ghz * 1.0e6,  # coarse flops proxy
            "LoadAvg": 0.0,  # dedicated access (§III.2.3)
            "CpuLoad": 0.0,
            "KeyboardIdle": 3600,
        }

    def per_host_attributes(self, host_id: int) -> dict[str, Any]:
        """The :data:`PER_HOST_ATTRIBUTES` of host ``host_id``, in order."""
        machine = f"host{host_id:06d}"
        cluster = self.clusters[int(self.host_cluster[host_id])].name
        return {
            "HostId": int(host_id),
            "Name": f"{machine}.{cluster}.grid",
            "Machine": machine,
        }

    def host_attributes(self, host_id: int) -> dict[str, Any]:
        """:meth:`cluster_attributes` of the host's cluster plus the
        :meth:`per_host_attributes` of the host itself."""
        attrs = self.cluster_attributes(int(self.host_cluster[host_id]))
        attrs.update(self.per_host_attributes(host_id))
        return attrs

    def host_table(self) -> "dict[str, np.ndarray]":
        """Columnar view of :meth:`host_attributes`: one array per
        attribute, indexed by host id, under the lowercase name.  Only
        :mod:`repro.selection.index`, which no engine consults, reads it."""
        rows = [self.host_attributes(h) for h in range(self.n_hosts)]
        return {name.lower(): np.array([row[name] for row in rows]) for name in rows[0]}

    def free_mask(self, unavailable: Collection[int]) -> np.ndarray:
        """Boolean mask over host ids, true for every host outside
        ``unavailable`` — the one free-host rule of the engines, the
        pipeline and the service."""
        free = np.ones(self.n_hosts, dtype=bool)
        free[np.fromiter(unavailable, np.int64, len(unavailable))] = False
        return free

    def cluster_hosts(self, cluster_id: int) -> np.ndarray:
        """Host ids of cluster ``cluster_id``, ascending: one contiguous
        range, because :attr:`host_cluster` repeats each cluster id over
        its hosts."""
        lo, hi = self._host_offsets[cluster_id], self._host_offsets[cluster_id + 1]
        return np.arange(lo, hi, dtype=np.int64)

    def derived(self, build: Callable[["Platform"], _T]) -> _T:
        """``build(self)``, built on the first call and returned as is
        afterwards.

        The memo of the selection tables that depend on the platform
        alone (the vgES cluster ads, the ClassAd machine-ad templates,
        SWORD's cluster table), keyed by the module-level
        builder.  What it returns is shared by every later caller, so
        builders return tuples and read-only arrays, and no caller
        mutates them.  Nothing keyed by a request belongs here.
        """
        try:
            return self._derived[build]
        except KeyError:
            table = self._derived[build] = build(self)
            return table

    # ------------------------------------------------------------------
    # Resource-collection construction
    # ------------------------------------------------------------------
    def rc_from_hosts(self, host_ids: np.ndarray) -> ResourceCollection:
        """Build an RC for an explicit host subset (the 'bind' step)."""
        host_ids = np.asarray(host_ids, dtype=np.int64)
        if host_ids.size == 0:
            raise ValueError("cannot build an empty resource collection")
        clusters = self.host_cluster[host_ids]
        present, local = np.unique(clusters, return_inverse=True)
        factor = self.comm_factor_matrix()[np.ix_(present, present)]
        return ResourceCollection(
            speed=self.host_clock[host_ids] / REFERENCE_CLOCK_GHZ,
            cluster=local,
            comm_factor=factor,
            host_ids=host_ids,
        )

    def universe_rc(self) -> ResourceCollection:
        """The whole resource universe (implicit resource selection)."""
        return self.rc_from_hosts(np.arange(self.n_hosts))

    def top_hosts(self, k: int) -> np.ndarray:
        """Ids of the ``k`` fastest hosts (the naïve 'top hosts' abstraction,
        §IV.2.4.1): sorted by clock rate descending, stable by id."""
        if not 1 <= k <= self.n_hosts:
            raise ValueError("k out of range")
        order = np.argsort(-self.host_clock, kind="stable")
        return np.sort(order[:k])

    def top_hosts_rc(self, k: int) -> ResourceCollection:
        """RC of the ``k`` fastest hosts (see :meth:`top_hosts`)."""
        return self.rc_from_hosts(self.top_hosts(k))


def generate_platform(config: PlatformConfig, rng: np.random.Generator) -> Platform:
    """Generate a synthetic LSDE: clusters, topology, effective bandwidth."""
    clusters = generate_clusters(config.resources, rng)
    topo = generate_topology(config.topology(), rng)
    bw = effective_bandwidth_matrix(topo)
    domains = np.array(
        [topo.nodes[i].get("domain", 0) for i in range(len(clusters))], dtype=np.int64
    )
    return Platform(clusters=clusters, bandwidth_bps=bw, cluster_domain=domains)
