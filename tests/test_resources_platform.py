"""Tests for the merged platform."""

import numpy as np
import pytest

from repro.resources.collection import REFERENCE_CLOCK_GHZ
from repro.resources.platform import (
    INTRA_CLUSTER_BANDWIDTH_BPS,
    LATENCY_CROSS_DOMAIN_MS,
    LATENCY_INTRA_CLUSTER_MS,
    LATENCY_INTRA_DOMAIN_MS,
    PER_HOST_ATTRIBUTES,
    Platform,
    PlatformConfig,
    generate_platform,
)
from repro.resources.generator import ClusterSpec


def _mini_platform() -> Platform:
    clusters = [
        ClusterSpec(0, 3, 3.0, 1024, "XEON", "LINUX"),
        ClusterSpec(1, 2, 1.5, 512, "OPTERON", "LINUX"),
    ]
    bw = np.array([[0.0, 1e9], [1e9, 0.0]])
    return Platform(clusters=clusters, bandwidth_bps=bw, cluster_domain=np.array([0, 1]))


def test_host_arrays():
    p = _mini_platform()
    assert p.n_hosts == 5
    assert list(p.host_cluster) == [0, 0, 0, 1, 1]
    assert list(p.host_clock) == [3.0, 3.0, 3.0, 1.5, 1.5]


def test_diagonal_is_intra_cluster():
    p = _mini_platform()
    assert p.bandwidth_bps[0, 0] == INTRA_CLUSTER_BANDWIDTH_BPS


def test_bandwidth_shape_checked():
    with pytest.raises(ValueError):
        Platform(
            clusters=[ClusterSpec(0, 1, 3.0, 1024, "XEON", "LINUX")],
            bandwidth_bps=np.ones((2, 2)),
        )


def test_universe_rc():
    p = _mini_platform()
    rc = p.universe_rc()
    assert rc.n_hosts == 5
    assert np.allclose(rc.speed[:3], 3.0 / REFERENCE_CLOCK_GHZ)
    # Comm factor: reference 10 Gb/s over 1 Gb/s link = 10.
    assert rc.comm_factor[0, 1] == pytest.approx(10.0)
    assert rc.comm_factor[0, 0] == pytest.approx(1.0)


def test_top_hosts():
    p = _mini_platform()
    assert list(p.top_hosts(2)) == [0, 1]
    assert list(p.top_hosts(4)) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        p.top_hosts(0)
    with pytest.raises(ValueError):
        p.top_hosts(6)


def test_rc_from_hosts_remaps_clusters():
    p = _mini_platform()
    rc = p.rc_from_hosts(np.array([3, 4]))
    assert rc.n_hosts == 2
    assert rc.comm_factor.shape == (1, 1)
    assert list(rc.host_ids) == [3, 4]


def test_rc_from_empty_rejected():
    with pytest.raises(ValueError):
        _mini_platform().rc_from_hosts(np.array([], dtype=int))


def test_host_attributes():
    p = _mini_platform()
    a = p.host_attributes(0)
    assert a["Clock"] == 3000.0
    assert a["Arch"] == "XEON"
    assert a["Type"] == "Machine"
    assert a["Region"] == "North_America"
    b = p.host_attributes(4)
    assert b["Region"] == "Europe"
    assert p.host_attributes(3)["ClusterId"] == 1
    assert (b["HostId"], b["Name"], b["Machine"]) == (4, "host000004.cluster0001.grid", "host000004")
    # The host view is its cluster's attributes plus the per-host names.
    assert {k: v for k, v in b.items() if k not in PER_HOST_ATTRIBUTES} == p.cluster_attributes(1)


def test_host_table_is_a_columnar_view_of_host_attributes():
    p = _mini_platform()
    table = p.host_table()
    for host in range(p.n_hosts):
        attrs = p.host_attributes(host)
        assert sorted(table) == sorted(name.lower() for name in attrs)
        for name, value in attrs.items():
            assert table[name.lower()][host] == value


def test_free_mask():
    p = _mini_platform()
    assert p.free_mask(set()).tolist() == [True] * 5
    assert p.free_mask({4, 1}).tolist() == [True, False, True, True, False]


def test_latency_model():
    p = _mini_platform()
    assert p.latency_ms(0, 0) == LATENCY_INTRA_CLUSTER_MS
    assert p.latency_ms(0, 1) == LATENCY_CROSS_DOMAIN_MS
    p2 = Platform(
        clusters=p.clusters,
        bandwidth_bps=np.array([[0.0, 1e9], [1e9, 0.0]]),
        cluster_domain=np.array([0, 0]),
    )
    assert p2.latency_ms(0, 1) == LATENCY_INTRA_DOMAIN_MS


def test_generate_platform(rng):
    p = generate_platform(PlatformConfig(), rng) if False else None
    # Full-size generation is slow; use a small config.
    from repro.resources.generator import ResourceGeneratorConfig

    p = generate_platform(
        PlatformConfig(resources=ResourceGeneratorConfig(n_clusters=15)), rng
    )
    assert p.n_clusters == 15
    assert p.n_hosts == sum(c.n_hosts for c in p.clusters)
    assert p.cluster_domain.shape == (15,)
    f = p.comm_factor_matrix()
    assert np.all(f >= 1.0 - 1e-9)  # nothing faster than the reference link
