"""The selection tables built once per platform through ``Platform.derived``.

The vgES cluster ads, the ClassAd machine-ad templates, the preflight's
cluster ads and SWORD's cluster table are pure functions of the
platform.  Each is built on first use and shared by every later select
and preflight on that platform; nothing a select or preflight does may
change them, and no request-dependent state is kept.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import preflight
from repro.core.generator import ResourceSpecification
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMOKE
from repro.resources.platform import Platform
from repro.selection import sword, vgdl
from repro.selection.classad import builders
from repro.selection.classad.parser import ClassAd, Literal, parse_expression
from repro.selection.pipeline import BACKENDS, select_once

#: Every table, with the ads or columns it holds.
BUILDERS = {
    "vges": vgdl._build_cluster_ads,
    "machine_templates": builders._build_templates,
    "preflight": preflight._build_cluster_ads,
    "sword": sword._build_cluster_table,
}

SPECS = Path(__file__).parent.parent / "examples" / "specs"
MONTAGE_DOCS = {
    "vgdl": "montage.vgdl",
    "classad": "montage.classad",
    "sword": "montage.xml",
    "json": "montage.json",
}


def _spec(size: int, clock_min_mhz: float) -> ResourceSpecification:
    return ResourceSpecification(
        heuristic="mcp",
        size=size,
        min_size=size,
        clock_min_mhz=clock_min_mhz,
        clock_max_mhz=4000.0,
        connectivity="loose",
        threshold=0.001,
        dag_name="montage",
    )


def _snapshot(table) -> list:
    """A comparable copy of a table: ``unparse()`` of each ad, a list of
    each column."""
    if isinstance(table, tuple) and isinstance(table[0], dict):  # SWORD's columns
        return [{tag: col.tolist() for tag, col in part.items()} for part in table]
    return [ad.unparse() if isinstance(ad, ClassAd) else (ad[0].unparse(), ad[1]) for ad in table]


def _exercise(platform: Platform) -> None:
    """Selects on every backend under two banned sets, and preflights of
    generated specs and of the Montage documents in every language."""
    for banned in (set(), set(range(0, platform.n_hosts, 3))):
        for backend in BACKENDS:
            for spec in (_spec(8, 2000.0), _spec(24, 3000.0)):
                select_once(platform, backend, spec, banned)
    for spec in (_spec(8, 2000.0), _spec(24, 3500.0)):
        preflight.preflight_specification(spec, platform)
    for lang, name in MONTAGE_DOCS.items():
        text = (SPECS / name).read_text(encoding="utf-8")
        preflight.preflight_document(text, platform, lang)


@pytest.fixture()
def platform():
    return build_universe(SMOKE, 0)


def test_each_table_is_built_once_per_platform(platform, monkeypatch):
    calls = []
    original = Platform.cluster_attributes

    def counting(self, cluster_id):
        calls.append(cluster_id)
        return original(self, cluster_id)

    monkeypatch.setattr(Platform, "cluster_attributes", counting)
    _exercise(platform)
    # Each of the four builders reads every cluster once.
    assert sorted(calls) == sorted(list(range(platform.n_clusters)) * len(BUILDERS))
    for _ in range(3):
        _exercise(platform)
    assert len(calls) == platform.n_clusters * len(BUILDERS)


def test_two_platforms_never_share_a_table():
    first, second = build_universe(SMOKE, 0), build_universe(SMOKE, 1)
    for build in BUILDERS.values():
        a, b = first.derived(build), second.derived(build)
        assert a is not b
        assert _snapshot(a) == _snapshot(build(first))
        assert _snapshot(b) == _snapshot(build(second))
    assert vgdl.VgES(first)._cluster_ads is first.derived(vgdl._build_cluster_ads)
    assert preflight.cluster_ads(second) is second.derived(preflight._build_cluster_ads)
    assert sword.cluster_table(second) is second.derived(sword._build_cluster_table)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_cached_table_equals_a_fresh_build(platform, name):
    build = BUILDERS[name]
    assert platform.derived(build) is platform.derived(build)
    assert _snapshot(platform.derived(build)) == _snapshot(build(platform))


def test_selects_and_preflights_leave_the_tables_unchanged(platform):
    before = {name: _snapshot(platform.derived(build)) for name, build in BUILDERS.items()}
    _exercise(platform)
    after = {name: _snapshot(platform.derived(build)) for name, build in BUILDERS.items()}
    assert after == before
    values, cats = sword.cluster_table(platform)
    for column in (*values.values(), *cats.values()):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_machine_ad_equals_the_host_attributes_ad(platform):
    """The template copy equals the ad built from ``host_attributes``,
    name for name, for every host."""
    dedicated = parse_expression("LoadAvg <= 0.5")
    for host in range(platform.n_hosts):
        attrs = platform.host_attributes(host)
        expected = ClassAd.from_values({name: attrs[name] for name in builders.ADVERTISED})
        expected["Requirements"] = dedicated
        expected["Rank"] = Literal(0)
        ad = builders.machine_ad(platform, host)
        assert list(ad.items()) == list(expected.items())
        assert ad.unparse() == expected.unparse()


@pytest.mark.parametrize("backend", BACKENDS)
def test_select_once_leaves_no_reference_cycles(platform, backend):
    """A select frees its engine when it returns: nothing it allocated
    waits for the cyclic collector."""
    banned = set(range(0, platform.n_hosts, 5))
    spec = _spec(16, 2000.0)
    hosts, _ = select_once(platform, backend, spec, banned)
    assert hosts is not None
    gc.collect()
    gc.disable()
    try:
        select_once(platform, backend, spec, banned)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cluster_hosts_is_the_cluster_id_scan(platform):
    for cid in range(platform.n_clusters):
        hosts = platform.cluster_hosts(cid)
        expected = np.flatnonzero(platform.host_cluster == cid)
        assert hosts.dtype == expected.dtype
        assert hosts.tolist() == expected.tolist()
