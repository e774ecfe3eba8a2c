"""The platform's one host-attribute model and the consumers that project it.

:meth:`Platform.cluster_attributes` / :meth:`Platform.host_attributes`
define what a host advertises; the vgES cluster ads, the ClassAd machine
ads and SWORD's attribute table each list the names they carry and take
the values from the model.
"""

import numpy as np
import pytest

from repro.analysis import ir
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import get_scale
from repro.resources.platform import PER_HOST_ATTRIBUTES
from repro.selection import sword, vgdl
from repro.selection.classad import builders


@pytest.fixture(scope="module", params=["smoke", "small"])
def platform(request):
    return build_universe(get_scale(request.param), 0)


def _assert_projects(ad, names, model: dict) -> None:
    """``ad`` opens with exactly ``names``, in order, each a literal with
    the model's value and Python type."""
    assert list(ad)[: len(names)] == list(names)
    for name in names:
        value = ad[name].value
        assert value == model[name] and type(value) is type(model[name]), name


def test_every_advertised_name_is_in_the_vocabulary_with_its_type(platform):
    attrs = platform.host_attributes(platform.n_hosts - 1)
    assert set(PER_HOST_ATTRIBUTES) <= set(attrs)
    for name, value in attrs.items():
        expected = "string" if isinstance(value, str) else "number"
        assert ir.DEFAULT_VOCABULARY.get(name.lower()) == expected, name


def test_vges_cluster_ads_project_the_model(platform):
    ads = vgdl.VgES(platform)._cluster_ads
    assert len(ads) == platform.n_clusters
    for cid, ad in enumerate(ads):
        assert len(ad) == len(vgdl.ADVERTISED)
        _assert_projects(ad, vgdl.ADVERTISED, platform.cluster_attributes(cid))


def test_machine_ads_project_the_model(platform):
    for host in range(0, platform.n_hosts, 7):
        ad = builders.machine_ad(platform, host)
        assert list(ad) == [*builders.ADVERTISED, "Requirements", "Rank"]
        _assert_projects(ad, builders.ADVERTISED, platform.host_attributes(host))


def test_sword_attributes_project_the_model(platform):
    values, cats = sword.cluster_table(platform)
    assert tuple(values) == sword.NUMERIC_ATTRS
    assert tuple(cats) == sword.CATEGORICAL_ATTRS
    assert values["num_cpus"].tolist() == [1.0] * platform.n_clusters
    for cid in range(platform.n_clusters):
        attrs = platform.cluster_attributes(cid)
        for tag, name in sword.NUMERIC_NAMES.items():
            assert values[tag].dtype == np.float64 and values[tag][cid] == attrs[name]
        for tag, name in sword.CATEGORICAL_NAMES.items():
            assert cats[tag][cid] == attrs[name].lower()


def test_vgdl_known_attributes_are_the_vges_names():
    assert vgdl.KNOWN_ATTRIBUTES == {name.lower() for name in vgdl.ADVERTISED}
