"""Helpers producing ClassAds from the synthetic platform.

:func:`machine_ad` renders the workstation advertisement of Fig. II-3 for a
platform host; :func:`job_request_ad` builds a plain (bilateral) job request.
The Chapter VII generator builds its Gangmatch requests directly as text —
see :mod:`repro.core.generator`.
"""

from __future__ import annotations

from typing import Iterable

from repro.resources.platform import PER_HOST_ATTRIBUTES, Platform
from repro.selection.classad.parser import ClassAd, Literal, parse_expression

__all__ = ["machine_ad", "machine_ads", "machine_templates", "job_request_ad"]

#: The host attributes a machine ad advertises, in ad order (values from
#: :meth:`repro.resources.platform.Platform.host_attributes`; the
#: :data:`~repro.resources.platform.PER_HOST_ATTRIBUTES` among them from
#: :meth:`~repro.resources.platform.Platform.per_host_attributes`).
ADVERTISED = (
    "Type",
    "Name",
    "Machine",
    "Arch",
    "OpSys",
    "Cluster",
    "HostId",
    "Clock",
    "KFlops",
    "Memory",
    "Disk",
    "LoadAvg",
    "KeyboardIdle",
)

#: Dedicated access (§III.2.3): the host accepts any job.  Parsed once and
#: shared by every ad, since expression nodes are immutable.
_DEDICATED = parse_expression("LoadAvg <= 0.5")


def machine_templates(platform: Platform) -> tuple[ClassAd, ...]:
    """One machine ad per cluster, complete but for the per-host names,
    which hold ``None`` in their ad-order slots until :func:`machine_ad`
    sets them; built once per platform through
    :meth:`~repro.resources.platform.Platform.derived` and read by
    :func:`machine_ad` and the platform preflight.

    Equal literals are one object across the templates: values of the
    same type and ``repr`` share a :class:`Literal` (type and ``repr``
    keep ``1``, ``1.0`` and ``true``, and ``0.0`` and ``-0.0``, apart).
    So ads of different clusters that advertise the same values bind the
    same expression objects, and a gangmatch scan judges them once
    (:mod:`repro.selection.classad.matchmaker`).  Like every node, the
    shared literals are immutable.
    """
    return platform.derived(_build_templates)


def _build_templates(platform: Platform) -> tuple[ClassAd, ...]:
    shared: dict[tuple[type, str], Literal] = {}

    def literal(value: object) -> Literal:
        return shared.setdefault((type(value), repr(value)), Literal(value))

    templates = []
    for cid in range(platform.n_clusters):
        attrs = platform.cluster_attributes(cid)
        ad = ClassAd()
        for name in ADVERTISED:
            ad[name] = literal(None if name in PER_HOST_ATTRIBUTES else attrs[name])
        ad["Requirements"] = _DEDICATED
        ad["Rank"] = literal(0)
        templates.append(ad)
    return tuple(templates)


def machine_ad(platform: Platform, host_id: int) -> ClassAd:
    """Workstation advertisement (Fig. II-3) for one platform host: a
    copy of its cluster's template with the per-host names set."""
    ad = machine_templates(platform)[int(platform.host_cluster[host_id])].copy()
    for name, value in platform.per_host_attributes(host_id).items():
        ad[name] = Literal(value)
    return ad


def machine_ads(platform: Platform, host_ids: Iterable[int] | None = None) -> list[ClassAd]:
    """Advertisements for the given hosts (default: the whole universe)."""
    ids = range(platform.n_hosts) if host_ids is None else host_ids
    return [machine_ad(platform, int(h)) for h in ids]


def job_request_ad(
    owner: str = "somedude",
    cmd: str = "run_simulation",
    requirements: str = 'TARGET.Type == "Machine"',
    rank: str = "KFlops",
    image_size_mb: float = 100.0,
) -> ClassAd:
    """A bilateral job request ad."""
    ad = ClassAd.from_values(
        {
            "Type": "Job",
            "Owner": owner,
            "Cmd": cmd,
            "ImageSize": image_size_mb * 2.0**20,
        }
    )
    ad["Requirements"] = parse_expression(requirements)
    ad["Rank"] = parse_expression(rank)
    return ad
