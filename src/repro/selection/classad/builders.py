"""Helpers producing ClassAds from the synthetic platform.

:func:`machine_ad` renders the workstation advertisement of Fig. II-3 for a
platform host; :func:`job_request_ad` builds a plain (bilateral) job request.
The Chapter VII generator builds its Gangmatch requests directly as text —
see :mod:`repro.core.generator`.
"""

from __future__ import annotations

from typing import Iterable

from repro.resources.platform import Platform
from repro.selection.classad.parser import ClassAd, Literal, parse_expression

__all__ = ["machine_ad", "machine_ads", "job_request_ad"]

#: Dedicated access (§III.2.3): the host accepts any job.  Parsed once and
#: shared by every ad, since expression nodes are immutable.
_DEDICATED = parse_expression("LoadAvg <= 0.5")


def machine_ad(platform: Platform, host_id: int) -> ClassAd:
    """Workstation advertisement (Fig. II-3) for one platform host."""
    attrs = platform.host_attributes(host_id)
    ad = ClassAd.from_values(
        {
            "Type": "Machine",
            "Name": f"host{host_id:06d}.{attrs['Cluster']}.grid",
            "Machine": f"host{host_id:06d}",
            "Arch": attrs["Arch"],
            "OpSys": attrs["OpSys"],
            "Cluster": attrs["Cluster"],
            "HostId": attrs["HostId"],
            "Clock": attrs["Clock"],
            "KFlops": attrs["KFlops"],
            "Memory": attrs["Memory"],
            "Disk": attrs["FreeDisk"],
            "LoadAvg": attrs["CpuLoad"],
            "KeyboardIdle": 3600,
        }
    )
    ad["Requirements"] = _DEDICATED
    ad["Rank"] = Literal(0)
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
