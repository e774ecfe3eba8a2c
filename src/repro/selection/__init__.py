"""Resource-selection substrates (dissertation §II.4).

Three in-process engines speaking the input languages of the three systems
Chapter VII generates specifications for:

* :mod:`repro.selection.classad` — the Condor ClassAd expression language,
  bilateral Matchmaking and multilateral Gangmatching (§II.4.2);
* :mod:`repro.selection.vgdl` — the Virtual Grid Description Language and a
  vgES-style finder-and-binder (§II.4.1);
* :mod:`repro.selection.sword` — SWORD XML queries with 5-tuple penalty
  functions and a penalty-minimising optimizer (§II.4.3).

All engines select hosts from a :class:`repro.resources.platform.Platform`.
"""

from repro.selection.classad import ClassAd, parse_classad, Matchmaker
from repro.selection.vgdl import parse_vgdl, VgES, VirtualGrid
from repro.selection.sword import parse_sword_query, SwordEngine
from repro.selection.pipeline import (
    PipelineConfig,
    SelectionOutcome,
    SelectionPipeline,
)

__all__ = [
    "ClassAd",
    "parse_classad",
    "Matchmaker",
    "parse_vgdl",
    "VgES",
    "VirtualGrid",
    "parse_sword_query",
    "SwordEngine",
    "PipelineConfig",
    "SelectionOutcome",
    "SelectionPipeline",
]
