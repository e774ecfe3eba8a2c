"""The automatic resource specification generator (Chapter VII).

Combines the size prediction model (Ch. V) and the heuristic prediction
model (Ch. VI) with assumptions about the resource environment to emit a
concrete :class:`ResourceSpecification`, renderable as:

* vgDL (Fig. VII-5) — a TightBag/LooseBag with a node-count range, a clock
  constraint and a ``rank = Nodes`` preference;
* a Condor Gangmatch ClassAd (Fig. VII-3) — one machine port carrying the
  predicted count (``Count`` extension, see the matchmaker);
* a SWORD XML query (Fig. VII-4) — one group with ``num_machines`` and
  5-tuple clock/latency requirements.

Environment assumptions (§VII): the generator targets the fastest clock
band the user expects to find (default 3.0 GHz), allows a clock-rate
*range* derived from the heterogeneity tolerance of §V.4 (heterogeneous
RCs within ±tolerance degrade turn-around only marginally while costing
less), and requires good connectivity (TightBag / bounded latency) unless
the DAG's CCR is negligible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from xml.sax.saxutils import escape as _escape_xml

from repro.dag.graph import DAG
from repro.dag.metrics import DagCharacteristics, characteristics
from repro.core.cost import UtilityFunction, cost_for_size
from repro.core.heuristic_model import HeuristicPredictionModel
from repro.core.knee import DEFAULT_KNEE_THRESHOLD
from repro.core.size_model import SizePredictionModel, recommend_single_host
from repro.resources.collection import REFERENCE_CLOCK_GHZ

__all__ = [
    "ResourceSpecification",
    "ResourceSpecificationGenerator",
    "request_specification",
    "sanitize_dag_name",
    "TARGET_OS",
    "SWORD_LATENCY_TUPLES",
]

#: CCR below which communication is negligible and a LooseBag suffices
#: (Ch. IV: the naïve abstraction only works "when communication costs are
#: minimal").
LOOSE_CCR_THRESHOLD = 0.05

#: Fewest hosts a request accepts, as a fraction of its RC size.
MIN_SIZE_FRACTION = 0.9

#: The operating system every rendering constrains the hosts to.  Shared
#: by the ClassAd and SWORD renderers and by the SPEC140 cross-language
#: equivalence reference, so a renderer can't drift alone.
TARGET_OS = "LINUX"

#: SWORD intra-group latency 5-tuples (required_lo, desired_lo,
#: desired_hi, required_hi, rate) per connectivity class: tight
#: connectivity = intra-domain scale.  Shared with the SPEC140 reference
#: (the hard cap is the tuple's fourth field).
SWORD_LATENCY_TUPLES = {
    "tight": "0.0, 0.0, 10.0, 20.0, 0.5",
    "loose": "0.0, 0.0, 50.0, 100.0, 0.1",
}

#: Characters allowed to survive :func:`sanitize_dag_name` unchanged.
_NAME_UNSAFE = re.compile(r"[^0-9A-Za-z_.-]+")

#: Characters the XML 1.0 grammar forbids even when escaped (C0 controls
#: other than tab/newline/CR, and the non-characters/surrogate range).
_XML_ILLEGAL = re.compile(
    "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff￾￿]"
)


def sanitize_dag_name(name: str) -> str:
    """A conservative identifier derived from a DAG's display name.

    DAG names are free-form (``montage(levels=20)``, ``fork join & <x>``)
    but end up inside generated documents — SWORD group names, file-name
    hints — so everything outside ``[0-9A-Za-z_.-]`` collapses to ``_``
    after dropping a trailing parenthesised parameter list.
    """
    base = name.split("(")[0].strip()
    base = _NAME_UNSAFE.sub("_", base).strip("_")
    return base or "dag"


def _xml_text(value: str) -> str:
    """``value`` made safe for XML text content: entity-escape the markup
    characters and drop code points XML 1.0 cannot carry at all."""
    return _escape_xml(_XML_ILLEGAL.sub("", value))


def _classad_string(value: str) -> str:
    """``value`` as a quoted ClassAd string literal (backslash escapes)."""
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _self_check(spec: "ResourceSpecification") -> None:
    """Lint ``spec``'s three renderings; error findings raise.

    Imported lazily: :mod:`repro.analysis` depends on this module for
    typing.
    """
    from repro.analysis.spec import SpecificationLintError, analyze_specification

    report = analyze_specification(spec)
    if report.has_errors:
        first = report.errors()[0]
        raise SpecificationLintError(
            f"generated specification failed its own static analysis: "
            f"{first.format()}",
            report,
        )


@dataclass(frozen=True)
class ResourceSpecification:
    """A generated resource request (the output of Fig. VII-1)."""

    heuristic: str
    size: int
    min_size: int
    clock_min_mhz: float
    clock_max_mhz: float
    connectivity: str  # "tight" | "loose"
    threshold: float
    dag_name: str = "dag"
    dag_characteristics: DagCharacteristics | None = None

    def __post_init__(self) -> None:
        if self.size < 1 or self.min_size < 1 or self.min_size > self.size:
            raise ValueError("invalid size range")
        if self.clock_min_mhz <= 0 or self.clock_max_mhz < self.clock_min_mhz:
            raise ValueError("invalid clock range")
        if self.connectivity not in ("tight", "loose"):
            raise ValueError("connectivity must be 'tight' or 'loose'")

    # ------------------------------------------------------------------
    # Renderers (Figs. VII-3/4/5)
    # ------------------------------------------------------------------
    def to_vgdl(self) -> str:
        """vgDL resource specification (Fig. VII-5).

        Only the lower clock bound is a hard constraint (faster hosts are
        always acceptable — cf. Fig. IV-4); ``rank = Nodes`` then prefers
        the candidate that yields the most hosts inside the band, per the
        paper figure — the RC size is the quantity the Chapter V model
        predicts, so it is what the selection should maximise.
        """
        kind = "TightBagOf" if self.connectivity == "tight" else "LooseBagOf"
        return (
            f"VG =\n"
            f"{kind}(nodes) [{self.min_size}:{self.size}]\n"
            f"[rank = Nodes] {{\n"
            f"  nodes = [ (Clock >= {self.clock_min_mhz:.0f}) ]\n"
            f"}}"
        )

    def to_classad(self, owner: str = "generator", cmd: str = "run_dag") -> str:
        """Condor Gangmatch request (Fig. VII-3).

        ``owner``/``cmd`` (and the heuristic name) are emitted as properly
        escaped ClassAd string literals, so quotes or backslashes in them
        cannot break out of the attribute value.
        """
        return (
            "[\n"
            '  Type = "Job";\n'
            f"  Owner = {_classad_string(owner)};\n"
            f"  Cmd = {_classad_string(cmd)};\n"
            f"  SchedulingHeuristic = {_classad_string(self.heuristic)};\n"
            "  Ports = {\n"
            "    [\n"
            "      Label = cpu;\n"
            f"      Count = {self.size};\n"
            "      Rank = cpu.Clock;\n"
            f'      Constraint = cpu.Type == "Machine" && cpu.OpSys == "{TARGET_OS}" &&\n'
            f"                   cpu.Clock >= {self.clock_min_mhz:.0f}\n"
            "    ]\n"
            "  }\n"
            "]"
        )

    def to_sword_xml(self) -> str:
        """SWORD XML query (Fig. VII-4).

        All interpolated text is XML-escaped: DAG names are free-form
        (``fork join & <x>``) and must never yield an ill-formed document
        our own :func:`~repro.selection.sword.parse_sword_query` rejects.
        """
        lat = SWORD_LATENCY_TUPLES[self.connectivity]
        return (
            "<request>\n"
            "  <dist_query_budget>50</dist_query_budget>\n"
            "  <optimizer_budget>200</optimizer_budget>\n"
            "  <group>\n"
            f"    <name>{_xml_text(self.dag_name)}_rc</name>\n"
            f"    <num_machines>{self.size}</num_machines>\n"
            f"    <clock>{self.clock_min_mhz:.1f}, {self.clock_max_mhz:.1f}, "
            f"MAX, MAX, 0.01</clock>\n"
            "    <cpu_load>0.5, 0.1, 0.1, 0.0, 0.0</cpu_load>\n"
            f"    <latency>{lat}</latency>\n"
            f"    <os><value>{TARGET_OS}, 0.0</value></os>\n"
            "  </group>\n"
            "</request>"
        )

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"Run {self.dag_name} with the {self.heuristic.upper()} heuristic on "
            f"{self.min_size}–{self.size} hosts clocked between "
            f"{self.clock_min_mhz / 1000:.2f} and {self.clock_max_mhz / 1000:.2f} GHz "
            f"({self.connectivity} connectivity, knee threshold "
            f"{self.threshold * 100:.1f}%)."
        )

    # ------------------------------------------------------------------
    # Plain-dict round-trip (the ``repro select --spec`` file format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable rendering (``dag_characteristics`` excluded —
        it is derived from the DAG, not part of the request)."""
        return {
            "heuristic": self.heuristic,
            "size": self.size,
            "min_size": self.min_size,
            "clock_min_mhz": self.clock_min_mhz,
            "clock_max_mhz": self.clock_max_mhz,
            "connectivity": self.connectivity,
            "threshold": self.threshold,
            "dag_name": self.dag_name,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "ResourceSpecification":
        """Rebuild a specification from :meth:`to_dict` output.

        Unknown keys are rejected so a typo (``clock_min``) fails loudly
        instead of silently falling back to a default.
        """
        if not isinstance(data, dict):
            raise ValueError("resource specification must be a JSON object")
        allowed = {
            "heuristic",
            "size",
            "min_size",
            "clock_min_mhz",
            "clock_max_mhz",
            "connectivity",
            "threshold",
            "dag_name",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown specification fields: {sorted(unknown)}")
        missing = {"heuristic", "size", "min_size", "clock_min_mhz", "clock_max_mhz"} - set(data)
        if missing:
            raise ValueError(f"missing specification fields: {sorted(missing)}")
        return cls(
            heuristic=str(data["heuristic"]),
            size=int(data["size"]),  # type: ignore[arg-type]
            min_size=int(data["min_size"]),  # type: ignore[arg-type]
            clock_min_mhz=float(data["clock_min_mhz"]),  # type: ignore[arg-type]
            clock_max_mhz=float(data["clock_max_mhz"]),  # type: ignore[arg-type]
            connectivity=str(data.get("connectivity", "tight")),
            threshold=float(data.get("threshold", DEFAULT_KNEE_THRESHOLD)),  # type: ignore[arg-type]
            dag_name=sanitize_dag_name(str(data.get("dag_name", "dag"))),
        )


def request_specification(
    heuristic: str,
    size: int,
    *,
    clock_ghz: float,
    heterogeneity_tolerance: float,
    ccr: float,
    threshold: float,
    dag_name: str,
    dag_characteristics: DagCharacteristics | None = None,
) -> ResourceSpecification:
    """The request for ``size`` hosts of the ``clock_ghz`` band: the one
    rule the generator, the service's request files and ``repro predict``
    share.

    It accepts :data:`MIN_SIZE_FRACTION` of ``size`` hosts (rounded, at
    least one) clocked from ``clock_ghz * (1 - heterogeneity_tolerance)``
    up to ``clock_ghz``, loosely connected when ``ccr`` is below
    :data:`LOOSE_CCR_THRESHOLD`.
    """
    clock_max = clock_ghz * 1000.0
    return ResourceSpecification(
        heuristic=heuristic,
        size=size,
        min_size=max(1, int(round(MIN_SIZE_FRACTION * size))),
        clock_min_mhz=clock_max * (1.0 - heterogeneity_tolerance),
        clock_max_mhz=clock_max,
        connectivity="loose" if ccr < LOOSE_CCR_THRESHOLD else "tight",
        threshold=threshold,
        dag_name=dag_name,
        dag_characteristics=dag_characteristics,
    )


@dataclass
class ResourceSpecificationGenerator:
    """DAG → resource specification (Fig. VII-1).

    Parameters
    ----------
    size_model, heuristic_model:
        The trained Chapter V / Chapter VI models.  ``heuristic_model`` may
        be None, in which case the reference heuristic (MCP) is requested.
    target_clock_ghz:
        Fastest clock band the environment is expected to offer.
    heterogeneity_tolerance:
        Acceptable relative clock spread within the RC; §V.4 shows moderate
        spreads (≤ 0.3) cost only a few percent of turn-around while
        enlarging the candidate resource pool.
    """

    size_model: SizePredictionModel
    heuristic_model: HeuristicPredictionModel | None = None
    target_clock_ghz: float = 3.0
    heterogeneity_tolerance: float = 0.3

    def generate(
        self,
        dag: DAG,
        threshold: float = DEFAULT_KNEE_THRESHOLD,
        utility: UtilityFunction | None = None,
    ) -> ResourceSpecification:
        """Generate the resource specification for ``dag``.

        With a ``utility``, the knee threshold is chosen among the size
        model's trained thresholds by minimising the utility (Fig. V-7):
        larger thresholds give smaller, cheaper RCs at bounded degradation.
        The spec is linted in all three output languages before it is
        returned; an error-level finding is a generator bug and raises
        :class:`~repro.analysis.spec.SpecificationLintError`.
        """
        ch = characteristics(dag)
        if utility is not None:
            threshold = self._choose_threshold(dag, ch, utility)

        if recommend_single_host(ch):
            size = 1
        else:
            size = self.size_model.predict_for_dag(dag, threshold)

        heuristic = (
            self.heuristic_model.predict(ch.size, ch.ccr, ch.parallelism, ch.regularity)
            if self.heuristic_model is not None
            else self.size_model.heuristic
        )

        spec = request_specification(
            heuristic,
            size,
            clock_ghz=self.target_clock_ghz,
            heterogeneity_tolerance=self.heterogeneity_tolerance,
            ccr=ch.ccr,
            threshold=threshold,
            dag_name=sanitize_dag_name(dag.name),
            dag_characteristics=ch,
        )
        _self_check(spec)
        return spec

    def _choose_threshold(
        self, dag: DAG, ch: DagCharacteristics, utility: UtilityFunction
    ) -> float:
        """Pick the knee threshold minimising the user's utility.

        Degradation is approximated by the threshold itself (the knee
        definition bounds per-step improvements) and cost scales with the
        predicted size; both are exactly the quantities Fig. V-7 trades.
        """
        thresholds = self.size_model.thresholds()
        sizes = [self.size_model.predict_for_dag(dag, t) for t in thresholds]
        base = max(sizes)
        speed = self.target_clock_ghz / REFERENCE_CLOCK_GHZ
        # Reference turn-around scale: serial work shared across the RC.
        ref_turn = ch.size * ch.mean_comp_cost / max(1, base) / speed
        options = []
        for t, s in zip(thresholds, sizes):
            degradation = t
            absolute = cost_for_size(s, ref_turn, speed)
            base_cost = cost_for_size(base, ref_turn, speed)
            rel = (absolute - base_cost) / base_cost if base_cost > 0 else 0.0
            options.append((degradation, rel, absolute))
        return thresholds[utility.choose(options)]
