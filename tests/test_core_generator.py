"""Tests for the resource specification generator (Chapter VII)."""

import pytest

from repro.core.cost import UtilityFunction
from repro.core.generator import (
    LOOSE_CCR_THRESHOLD,
    ResourceSpecification,
    ResourceSpecificationGenerator,
)
from repro.dag.montage import montage_dag, montage_level_counts
from repro.dag.workflows import chain_dag
from repro.selection.classad import parse_classad
from repro.selection.sword import parse_sword_query
from repro.selection.vgdl import parse_vgdl


def _spec(**over):
    base = dict(
        heuristic="mcp",
        size=50,
        min_size=45,
        clock_min_mhz=2100.0,
        clock_max_mhz=3000.0,
        connectivity="tight",
        threshold=0.001,
        dag_name="demo",
    )
    base.update(over)
    return ResourceSpecification(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(size=0)
    with pytest.raises(ValueError):
        _spec(min_size=60)  # min > size
    with pytest.raises(ValueError):
        _spec(clock_max_mhz=1000.0)  # max < min
    with pytest.raises(ValueError):
        _spec(connectivity="fuzzy")


def test_vgdl_renders_and_parses():
    spec = _spec()
    parsed = parse_vgdl(spec.to_vgdl())
    agg = parsed.aggregates[0]
    assert agg.kind == "TightBagOf"
    assert (agg.lo, agg.hi) == (45, 50)


def test_vgdl_loose_connectivity():
    parsed = parse_vgdl(_spec(connectivity="loose").to_vgdl())
    assert parsed.aggregates[0].kind == "LooseBagOf"


def test_classad_renders_and_parses():
    ad = parse_classad(_spec().to_classad())
    assert "Ports" in ad
    port = ad["Ports"].items[0].ad
    assert "Count" in port
    assert "Constraint" in port


def test_sword_renders_and_parses():
    q = parse_sword_query(_spec().to_sword_xml())
    assert q.groups[0].num_machines == 50
    clock_req = [r for r in q.groups[0].numeric if r.attr == "clock"]
    assert clock_req and clock_req[0].required_lo == 2100.0


def test_describe_mentions_everything():
    text = _spec().describe()
    assert "MCP" in text
    assert "45–50" in text
    assert "tight" in text


def test_generator_basic(tiny_size_model, small_montage):
    gen = ResourceSpecificationGenerator(tiny_size_model)
    spec = gen.generate(small_montage)
    assert 1 <= spec.size <= small_montage.width
    assert spec.min_size <= spec.size
    assert spec.heuristic == "mcp"  # no heuristic model -> reference
    assert spec.connectivity == "loose"  # montage ccr 0.01 < threshold
    assert spec.dag_characteristics is not None


def test_generator_tight_for_communicating_dags(tiny_size_model, medium_dag):
    gen = ResourceSpecificationGenerator(tiny_size_model)
    spec = gen.generate(medium_dag)  # medium_dag has CCR 0.3
    assert spec.connectivity == "tight"


def test_generator_single_host_rule(tiny_size_model):
    dag = chain_dag(40, comp_cost=1.0, comm_cost=10.0)  # CCR 10, parallelism 0
    gen = ResourceSpecificationGenerator(tiny_size_model)
    assert gen.generate(dag).size == 1


def test_generator_clock_band(tiny_size_model, small_montage):
    gen = ResourceSpecificationGenerator(
        tiny_size_model, target_clock_ghz=3.5, heterogeneity_tolerance=0.2
    )
    spec = gen.generate(small_montage)
    assert spec.clock_max_mhz == pytest.approx(3500.0)
    assert spec.clock_min_mhz == pytest.approx(2800.0)


def test_generator_utility_picks_larger_threshold(tiny_size_model, small_montage):
    gen = ResourceSpecificationGenerator(tiny_size_model)
    plain = gen.generate(small_montage)
    cheap = gen.generate(
        small_montage, utility=UtilityFunction(degradation_unit=0.10, cost_unit=0.01)
    )
    # A cost-hungry utility never requests more hosts than the default.
    assert cheap.size <= plain.size


def test_generator_explicit_threshold(tiny_size_model, small_montage):
    gen = ResourceSpecificationGenerator(tiny_size_model)
    spec = gen.generate(small_montage, threshold=0.05)
    assert spec.threshold == 0.05


def test_loose_ccr_threshold_constant():
    assert 0.0 < LOOSE_CCR_THRESHOLD < 0.1


# ----------------------------------------------------------------------
# JSON round-trip (the `repro select --spec` input format).
# ----------------------------------------------------------------------
def test_to_dict_from_dict_round_trip():
    spec = _spec(connectivity="loose", threshold=0.05)
    assert ResourceSpecification.from_dict(spec.to_dict()) == spec


def test_from_dict_defaults_optional_fields():
    spec = ResourceSpecification.from_dict(
        dict(heuristic="mcp", size=10, min_size=8, clock_min_mhz=2000.0,
             clock_max_mhz=3000.0)
    )
    assert spec.connectivity == "tight"
    assert spec.size == 10


def test_from_dict_rejects_unknown_keys():
    data = _spec().to_dict()
    data["frobnication"] = 1
    with pytest.raises(ValueError):
        ResourceSpecification.from_dict(data)


def test_from_dict_rejects_missing_required_keys():
    data = _spec().to_dict()
    del data["size"]
    with pytest.raises(ValueError):
        ResourceSpecification.from_dict(data)


# ----------------------------------------------------------------------
# The generator's static-analysis self-check.
# ----------------------------------------------------------------------
def test_generate_self_check_passes_on_real_output(tiny_size_model, small_montage):
    # The self-check runs on every generate(): it passes and the spec is clean.
    spec = ResourceSpecificationGenerator(tiny_size_model).generate(small_montage)
    from repro.analysis import analyze_specification

    assert not analyze_specification(spec).has_errors


def test_generate_self_check_catches_broken_renderer(tiny_size_model, small_montage, monkeypatch):
    # Sabotage a renderer: the self-check must refuse to return the spec.
    from repro.analysis.spec import SpecificationLintError

    def broken(self):
        return "VG =\nLooseBagOf(nodes) [4:8]\n{\n  nodes = [ (Speed >= 3) ]\n}"

    monkeypatch.setattr(ResourceSpecification, "to_vgdl", broken)
    gen = ResourceSpecificationGenerator(tiny_size_model)
    with pytest.raises(SpecificationLintError) as exc:
        gen.generate(small_montage)
    assert "SPEC104" in str(exc.value)
    assert exc.value.report.has_errors
