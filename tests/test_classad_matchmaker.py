"""Tests for Matchmaking and Gangmatching."""

import copy
import hashlib
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.selection.classad.matchmaker as matchmaker
from repro.core.generator import request_specification
from repro.experiments.chapter4 import build_universe
from repro.experiments.scales import SMALL, SMOKE
from repro.selection.classad import (
    EvalContext,
    Matchmaker,
    evaluate,
    job_request_ad,
    machine_ad,
    machine_ads,
    parse_classad,
    parse_expression,
)
from repro.selection.classad.matchmaker import MatchError
from repro.selection.classad.parser import ClassAd, Literal
from repro.selection.index import IndexPlan
from repro.selection.pipeline import _advertised

#: What ``matchmaker.plan_constraint`` (the name the benchmark's tracer wraps)
#: holds: ``off`` an empty plan, which prunes nothing, ``auto`` the shipped
#: planner.  The matchmaker scans every ad whichever it holds.
PLANNERS = {"off": lambda *args, **kwargs: IndexPlan(), "auto": matchmaker.plan_constraint}


def _machine(**attrs):
    base = {
        "Type": "Machine",
        "Arch": "XEON",
        "OpSys": "LINUX",
        "Memory": 1024,
        "KFlops": 2.8e6,
        "Clock": 2800,
        "LoadAvg": 0.0,
    }
    base.update(attrs)
    from repro.selection.classad.parser import ClassAd

    return ClassAd.from_values(base)


def test_bilateral_match():
    mm = Matchmaker([_machine(), _machine(Arch="OPTERON")])
    req = parse_classad('[ Requirements = Arch == "OPTERON"; Rank = Clock ]')
    matches = mm.match(req)
    assert len(matches) == 1
    assert evaluate(matches[0].machine["Arch"], EvalContext(matches[0].machine)) == "OPTERON"


def test_machine_requirements_enforced():
    busy = _machine(LoadAvg=0.9)
    busy["Requirements"] = parse_classad("[r = LoadAvg <= 0.5]")["r"]
    mm = Matchmaker([busy])
    req = parse_classad("[ Requirements = true ]")
    assert mm.match(req) == []


def test_rank_orders_matches():
    mm = Matchmaker([_machine(Clock=2000), _machine(Clock=3500), _machine(Clock=2800)])
    req = parse_classad("[ Requirements = true; Rank = Clock ]")
    matches = mm.match(req)
    clocks = [evaluate(m.machine["Clock"], EvalContext(m.machine)) for m in matches]
    assert clocks == [3500, 2800, 2000]


def test_match_limit():
    mm = Matchmaker([_machine() for _ in range(5)])
    req = parse_classad("[ Requirements = true ]")
    assert len(mm.match(req, limit=2)) == 2


def test_match_after_advertise_sees_the_new_ad():
    ads = [_machine(HostId=h) for h in range(5)]
    req = parse_classad("[ Requirements = TARGET.Clock >= 0; Rank = 0 ]")
    mm = Matchmaker(ads[:-1])
    before = len(mm.match(req))
    mm.advertise(ads[-1])
    assert len(mm.match(req)) == before + 1


def test_requirements_falls_back_to_constraint():
    mm = Matchmaker([_machine()])
    req = parse_classad('[ Constraint = Arch == "XEON" ]')
    assert len(mm.match(req)) == 1


def test_other_scope_matches_as_target_does():
    # ``other.`` is the target's name in Raman, Livny and Solomon's
    # matchmaking paper: a request written with it matches and ranks the
    # machines its ``TARGET.`` twin does.
    mm = Matchmaker(machine_ads(build_universe(SMALL, 0)))
    other = '[ Requirements = other.Clock >= 1000 && other.OpSys == "LINUX"; Rank = other.Clock ]'
    twin = other.replace("other.", "TARGET.")
    got, want = (
        [(m.machine["HostId"], m.rank) for m in mm.match(parse_classad(text))]
        for text in (other, twin)
    )
    assert got and got == want


def test_a_port_written_with_other_keeps_the_independent_search():
    request = parse_classad(
        "[ Ports = { [ Label = cpu; Count = 2; Constraint = other.Clock >= 2000;"
        " Rank = other.Clock ] } ]"
    )
    exprs = matchmaker._machine_exprs([_machine(HostId=h) for h in range(3)])
    assert matchmaker._independent(request, Matchmaker._ports(request), exprs)


def test_gangmatch_two_ports():
    mm = Matchmaker([_machine(Arch="OPTERON"), _machine(Arch="XEON")])
    req = parse_classad(
        """
        [ Type = "Job";
          Ports = {
            [ Label = a; Constraint = a.Arch == "OPTERON" ],
            [ Label = b; Constraint = b.Arch == "XEON" ]
          } ]
        """
    )
    gang = mm.gangmatch(req)
    assert gang is not None
    assert set(gang.bindings) == {"a", "b"}


def test_gangmatch_no_machine_reuse():
    mm = Matchmaker([_machine()])
    req = parse_classad(
        """
        [ Ports = {
            [ Label = a; Constraint = a.Arch == "XEON" ],
            [ Label = b; Constraint = b.Arch == "XEON" ]
          } ]
        """
    )
    assert mm.gangmatch(req) is None


def test_gangmatch_backtracks():
    # Port a would greedily take the fast OPTERON machine, leaving port b
    # (which requires OPTERON) unsatisfied; backtracking must recover.
    fast_opteron = _machine(Arch="OPTERON", Clock=3500)
    slow_opteron = _machine(Arch="OPTERON", Clock=2000)
    mm = Matchmaker([fast_opteron, slow_opteron])
    req = parse_classad(
        """
        [ Ports = {
            [ Label = a; Rank = a.Clock; Constraint = a.Type == "Machine" ],
            [ Label = b; Constraint = b.Arch == "OPTERON" && b.Clock >= 3000 ]
          } ]
        """
    )
    gang = mm.gangmatch(req)
    assert gang is not None
    a_clock = evaluate(gang.bindings["a"]["Clock"], EvalContext(gang.bindings["a"]))
    assert a_clock == 2000  # backtracked off the fast machine


def test_gangmatch_port_rank():
    mm = Matchmaker([_machine(Clock=2000), _machine(Clock=3200)])
    req = parse_classad(
        '[ Ports = { [ Label = a; Rank = a.Clock; Constraint = a.Type == "Machine" ] } ]'
    )
    gang = mm.gangmatch(req)
    assert evaluate(gang.bindings["a"]["Clock"], EvalContext(gang.bindings["a"])) == 3200


def test_gangmatch_count_extension():
    mm = Matchmaker([_machine(Clock=c) for c in (2000, 2400, 2800, 3200)])
    req = parse_classad(
        """
        [ Ports = {
            [ Label = cpu; Count = 3; Rank = cpu.Clock;
              Constraint = cpu.Clock >= 2200 ]
          } ]
        """
    )
    gang = mm.gangmatch(req)
    assert gang is not None
    assert len(gang.bindings) == 3
    clocks = sorted(
        evaluate(ad["Clock"], EvalContext(ad)) for ad in gang.bindings.values()
    )
    assert clocks == [2400, 2800, 3200]


def test_gangmatch_count_insufficient_machines():
    mm = Matchmaker([_machine(), _machine()])
    req = parse_classad(
        '[ Ports = { [ Label = cpu; Count = 3; Constraint = cpu.Type == "Machine" ] } ]'
    )
    assert mm.gangmatch(req) is None


def _host_ids(gang):
    return {label: evaluate(ad["HostId"], EvalContext(ad)) for label, ad in gang.bindings.items()}


def _outcome(gang):
    """A gangmatch result as ``(label, HostId, repr(rank))`` triples, or
    None; ``repr`` tells a rank of -0.0 from one of 0.0."""
    if gang is None:
        return None
    return [
        (label, evaluate(ad["HostId"], EvalContext(ad)), repr(gang.ranks[label]))
        for label, ad in gang.bindings.items()
    ]


@pytest.mark.parametrize(
    "ports, expected",
    [
        (
            '[ Label = cpu; Constraint = cpu.Arch == "XEON" ], '
            '[ Label = cpu; Constraint = cpu.Arch == "OPTERON" ]',
            {"cpu": 0, "cpu1": 1},
        ),
        (
            '[ Label = cpu; Constraint = cpu.Arch == "XEON" ], '
            '[ Label = CPU; Constraint = CPU.Arch == "OPTERON" ]',
            {"cpu": 0, "CPU1": 1},
        ),
        (
            '[ Label = cpu; Constraint = cpu.Type == "Machine" ], '
            '[ Label = cpu; Constraint = cpu.Type == "Machine" ], '
            '[ Label = cpu1; Constraint = cpu1.Type == "Machine" ]',
            {"cpu": 0, "cpu1": 1, "cpu11": 2},
        ),
    ],
    ids=["repeated", "case-only", "suffix-taken"],
)
def test_gangmatch_duplicate_labels_bind_their_own_machines(ports, expected):
    # Scope lookup is case-insensitive, so a repeated label is renamed with
    # its own scoped references, and every port keeps a binding of its own.
    mm = Matchmaker(
        [_machine(Arch=a, HostId=h) for h, a in enumerate(("XEON", "OPTERON", "OPTERON"))]
    )
    gang = mm.gangmatch(parse_classad("[ Ports = { " + ports + " } ]"))
    assert gang is not None
    assert _host_ids(gang) == expected


@pytest.mark.parametrize("planner", list(PLANNERS))
def test_gangmatch_count_groups_bind_or_fail_fast(monkeypatch, planner):
    # 12 of 16 ads match.  Each Count group is scanned once (at most 4
    # evaluator calls per ad) and its replicas bind at increasing positions
    # of that scan.  The full search rescans per replica and, when fewer
    # ads match than Count, tries every ordering of those that do.  The
    # planner is never consulted, so both settings bind and count alike.
    ads = [_machine(HostId=h, Clock=1000 if h % 4 == 0 else 2000 + 10 * h) for h in range(16)]
    for ad in ads:
        ad["Requirements"] = parse_expression("LoadAvg <= 0.5")
    calls = budget = 0
    real_evaluate = matchmaker.evaluate

    def counted(expr, ctx, *args):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise AssertionError(f"gangmatch exceeded {budget} evaluate calls")
        return real_evaluate(expr, ctx, *args)

    planned = 0

    def counted_planner(*args, **kwargs):
        nonlocal planned
        planned += 1
        return PLANNERS[planner](*args, **kwargs)

    monkeypatch.setattr(matchmaker, "evaluate", counted)
    monkeypatch.setattr(matchmaker, "plan_constraint", counted_planner)
    mm = Matchmaker(ads)

    def gangmatch(*groups):
        """Gangmatch one port per ``(label, count)``; return the result and
        the number of search nodes (calls of the recursive ``bind``)."""
        nonlocal calls, budget
        calls, budget = 0, 4 * len(ads) * len(groups)
        ports = ", ".join(
            f"[ Label = {label}; Count = {count}; Rank = {label}.Clock;"
            f" Constraint = {label}.Clock >= 2000 ]"
            for label, count in groups
        )
        request = parse_classad("[ Ports = { " + ports + " } ]")
        nodes = 0

        def profile(frame, event, arg):
            nonlocal nodes
            code = frame.f_code
            if event == "call" and code.co_name == "bind" and code.co_filename == matchmaker.__file__:
                nodes += 1

        sys.setprofile(profile)
        try:
            gang = mm.gangmatch(request)
        finally:
            sys.setprofile(None)
        return gang, nodes

    gang, nodes = gangmatch(("cpu", 12))
    assert list(_host_ids(gang).values()) == sorted((h for h in range(16) if h % 4), reverse=True)
    assert nodes == 13  # one per replica, plus the success
    assert gangmatch(("cpu", 13)) == (None, 1)
    # 13 of 12: group a tries each 4-subset once, never all 11,880 orderings.
    gang, nodes = gangmatch(("a", 4), ("b", 9))
    assert gang is None and nodes < 1000
    assert planned == 0


_LABELS = ("a", "A", "b", "cpu")
_CONSTRAINTS = (
    "{l}.Clock >= 2000",
    '{l}.Arch == "XEON"',
    '{l}.Clock >= 2000 && {l}.Arch != "XEON"',
    "TARGET.Memory >= 0",
    "Clock >= 2000",
    "true",
)
_RANKS = ("{l}.Clock", "-{l}.Clock", "{l}.Memory", "-{l}.Memory", "0")


#: What ``_gang_instances`` draws machine values from, one shared
#: ``Literal`` per value (``None``: the ad lacks the name): tied clocks,
#: negative memories, and equal values of different types, which ClassAd
#: tells apart (``1 == true`` is ERROR, and a rank of ``-0.0`` is not one
#: of ``0.0``).
_POOL = {
    "Arch": ("XEON", "OPTERON"),
    "Clock": (1000, 2000, 2000.0, 3000),
    "Memory": (-2, -1, 0, 0.0, -0.0, False, 1, 1.0, True, 2, None),
    "LoadAvg": (0.0, 0, -0.0, False, 0.9, None),
}


@st.composite
def _gang_instances(draw):
    """Machines whose values come from one pool of shared literals, and an
    independent request of 1-3 ports with Count 1-6 (labels may collide
    in case)."""
    pool = {name: [None if v is None else Literal(v) for v in vs] for name, vs in _POOL.items()}
    # A few of them per name, so that ads often share what a request reads.
    palette = {
        name: draw(st.lists(st.sampled_from(literals), min_size=1, max_size=3))
        for name, literals in pool.items()
    }
    base = _machine()
    requirements = parse_expression('LoadAvg <= 0.5 && TARGET.Type == "Job"')
    machines = []
    for h in range(draw(st.integers(0, 9))):
        ad = ClassAd()
        for name, expr in base.items():
            if name not in pool:
                ad[name] = expr
        ad["HostId"] = Literal(h)
        for name, literals in palette.items():
            literal = draw(st.sampled_from(literals))
            if literal is not None:
                ad[name] = literal
        if draw(st.booleans()):
            ad["Requirements"] = requirements
        machines.append(ad)
    ports = []
    for _ in range(draw(st.integers(1, 3))):
        label = draw(st.sampled_from(_LABELS))
        constraint = draw(st.sampled_from(_CONSTRAINTS)).format(l=label)
        rank = draw(st.sampled_from(_RANKS)).format(l=label)
        count = draw(st.integers(1, 6))
        ports.append(
            f"[ Label = {label}; Count = {count}; Constraint = {constraint}; Rank = {rank} ]"
        )
    return machines, '[ Type = "Job"; Ports = { ' + ", ".join(ports) + " } ]"


def _request_and_coupled(text):
    """The request and its coupled twin: an attribute naming a port label
    makes a request dependent, so it takes the full search that rescans
    each port at every node."""
    coupled = parse_classad(text)
    coupled["Coupled"] = parse_expression("a.Clock")
    return parse_classad(text), coupled


@settings(max_examples=150, deadline=None)
@given(_gang_instances())
def test_gangmatch_replica_groups_equal_full_search(instance):
    machines, text = instance
    request, coupled = _request_and_coupled(text)
    ports = Matchmaker._ports(request)
    exprs = matchmaker._machine_exprs(machines)
    assert matchmaker._independent(request, ports, exprs)
    assert not matchmaker._independent(coupled, ports, exprs)
    mm = Matchmaker(machines)
    assert _outcome(mm.gangmatch(request)) == _outcome(mm.gangmatch(coupled))


@settings(max_examples=150, deadline=None)
@given(_gang_instances())
def test_gangmatch_judges_shared_expressions_as_fresh_ones(instance):
    # Rebuilt with a fresh object for every expression, no two ads are
    # twins, so every ad is evaluated: judging one ad per twin class must
    # bind what that does, on both search paths.
    machines, text = instance
    fresh = Matchmaker([copy.deepcopy(ad) for ad in machines])
    for request in _request_and_coupled(text):
        assert _outcome(Matchmaker(machines).gangmatch(request)) == _outcome(
            fresh.gangmatch(request)
        )


# ----------------------------------------------------------------------
# Golden output: gangmatch binds what it bound while it evaluated every
# advertised ad.
# ----------------------------------------------------------------------
#: sha256 over :func:`_outcome` of every case of :func:`_golden_gang_cases`,
#: recorded while gangmatch still evaluated each port against every ad.
GOLDEN_GANGMATCH_SHA256 = "094b32ebd8d6bfcb1c9409ae34d584127d8d46fb3aad6dce9647e90495e2bce8"

#: Equal values of different types, which ClassAd tells apart: ``1 ==
#: true`` is ERROR, and a rank of ``-0.0`` is not one of ``0.0``.
_SHARED_VALUES = (1, 1.0, True, 0, 0.0, -0.0, False)

_HAND_BUILT_REQUESTS = (
    # Independent, one replica group.
    "[ Type = \"Job\"; Ports = { [ Label = cpu; Count = 3; Rank = -cpu.X;"
    " Constraint = cpu.Y =?= true || cpu.Y == 0 ] } ]",
    # Independent, a repeated label and an unscoped (TARGET) name.
    "[ Type = \"Job\"; Ports = { [ Label = cpu; Rank = cpu.X + cpu.Y;"
    " Constraint = cpu.X != false ], [ Label = CPU; Count = 2; Rank = -CPU.Y;"
    " Constraint = X == 1 ] } ]",
    # Coupled: port b reads port a's binding.
    "[ Type = \"Job\"; Ports = { [ Label = a; Rank = a.X; Constraint = a.X =!= true ],"
    " [ Label = b; Count = 2; Rank = -b.Y; Constraint = b.Y == a.X || b.X =?= a.Y ] } ]",
    "[ Type = \"Job\"; Ports = { [ Label = cpu; Count = 2; Rank = cpu.Clock / 1000 + cpu.X * 0;"
    " Constraint = cpu.Clock >= 2000 && cpu.LoadAvg <= 0 ] } ]",
)


def _hand_built_ads(rng):
    """3-14 machines whose values are drawn from one object per value, as
    :func:`~repro.selection.classad.builders.machine_ads` shares them."""
    shared = [Literal(v) for v in _SHARED_VALUES]
    clocks = [Literal(v) for v in (1000, 2000, 2000.0, 3000)]
    requirements = (
        None,
        parse_expression('LoadAvg <= 0.5 && TARGET.Type == "Job"'),
        parse_expression("MY.Y =!= false"),
    )
    machine = Literal("Machine")
    ads = []
    for host in range(int(rng.integers(3, 15))):
        ad = ClassAd()
        ad["Type"] = machine
        ad["HostId"] = Literal(host)
        for name in ("X", "Y", "LoadAvg"):
            if rng.random() < 0.9:
                ad[name] = shared[int(rng.integers(len(shared)))]
        ad["Clock"] = clocks[int(rng.integers(len(clocks)))]
        req = requirements[int(rng.integers(len(requirements)))]
        if req is not None:
            ad["Requirements"] = req
        ads.append(ad)
    return ads


def _golden_gang_cases():
    """``(ads, request text)`` of the golden corpus."""
    cases = []
    for scale in (SMOKE, SMALL):
        platform = build_universe(scale, 0)
        for seed, util in ((1, 0.0), (2, 0.5), (3, 0.95)):
            rng = np.random.default_rng(seed)
            free = np.flatnonzero(rng.random(platform.n_hosts) >= util)
            ads = machine_ads(platform, _advertised(free))
            # The generator's requests; Count 450 exceeds every ad set.
            for count in (1, 9, 60, 450):
                for clock in (2.1, 3.0, 3.5):
                    spec = request_specification(
                        "mcp", count, clock_ghz=clock, heterogeneity_tolerance=0.0,
                        ccr=0.01, threshold=0.001, dag_name="golden",
                    )
                    cases.append((ads, spec.to_classad()))
            # A per-host name: no two ads answer it alike.
            cases.append((ads, "[ Ports = { [ Label = cpu; Count = 5; Rank = -cpu.HostId;"
                               " Constraint = cpu.Clock >= 2100 ] } ]"))
            # Dependent: b must be faster than a, which prefers the fastest.
            cases.append((ads, "[ Ports = { [ Label = a; Rank = a.Clock;"
                               " Constraint = a.Clock >= 2000 ],"
                               " [ Label = b; Count = 2; Rank = b.Clock;"
                               " Constraint = b.Clock > a.Clock ] } ]"))
    rng = np.random.default_rng(11)
    for _ in range(40):
        ads = _hand_built_ads(rng)
        cases.extend((ads, text) for text in _HAND_BUILT_REQUESTS)
    return cases


def test_gangmatch_matches_the_golden_digest():
    digest = hashlib.sha256()
    for ads, text in _golden_gang_cases():
        gang = Matchmaker(ads).gangmatch(parse_classad(text))
        digest.update(repr(_outcome(gang)).encode())
    assert digest.hexdigest() == GOLDEN_GANGMATCH_SHA256


def test_gangmatch_judges_each_read_projection_once(monkeypatch):
    # The end-to-end benchmark's Montage-3 CCR 0.01 request (9 hosts of at
    # least 2100 MHz) over the 424 ads of an empty ``small``.  It reads
    # Type, OpSys and Clock, and each machine's Requirements reads
    # LoadAvg: the ads hold 17 projections of these.  Two calls evaluate
    # the port's Label and Count; each of the 12 projections that fail
    # the port's constraint takes one, and each of the 5 that match
    # takes three (constraint, Requirements, Rank).  Evaluating every ad
    # took 1,048.
    small = build_universe(SMALL, 0)
    ads = machine_ads(small, _advertised(np.arange(small.n_hosts)))
    spec = request_specification(
        "mcp", 9, clock_ghz=3.0, heterogeneity_tolerance=0.3, ccr=0.01,
        threshold=0.001, dag_name="montage",
    )
    calls = 0
    real_evaluate = matchmaker.evaluate

    def counted(expr, ctx, *args):
        nonlocal calls
        calls += 1
        return real_evaluate(expr, ctx, *args)

    monkeypatch.setattr(matchmaker, "evaluate", counted)
    gang = Matchmaker(ads).gangmatch(parse_classad(spec.to_classad()))
    assert len(ads) == 424 and len(gang.bindings) == 9
    assert calls == 29


@pytest.mark.parametrize(
    "count", ['"three"', "true", "0", "1.0"], ids=["string", "boolean", "zero", "float"]
)
def test_gangmatch_invalid_count(count):
    # The engine agrees with the linter (SPEC110): a boolean is no count.
    mm = Matchmaker([_machine()])
    req = parse_classad(f"[ Ports = {{ [ Label = cpu; Count = {count} ] }} ]")
    with pytest.raises(MatchError):
        mm.gangmatch(req)


def test_gangmatch_requires_ports():
    mm = Matchmaker([_machine()])
    with pytest.raises(MatchError):
        mm.gangmatch(parse_classad("[ Type = \"Job\" ]"))


def test_machine_ad_builder(small_platform):
    ad = machine_ad(small_platform, 0)
    ctx = EvalContext(ad)
    assert evaluate(ad["Type"], ctx) == "Machine"
    assert evaluate(ad["Clock"], ctx) > 0
    ads = machine_ads(small_platform, [0, 1, 2])
    assert len(ads) == 3


def test_job_request_builder_matches_platform(small_platform):
    mm = Matchmaker(machine_ads(small_platform, range(0, small_platform.n_hosts, 17)))
    # Unqualified `Type` would resolve to the job's own Type = "Job"
    # (MY-first lookup), so the machine type must be TARGET-scoped.
    req = job_request_ad(
        requirements='TARGET.Type == "Machine" && Clock >= 1500', rank="Clock"
    )
    matches = mm.match(req)
    assert matches
    # Best-ranked first.
    clocks = [evaluate(m.machine["Clock"], EvalContext(m.machine)) for m in matches]
    assert clocks == sorted(clocks, reverse=True)
