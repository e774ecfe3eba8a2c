"""Tests for Matchmaking and Gangmatching."""

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.selection.classad.matchmaker as matchmaker
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
from repro.selection.index import IndexPlan

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


@st.composite
def _gang_instances(draw):
    """Machines with tied clocks and negative memories, and an independent
    request of 1-3 ports with Count 1-6 (labels may collide in case)."""
    machines = []
    for h in range(draw(st.integers(0, 9))):
        ad = _machine(
            HostId=h,
            Arch=draw(st.sampled_from(("XEON", "OPTERON"))),
            Clock=draw(st.sampled_from((1000, 2000, 3000))),
            Memory=draw(st.integers(-2, 2)),
            LoadAvg=draw(st.sampled_from((0.0, 0.9))),
        )
        if draw(st.booleans()):
            ad["Requirements"] = parse_expression('LoadAvg <= 0.5 && TARGET.Type == "Job"')
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


@settings(max_examples=150, deadline=None)
@given(_gang_instances())
def test_gangmatch_replica_groups_equal_full_search(instance):
    machines, text = instance
    request = parse_classad(text)
    # An attribute naming a port label makes the request dependent, so it
    # takes the full search that rescans each port at every node.
    coupled = parse_classad(text)
    coupled["Coupled"] = parse_expression("a.Clock")
    ports = Matchmaker._ports(request)
    assert matchmaker._independent(request, ports, machines)
    assert not matchmaker._independent(coupled, ports, machines)
    mm = Matchmaker(machines)
    fast, full = mm.gangmatch(request), mm.gangmatch(coupled)
    assert (fast is None) == (full is None)
    if fast is not None:
        assert _host_ids(fast) == _host_ids(full)
        assert fast.ranks == full.ranks


def test_gangmatch_invalid_count():
    mm = Matchmaker([_machine()])
    req = parse_classad('[ Ports = { [ Label = cpu; Count = "three" ] } ]')
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
