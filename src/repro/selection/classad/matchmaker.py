"""Bilateral Matchmaking and multilateral Gangmatching (§II.4.2.1).

* :meth:`Matchmaker.match` — classic two-party matchmaking: both ads'
  ``Requirements`` (falling back to ``Constraint``) must evaluate to TRUE
  with MY/TARGET crossed; candidates ranked by the request's ``Rank``.
* :meth:`Matchmaker.gangmatch` — the Gangmatching extension: the request
  carries a ``Ports`` list (Fig. II-2); ports are bound left to right, each
  to the highest-ranked candidate satisfying the port's ``Constraint``
  (with all earlier bindings visible through their labels) and the
  candidate's own ``Requirements``; a machine can serve at most one port,
  and when a later port cannot be bound, earlier ports fall back to their
  next-ranked candidates.

Both evaluate every advertised ad, in advertisement order, against each
constraint they scan.  The selection pipeline builds a matchmaker per
ClassAd select over the hosts free at that moment (each ad a copy of its
cluster's per-platform template, :func:`~repro.selection.classad.builders
.machine_ad`) and runs one gangmatch on it.  The advertised set changes
from select to select, so an index over the ads would be built and probed
once per select: it costs about one scan and cannot pay for itself.

Gangmatch search
----------------
A port with ``Count = k`` (the Chapter VII generator's extension) expands
into a *replica group* of k ports labelled ``cpu``, ``cpu2``, ... ``cpuk``,
each with its own scoped references renamed to its label.  Labels are
made unique case-insensitively, because scope lookup is.

A request is *independent* when every scoped reference in it, and in every
non-literal expression of the advertised machine ads, names ``MY``,
``SELF`` or ``TARGET``; a port's own ``Constraint``/``Requirements``/
``Rank`` may also name that port's label.  Then a port's candidates and
ranks do not depend on other ports' bindings, and every replica of a group
has the same ones.  So the search scans each group once, into one list
sorted by ``(-rank, row)``; the group's replicas take strictly
increasing positions in that list, and the group stops as soon as fewer
unused candidates remain at or after the current position than it has
replicas left to bind.  Both rules are exact:

* the full search tries assignments in lexicographic order of list
  positions; were two replicas of a group out of order in its first
  success, swapping their machines would give an earlier success;
* the stop only cuts subtrees that hold no success.

So bindings and ranks are those of the full search, but the generator's
one-port request costs one scan, then either its top ``Count`` candidates
or an immediate ``None`` — not a walk through every ordering of the
candidates when fewer than ``Count`` match.  Requests that are not
independent rescan each port at every node of the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.selection.classad.evaluator import EvalContext, evaluate
from repro.selection.classad.parser import (
    AttrRef,
    BinaryOp,
    ClassAd,
    Expr,
    FuncCall,
    ListExpr,
    Literal,
    RecordExpr,
    Ternary,
    UnaryOp,
)

# The matchmaker scans every ad without the index; the name stays importable
# here because the benchmark's tracer wraps it as this module's attribute.
from repro.selection.index import plan_constraint  # noqa: F401


def _rename_scope(expr: Expr, old: str, new: str) -> Expr:
    """Rewrite scoped attribute references ``old.x`` into ``new.x``."""
    if isinstance(expr, AttrRef):
        if expr.scope is not None and expr.scope.lower() == old.lower():
            return AttrRef(expr.name, scope=new)
        return expr
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rename_scope(expr.left, old, new), _rename_scope(expr.right, old, new))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _rename_scope(expr.operand, old, new))
    if isinstance(expr, Ternary):
        return Ternary(
            _rename_scope(expr.cond, old, new),
            _rename_scope(expr.then, old, new),
            _rename_scope(expr.other, old, new),
        )
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name, tuple(_rename_scope(a, old, new) for a in expr.args))
    if isinstance(expr, ListExpr):
        return ListExpr(tuple(_rename_scope(e, old, new) for e in expr.items))
    return expr

__all__ = ["Match", "GangMatch", "Matchmaker", "MatchError"]


class MatchError(RuntimeError):
    """Raised for malformed requests (e.g. gangmatch without ports)."""


@dataclass(frozen=True)
class Match:
    """One bilateral match result."""

    machine: ClassAd
    rank: float


@dataclass(frozen=True)
class GangMatch:
    """A successful gang: one machine ad per port label, in port order."""

    bindings: dict[str, ClassAd]
    ranks: dict[str, float]

    @property
    def machines(self) -> list[ClassAd]:
        return list(self.bindings.values())


def _requirements(ad: ClassAd) -> Expr | None:
    return ad.get("Requirements") or ad.get("Constraint")


def _rank_value(rank_expr: Expr | None, ctx: EvalContext) -> float:
    if rank_expr is None:
        return 0.0
    v = evaluate(rank_expr, ctx)
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return float(v)
    return 0.0  # UNDEFINED / ERROR / non-numeric rank counts as 0


#: A port's own label may appear as a scope only in these attributes.
_PORT_EXPRS = ("constraint", "requirements", "rank")
_PLAIN_SCOPES = frozenset({"my", "self", "target"})

#: One expanded port: its unique label, its ad, and its replica group (the
#: position of the group's first port).
_Port = tuple[str, ClassAd, int]


def _independent(request: ClassAd, ports: list[_Port], machines: list[ClassAd]) -> bool:
    """True when no port's candidates or ranks can depend on another
    port's binding (the module docstring's rule).

    Only the scopes of attribute references are read; nothing is
    evaluated.  The rule relies on :meth:`Matchmaker._ports` having made
    the labels distinct case-insensitively.
    """
    # Imported here: repro.analysis imports the selection front ends.
    from repro.analysis.ir import attr_refs

    def within(expr: Expr, scopes: frozenset[str]) -> bool:
        return all(r.scope is None or r.scope.lower() in scopes for r in attr_refs(expr))

    for label, port_ad, _ in ports:
        own = _PLAIN_SCOPES | {label.lower()}
        for name, expr in port_ad.items():
            if not within(expr, own if name.lower() in _PORT_EXPRS else _PLAIN_SCOPES):
                return False
    if not all(within(e, _PLAIN_SCOPES) for n, e in request.items() if n.lower() != "ports"):
        return False
    # Machine ads usually share one Requirements expression
    # (builders.machine_ad), so skip the expression just checked.
    checked = None
    for ad in machines:
        for _, e in ad.items():
            if e is not checked and not isinstance(e, Literal):
                if not within(e, _PLAIN_SCOPES):
                    return False
                checked = e
    return True


@dataclass
class _GangSearch:
    """The state of one :meth:`Matchmaker.gangmatch` search.

    Its steps are methods, not closures over ``gangmatch``'s locals: a
    recursive closure is a reference cycle, which would keep the
    matchmaker and its ads alive after the call until the cyclic
    collector ran.
    """

    machines: list[ClassAd]
    request: ClassAd
    ports: list[_Port]
    independent: bool
    used: set[int] = field(default_factory=set)
    bindings: dict[str, ClassAd] = field(default_factory=dict)
    ranks: dict[str, float] = field(default_factory=dict)
    ranked_groups: dict[int, list[tuple[float, int]]] = field(default_factory=dict)
    #: Groups are contiguous: ``ends[g] - i`` replicas of group ``g``
    #: remain to bind from port ``i`` on.
    ends: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.ends = {group: i + 1 for i, (_, _, group) in enumerate(self.ports)}

    def scan(self, i: int, bound: dict[str, ClassAd], skip: set[int]) -> list[tuple[float, int]]:
        """Port ``i``'s candidates outside ``skip`` as ``(rank, row)``,
        best first, with ``bound`` visible through their labels."""
        label, port_ad, _ = self.ports[i]
        constraint = _requirements(port_ad)
        candidates: list[tuple[float, int]] = []
        for idx, machine in enumerate(self.machines):
            if idx in skip:
                continue
            trial = dict(bound)
            trial[label] = machine
            ctx = EvalContext(my=self.request, target=machine, bindings=trial)
            if constraint is not None and evaluate(constraint, ctx) is not True:
                continue
            mreq = _requirements(machine)
            if mreq is not None:
                mctx = EvalContext(my=machine, target=self.request, bindings=trial)
                if evaluate(mreq, mctx) is not True:
                    continue
            rank = _rank_value(port_ad.get("Rank"), ctx)
            candidates.append((rank, idx))
        candidates.sort(key=lambda t: (-t[0], t[1]))
        return candidates

    def bind(self, i: int, start: int) -> bool:
        """Bind ports ``i`` onwards, port ``i`` from position ``start``
        of its group's ranked list; True on the first success."""
        if i == len(self.ports):
            return True
        label, _, group = self.ports[i]
        ends, used = self.ends, self.used
        if self.independent:
            # Scanned without ``used`` so the list stays valid when an
            # earlier group backtracks; used rows are skipped below.
            if group not in self.ranked_groups:
                self.ranked_groups[group] = self.scan(group, {}, set())
            ranked, need = self.ranked_groups[group], ends[group] - i
        else:
            ranked, start, need = self.scan(i, self.bindings, used), 0, 1
        free = [p for p in range(start, len(ranked)) if ranked[p][1] not in used]
        for t, p in enumerate(free):
            if len(free) - t < need:
                break
            rank, idx = ranked[p]
            used.add(idx)
            self.bindings[label] = self.machines[idx]
            self.ranks[label] = rank
            if self.bind(i + 1, p + 1 if ends[group] > i + 1 else 0):
                return True
            used.discard(idx)
            del self.bindings[label]
            del self.ranks[label]
        return False


@dataclass
class Matchmaker:
    """A central clearinghouse holding advertised machine ads.

    It keeps no state besides :attr:`machines`: :meth:`match` and
    :meth:`gangmatch` scan them in advertisement order, so an ad posted
    with :meth:`advertise` takes part in the next call.
    """

    machines: list[ClassAd] = field(default_factory=list)

    def advertise(self, ad: ClassAd) -> None:
        """Post a resource-provider ad."""
        self.machines.append(ad)

    # ------------------------------------------------------------------
    def satisfies(self, request: ClassAd, machine: ClassAd) -> bool:
        """True when both parties' requirements hold (bilateral match)."""
        req_ctx = EvalContext(my=request, target=machine)
        mach_ctx = EvalContext(my=machine, target=request)
        r1 = _requirements(request)
        r2 = _requirements(machine)
        ok1 = evaluate(r1, req_ctx) if r1 is not None else True
        ok2 = evaluate(r2, mach_ctx) if r2 is not None else True
        return ok1 is True and ok2 is True

    def match(self, request: ClassAd, limit: int | None = None) -> list[Match]:
        """All machines matching ``request``, best rank first."""
        results = []
        for machine in self.machines:
            if self.satisfies(request, machine):
                rank = _rank_value(
                    request.get("Rank"), EvalContext(my=request, target=machine)
                )
                results.append(Match(machine, rank))
        results.sort(key=lambda m: -m.rank)
        return results if limit is None else results[:limit]

    # ------------------------------------------------------------------
    def gangmatch(self, request: ClassAd) -> GangMatch | None:
        """Bind every port of a Gangmatch request (Fig. II-2), or None.

        Ports are satisfied greedily in order with backtracking: if a later
        port cannot be bound, earlier ports fall back to their next-ranked
        candidates.  For an independent request (module docstring) each
        replica group is scanned once, its replicas bind at
        increasing positions of the group's ranked list, and the group
        gives up as soon as too few unused candidates remain; the result
        is the first success of the full search, which otherwise rescans
        each port at every node.
        """
        ports = self._ports(request)
        if not ports:
            raise MatchError("gangmatch request carries no Ports attribute")
        search = _GangSearch(
            self.machines, request, ports, _independent(request, ports, self.machines)
        )
        if search.bind(0, 0):
            return GangMatch(bindings=search.bindings, ranks=search.ranks)
        return None

    @staticmethod
    def _ports(request: ClassAd) -> list[_Port]:
        """Expand the request's ``Ports`` into ports with unique labels.

        A port with ``Count = k`` becomes a replica group of k ports.  A
        label already taken, compared case-insensitively as scope lookup
        does, gets a numeric suffix; each port whose label changed has its
        own scoped references renamed, so it constrains its own binding.
        """
        ports_expr = request.get("Ports")
        if ports_expr is None:
            return []
        if not isinstance(ports_expr, ListExpr):
            raise MatchError("Ports must be a list of port records")
        out: list[_Port] = []
        taken: set[str] = set()
        for k, item in enumerate(ports_expr.items):
            if not isinstance(item, RecordExpr):
                raise MatchError("each port must be a record")
            label_expr = item.ad.get("Label")
            label = None
            if label_expr is not None:
                v = evaluate(label_expr, EvalContext(my=item.ad))
                if isinstance(v, str):
                    label = v
            if label is None:
                # Fig. II-2 writes `Label = cpu` (a bare name): take the
                # unparsed identifier text.
                label = label_expr.unparse() if label_expr is not None else f"port{k}"
            # Extension used by the Chapter VII generator: a port may carry
            # `Count = k` to request k identically-constrained machines
            # without writing k textual ports.
            count_expr = item.ad.get("Count")
            count = 1
            if count_expr is not None:
                v = evaluate(count_expr, EvalContext(my=item.ad))
                if isinstance(v, int) and v >= 1:
                    count = v
                else:
                    raise MatchError("port Count must be a positive integer")
            group = len(out)
            for i in range(1, count + 1):
                new_label = want = label if i == 1 else f"{label}{i}"
                n = 0
                while new_label.lower() in taken:
                    n += 1
                    new_label = f"{want}{n}"
                taken.add(new_label.lower())
                port_ad = item.ad
                if new_label != label:
                    port_ad = ClassAd()
                    for name, e in item.ad.items():
                        if name.lower() in _PORT_EXPRS:
                            e = _rename_scope(e, label, new_label)
                        port_ad[name] = e
                out.append((new_label, port_ad, group))
        return out
