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

The selection pipeline builds a matchmaker per ClassAd select over the
hosts free at that moment (each ad a copy of its cluster's per-platform
template, :func:`~repro.selection.classad.builders.machine_ad`) and runs
one gangmatch on it.  :meth:`~Matchmaker.match` evaluates every ad, in
advertisement order; a gangmatch scan visits every ad in that order too,
but evaluates only one ad per distinct *read projection* (below).  The
advertised set changes from select to select, so nothing is kept between
calls: an index over the ads would be built and probed once per select,
and the projection classes are built in one pass per gangmatch.

Read projections
----------------
A gangmatch first walks the ads once for their distinct non-literal
expressions.  Its *read names* are the lowercased names of every
attribute reference in the request (its ``Ports`` records included) and
in those expressions, plus ``requirements`` and ``constraint``.  Every
lookup an evaluation in the search makes into any ad is for a read name:
a scoped reference resolves to the request, a bound ad or the candidate,
an unscoped one to MY and then TARGET, and the expression a lookup finds
is one of those walked (or a literal, which reads nothing).  Two ads
that bind the same expression *objects* to every read name (or both lack
it) are twins: within one scan the request, the port and the bound ads
are fixed, and the evaluator yields no ad of its context as a value (a
record literal yields its own ad, part of its expression), so its
results are a function of the expression objects it reaches.  A scan
therefore evaluates the port's ``Constraint``, the machine's
``Requirements`` and the port's ``Rank`` for the first ad of each twin
class it meets and reuses that verdict for the rest; the verdicts live
for that one scan.  Identity, not equality, decides twins: dataclass
equality says ``Literal(1) == Literal(True)`` and
``Literal(0.0) == Literal(-0.0)``, which ClassAd tells apart.  The
distinct expressions and the twin classes are keyed by ``id()``: the ads
hold every keyed expression for the whole search, so no address is
reused, and the keys are only looked up, never iterated (the distinct
expressions keep the order the ads hold them in), so no order derives
from an address.  The machine-ad templates share one object per
distinct literal (:func:`~repro.selection.classad.builders._build_templates`),
so the generated request reads 17 projections of the 424 ads of an empty
``small`` platform.

Gangmatch search
----------------
A port with ``Count = k`` (the Chapter VII generator's extension) expands
into a *replica group* of k ports labelled ``cpu``, ``cpu2``, ... ``cpuk``,
each with its own scoped references renamed to its label.  Labels are
made unique case-insensitively, because scope lookup is.

A request is *independent* when every scoped reference in it, and in every
distinct non-literal expression of the advertised machine ads, names
``MY``, ``SELF`` or ``TARGET``; a port's own ``Constraint``/
``Requirements``/``Rank`` may also name that port's label.  Then a
port's candidates and ranks do not depend on other ports' bindings, and
every replica of a group has the same ones.  So the search scans each
group once, into one list sorted by ``(-rank, row)``; the group's
replicas take strictly increasing positions in that list, and the group
stops as soon as fewer unused candidates remain at or after the current
position than it has replicas left to bind.  A replica's unused
positions are its predecessor's past the one that predecessor took:
nothing else is bound in between, and each row appears once in the
list.  Both rules are exact:

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
from typing import Sequence

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


def _machine_exprs(machines: list[ClassAd]) -> list[Expr]:
    """The distinct non-literal expressions of the ads, in order of first
    appearance; ads copied from one template share theirs
    (:func:`~repro.selection.classad.builders.machine_ad`)."""
    distinct: dict[int, Expr] = {}
    for ad in machines:
        for _, e in ad.items():
            if not isinstance(e, Literal):
                distinct.setdefault(id(e), e)  # lint: allow DET006 (the ads outlive the dict)
    return list(distinct.values())


def _read_names(request: ClassAd, exprs: list[Expr]) -> tuple[str, ...]:
    """Every name a gangmatch evaluation can look up in an ad (the module
    docstring's read names), sorted; ``exprs`` are
    :func:`_machine_exprs` of the advertised ads."""
    # Imported here: repro.analysis imports the selection front ends.
    from repro.analysis.ir import attr_refs

    names = {"requirements", "constraint"}
    for expr in [e for _, e in request.items()] + exprs:
        names.update(r.name.lower() for r in attr_refs(expr))
    return tuple(sorted(names))


def _independent(request: ClassAd, ports: list[_Port], exprs: list[Expr]) -> bool:
    """True when no port's candidates or ranks can depend on another
    port's binding (the module docstring's rule); ``exprs`` are
    :func:`_machine_exprs` of the advertised ads.

    Only the scopes of attribute references are read; nothing is
    evaluated.  The rule relies on :meth:`Matchmaker._ports` having made
    the labels distinct case-insensitively.
    """
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
    return all(within(e, _PLAIN_SCOPES) for e in exprs)


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
    #: The read names (module docstring), which decide :attr:`twin`.
    names: tuple[str, ...]
    used: set[int] = field(default_factory=set)
    bindings: dict[str, ClassAd] = field(default_factory=dict)
    ranks: dict[str, float] = field(default_factory=dict)
    ranked_groups: dict[int, list[tuple[float, int]]] = field(default_factory=dict)
    #: Groups are contiguous: ``ends[g] - i`` replicas of group ``g``
    #: remain to bind from port ``i`` on.
    ends: dict[int, int] = field(init=False)
    #: ``twin[row]`` is the first row whose ad binds the same expression
    #: object as row ``row``'s to every read name, or lacks it alike.
    twin: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.ends = {group: i + 1 for i, (_, _, group) in enumerate(self.ports)}
        first: dict[tuple[int, ...], int] = {}
        self.twin = []
        for row, ad in enumerate(self.machines):
            key = tuple([id(ad.get(n)) for n in self.names])  # lint: allow DET006 (ads outlive it)
            self.twin.append(first.setdefault(key, row))

    def scan(self, i: int, bound: dict[str, ClassAd], skip: set[int]) -> list[tuple[float, int]]:
        """Port ``i``'s candidates outside ``skip`` as ``(rank, row)``,
        best first, with ``bound`` visible through their labels.

        Only the first ad of each twin class is judged; the rest of the
        class shares its verdict, which lives for this scan alone.
        """
        verdicts: dict[int, float | None] = {}
        candidates: list[tuple[float, int]] = []
        for row, twin in enumerate(self.twin):
            if row in skip:
                continue
            if twin not in verdicts:
                verdicts[twin] = self.judge(i, bound, self.machines[row])
            rank = verdicts[twin]
            if rank is not None:
                candidates.append((rank, row))
        candidates.sort(key=lambda t: (-t[0], t[1]))
        return candidates

    def judge(self, i: int, bound: dict[str, ClassAd], machine: ClassAd) -> float | None:
        """``machine``'s rank for port ``i``, or None unless it satisfies
        the port's constraint and its own ``Requirements``."""
        label, port_ad, _ = self.ports[i]
        trial = dict(bound)
        trial[label] = machine
        ctx = EvalContext(my=self.request, target=machine, bindings=trial)
        constraint = _requirements(port_ad)
        if constraint is not None and evaluate(constraint, ctx) is not True:
            return None
        mreq = _requirements(machine)
        if mreq is not None:
            mctx = EvalContext(my=machine, target=self.request, bindings=trial)
            if evaluate(mreq, mctx) is not True:
                return None
        return _rank_value(port_ad.get("Rank"), ctx)

    def bind(self, i: int, free: Sequence[int] | None = None) -> bool:
        """Bind ports ``i`` onwards; True on the first success.

        ``free`` holds the positions of the group's ranked list still
        open to port ``i`` when it continues a replica group of an
        independent request (the module docstring's rule); otherwise the
        positions are found here.
        """
        if i == len(self.ports):
            return True
        label, _, group = self.ports[i]
        used = self.used
        if self.independent:
            # Scanned without ``used`` so the list stays valid when an
            # earlier group backtracks; used rows are dropped from free.
            if group not in self.ranked_groups:
                self.ranked_groups[group] = self.scan(group, {}, set())
            ranked, need = self.ranked_groups[group], self.ends[group] - i
            if free is None:
                free = [p for p, (_, row) in enumerate(ranked) if row not in used]
            continues = need > 1
        else:
            ranked, need, continues = self.scan(i, self.bindings, used), 1, False
            free = range(len(ranked))
        for t, p in enumerate(free):
            if len(free) - t < need:
                break
            rank, row = ranked[p]
            used.add(row)
            self.bindings[label] = self.machines[row]
            self.ranks[label] = rank
            if self.bind(i + 1, free[t + 1 :] if continues else None):
                return True
            used.discard(row)
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
        candidates.  Every scan judges one ad per read projection (module
        docstring).  For an independent request each replica group is
        scanned once, its replicas bind at increasing positions of the
        group's ranked list, and the group gives up as soon as too few
        unused candidates remain; the result is the first success of the
        full search, which otherwise rescans each port at every node.
        """
        ports = self._ports(request)
        if not ports:
            raise MatchError("gangmatch request carries no Ports attribute")
        exprs = _machine_exprs(self.machines)
        search = _GangSearch(
            self.machines,
            request,
            ports,
            _independent(request, ports, exprs),
            _read_names(request, exprs),
        )
        if search.bind(0):
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
                # The IR's rule (repro.analysis.ir._classad_count): a
                # boolean is no count, though Python's bool is an int.
                if isinstance(v, int) and not isinstance(v, bool) and v >= 1:
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
