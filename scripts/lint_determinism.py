#!/usr/bin/env python
"""Determinism lint: flag nondeterminism hazards in seeded experiment code.

Reproducibility is the whole point of this repo — every experiment cell
derives its randomness from an explicit seed and never consults the wall
clock.  This AST lint walks ``src/repro`` and flags the three ways that
discipline usually erodes:

* **DET001 — unseeded RNG.**  Any use of the stdlib :mod:`random` module,
  or ``np.random.default_rng()`` called with no seed argument.  Both draw
  from global/OS entropy and silently break seeded replay.
* **DET002 — wall-clock reads.**  ``time.time()``, ``datetime.now()``,
  ``datetime.utcnow()`` or ``datetime.today()`` anywhere outside
  ``observe.py`` (the metrics module owns timing).  Wall-clock values
  leaking into experiment state make runs irreproducible.
* **DET003 — iteration over a bare set.**  ``for x in {…}`` /
  ``for x in set(…)`` and set-typed comprehension sources: set iteration
  order is hash-randomised across processes, so any downstream effect of
  the order is nondeterministic.  Wrapping the iteration directly in
  ``sorted(…)`` is exempt — the order is laundered away.
* **DET004 — wall-clock awaits.**  ``asyncio.sleep(delay)`` with a
  non-zero delay (real-time waiting inside what must be a virtual-time
  simulation — the selection service's clock is the churn state
  machine's, never the event loop's), and ``loop.time()`` (the event
  loop's wall clock) outside ``observe.py``.  ``asyncio.sleep(0)`` — a
  pure yield point — is allowed.
* **DET005 — bare durable writes.**  ``*.write_text(...)`` or
  ``json.dump(...)`` straight to a file, outside ``durability.py`` (the
  module that owns the write path).  A crash mid-write leaves a torn,
  unchecksummed file; route through
  :func:`repro.durability.atomic_write_text` /
  :func:`~repro.durability.atomic_write_json` /
  :func:`~repro.durability.write_json_artifact` instead.
* **DET006 — identity-keyed state.**  ``id(obj)`` used as a dict key,
  in a tuple key, or as a sort key (``key=id``).  CPython ``id`` values
  are allocation addresses: they vary across processes and can be
  *reused* after garbage collection, so any ordering or keying derived
  from them is nondeterministic across replays.  Key on a stable field
  (a name, a seed, an index) instead, or justify with ``# lint: allow``
  when the keyed object's lifetime provably spans the mapping's.

A finding is suppressed by a ``# lint: allow`` comment on the offending
line (optionally with a reason after it).  Run from the repo root::

    python scripts/lint_determinism.py [--root src/repro]

Exits 0 when clean, 1 when any unsuppressed finding remains — CI runs it
alongside the unit tests.
"""

from __future__ import annotations

import argparse
import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: Files (by name) allowed to read the wall clock: timing is their job.
WALL_CLOCK_EXEMPT_FILES = {"observe.py"}

#: Files (by name) allowed to write files directly: they *are* the
#: hardened write path everything else must route through.
DURABLE_WRITE_EXEMPT_FILES = {"durability.py"}

#: ``module.attr`` call targets that read the wall clock.
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    # The asyncio event loop's clock: wall time by another name.  Matched
    # on the receiver being called ``loop`` (or ``*.loop``) — the idiomatic
    # name everywhere an event loop is held.
    ("loop", "time"),
}

ALLOW_MARKER = "# lint: allow"


@dataclass(frozen=True)
class Finding:
    """One determinism hazard: stable code, location and message."""

    code: str
    path: Path
    line: int
    message: str

    def format(self) -> str:
        """Render as ``path:line: CODE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_zero_delay(node: ast.Call) -> bool:
    """True only for a literal-zero first argument: ``asyncio.sleep(0)``.

    Anything else — a variable, an expression, a non-zero literal, or no
    argument at all — is treated as a (potential) real-time wait.
    """
    if node.keywords or len(node.args) != 1:
        return False
    arg = node.args[0]
    return isinstance(arg, ast.Constant) and arg.value == 0


def _is_set_expr(node: ast.AST) -> bool:
    """True for a set literal, ``set(...)`` call, or set comprehension."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = _dotted(node.func)
        return func in {"set", "frozenset"}
    return False


class _Linter(ast.NodeVisitor):
    """Single-file visitor accumulating :class:`Finding` records."""

    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        self._lines = source.splitlines()
        self._wall_clock_ok = path.name in WALL_CLOCK_EXEMPT_FILES
        self._durable_write_ok = path.name in DURABLE_WRITE_EXEMPT_FILES
        # Parents let DET003 exempt comprehensions fed straight to sorted().
        self._parent: dict[ast.AST, ast.AST] = {}

    def run(self, tree: ast.AST) -> list[Finding]:
        """Walk ``tree`` and return the unsuppressed findings."""
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parent[child] = node
        self.visit(tree)
        return [f for f in self.findings if not self._allowed(f.line)]

    def _allowed(self, line: int) -> bool:
        if 1 <= line <= len(self._lines):
            return ALLOW_MARKER in self._lines[line - 1]
        return False

    def _flag(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(code, self.path, node.lineno, message))

    # -- DET001 / DET002: suspicious calls and attribute reads ---------

    def visit_Call(self, node: ast.Call) -> None:
        target = _dotted(node.func)
        if target is not None:
            self._check_call(node, target)
        self._check_durable_write(node)
        self.generic_visit(node)

    # -- DET005: unhardened file writes --------------------------------

    def _check_durable_write(self, node: ast.Call) -> None:
        if self._durable_write_ok:
            return
        func = node.func
        # Any attribute call named write_text — the receiver may be a
        # name (p.write_text) or an expression (Path(x).write_text), so
        # match the attribute itself, not a resolvable dotted chain.
        if isinstance(func, ast.Attribute) and func.attr == "write_text":
            self._flag(
                "DET005",
                node,
                "bare write_text() is a torn-write hazard (no temp file, "
                "no fsync, no checksum); use "
                "repro.durability.atomic_write_text",
            )
        elif isinstance(func, ast.Attribute) and func.attr == "dump":
            target = _dotted(func)
            if target is not None and tuple(target.split("."))[-2:] == ("json", "dump"):
                self._flag(
                    "DET005",
                    node,
                    "bare json.dump() to a file is a torn-write hazard; use "
                    "repro.durability.atomic_write_json (or "
                    "write_json_artifact for checksummed state)",
                )

    def _check_call(self, node: ast.Call, target: str) -> None:
        parts = tuple(target.split("."))
        # stdlib random: any call through the module is unseeded global state.
        if parts[0] == "random" and len(parts) > 1:
            self._flag(
                "DET001",
                node,
                f"stdlib random ({target}) draws from global state; "
                "use np.random.default_rng(seed)",
            )
            return
        if parts[-2:] == ("random", "default_rng") or target == "default_rng":
            if not node.args and not node.keywords:
                self._flag(
                    "DET001",
                    node,
                    "default_rng() without a seed is entropy-seeded; "
                    "pass an explicit seed or SeedSequence",
                )
            return
        if not self._wall_clock_ok and parts[-2:] in WALL_CLOCK_CALLS:
            self._flag(
                "DET002",
                node,
                f"wall-clock read {target}() outside observe.py; "
                "thread a clock in or justify with '# lint: allow'",
            )
            return
        if parts[-2:] == ("asyncio", "sleep") and not _is_zero_delay(node):
            self._flag(
                "DET004",
                node,
                "asyncio.sleep with a non-zero delay waits in wall time; "
                "simulations must sleep on the virtual clock "
                "(the kernel of repro.service), and a pure yield point is "
                "asyncio.sleep(0)",
            )
            return
        # DET006: id(obj) is an allocation address — process-varying and
        # reusable after GC.  Any value derived from it (dict keys, sort
        # keys, tuple keys) is unstable across replays.
        if target == "id" and node.args:
            self._flag(
                "DET006",
                node,
                "id() yields an allocation address (process-varying, "
                "reusable after GC); key on a stable field instead",
            )
            return
        # DET006 (sort-key form): sorted(xs, key=id) / xs.sort(key=id).
        for kw in node.keywords:
            if (
                kw.arg == "key"
                and isinstance(kw.value, ast.Name)
                and kw.value.id == "id"
            ):
                self._flag(
                    "DET006",
                    node,
                    "sorting with key=id orders by allocation address; "
                    "the order is nondeterministic across processes",
                )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._flag(
                    "DET001",
                    node,
                    "import of stdlib random; use numpy Generators with "
                    "explicit seeds",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag(
                "DET001",
                node,
                "import from stdlib random; use numpy Generators with "
                "explicit seeds",
            )
        self.generic_visit(node)

    # -- DET003: set iteration order ----------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._flag(
                "DET003",
                node,
                "iteration over a bare set: order is hash-randomised; "
                "sort it first",
            )
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        # comprehension nodes carry no lineno; handled via their parents.
        self.generic_visit(node)

    def _comp_sorted(self, comp: ast.AST) -> bool:
        """True when ``comp``'s value feeds directly into sorted()."""
        parent = self._parent.get(comp)
        # GeneratorExp argument of sorted(...): sorted(f(x) for x in s).
        if isinstance(parent, ast.Call) and _dotted(parent.func) == "sorted":
            return True
        return False

    def _check_comp(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", ()):
            if _is_set_expr(gen.iter) and not self._comp_sorted(node):
                self._flag(
                    "DET003",
                    node,
                    "comprehension over a bare set: order is "
                    "hash-randomised; sort it first",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comp(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comp(node)
        self.generic_visit(node)


def lint_file(path: Path) -> list[Finding]:
    """Lint one Python file; syntax errors surface as a DET000 finding."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding("DET000", path, exc.lineno or 1, f"syntax error: {exc.msg}")]
    return _Linter(path, source).run(tree)


def lint_tree(root: Path) -> list[Finding]:
    """Lint every ``*.py`` under ``root``, sorted for stable output."""
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(lint_file(path))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default="src/repro",
        help="directory tree to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    findings = lint_tree(root)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} determinism finding(s)", file=sys.stderr)
        return 1
    print(f"determinism lint clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
