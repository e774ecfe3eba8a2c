"""Outside-in wall-clock spans for the end-to-end benchmark.

The program under test carries no spans of its own at the layer
boundaries the benchmark reports, so :class:`Tracer` wraps public
callables *at the name each consumer looks up* (``schedule_dag`` is
wrapped in ``repro.selection.pipeline``, ``repro.service`` and
``repro.core.knee`` because each module holds its own reference) and
restores every original on exit.  Wrapping never changes arguments or
return values, so a traced pass must reproduce the untraced outcomes
bit for bit; the benchmark checks that.

Each call records one :class:`Span` — name, op id, start, end, parent
span and an optional note (``hit``/``miss`` for selections, ``conflict``
for binds).  Spans stay in memory; :func:`layer_table` folds them into
per-layer calls, self time (span time minus the time of its children)
and inclusive time, and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Span", "Tracer", "TARGETS", "layer_table", "top_level_seconds"]


def _select_name(args: tuple, kwargs: dict) -> str:
    backend = kwargs["backend"] if "backend" in kwargs else args[1]
    return f"selection.{backend}"


def _select_note(result: Any, exc: BaseException | None) -> str | None:
    if exc is not None:
        return None
    return "miss" if result[0] is None else "hit"


def _try_bind_note(result: Any, exc: BaseException | None) -> str | None:
    return "conflict" if exc is None and result else None


def _bind_note(result: Any, exc: BaseException | None) -> str | None:
    from repro.resources.binding import BindingError

    return "conflict" if isinstance(exc, BindingError) else None


#: ``(module, qualified attribute, span name, note function)``.  A span
#: name may be a function of the call's arguments.
TARGETS: tuple[tuple[str, str, Any, Callable | None], ...] = (
    ("repro.core.generator", "ResourceSpecificationGenerator.generate", "generator.generate", None),
    # Imported lazily by the generator's self-check and the ladder, so
    # the module attribute is what each call resolves.
    ("repro.analysis.spec", "analyze_specification", "analysis.self_check", None),
    ("repro.analysis.passes", "subsumes", "analysis.subsumes", None),
    ("repro.selection.pipeline", "preflight_specification", "analysis.preflight", None),
    ("repro.service", "preflight_specification", "analysis.preflight", None),
    ("repro.selection.pipeline", "SelectionPipeline.run", "pipeline.run", None),
    ("repro.service", "SelectionService.run", "service.run", None),
    ("repro.selection.pipeline", "alternative_specifications", "alternatives", None),
    ("repro.service", "alternative_specifications", "alternatives", None),
    ("repro.core.alternatives", "sweep_turnaround", "knee.sweep", None),
    ("repro.selection.pipeline", "schedule_dag", "scheduling", None),
    ("repro.service", "schedule_dag", "scheduling", None),
    ("repro.core.knee", "schedule_dag", "scheduling", None),
    ("repro.selection.pipeline", "select_once", _select_name, _select_note),
    ("repro.service", "select_once", _select_name, _select_note),
    ("repro.selection.index", "HostIndex.from_platform", "index.build", None),
    ("repro.selection.index", "HostIndex.from_ads", "index.build", None),
    ("repro.selection.classad.matchmaker", "plan_constraint", "index.plan", None),
    ("repro.selection.vgdl", "plan_constraint", "index.plan", None),
    ("repro.resources.binding", "Binder.bind", "binding", _bind_note),
    ("repro.resources.binding", "Binder.try_bind", "binding", _try_bind_note),
    ("repro.resources.binding", "Binder.state_digest", "binding.state_digest", None),
    ("repro.resources.churn", "ResourceChurn.from_config", "churn.trace", None),
    ("repro.resources.churn", "ResourceChurn.advance", "churn.advance", None),
    ("repro.resources.churn", "ResourceChurn.unavailable", "churn.unavailable", None),
    ("repro.journal", "Journal.create", "journal.create", None),
    ("repro.journal", "Journal.append", "journal.append", None),
    ("repro.journal", "Journal.close", "journal.close", None),
)


@dataclass(frozen=True)
class Span:
    """One traced call; ``parent`` indexes the enclosing span or is -1."""

    name: str
    op: int
    start: float
    end: float
    parent: int
    note: str | None = None


class Tracer:
    """Install wrappers around :data:`TARGETS` for the life of a ``with``.

    The caller sets :attr:`op` before each operation so spans carry the
    op id.  The parent stack is a plain list: every wrapped callable is
    synchronous, so a span opened by one service coroutine step closes
    before that step yields to another tenant.
    """

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, name: Any, note: Callable | None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            tag = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if note is not None:
                    tag = note(None, exc)
                raise
            else:
                if note is not None:
                    tag = note(result, None)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(label, self.op, start, end, parent, tag)

        return traced

    def __enter__(self) -> "Tracer":
        for module_name, qualname, name, note in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(raw.__func__, name, note))
            else:
                wrapped = self._wrap(raw, name, note)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps([s.name, s.op, s.start, s.end, s.parent, s.note]))
                    fh.write("\n")


def layer_table(spans: list[Span | None]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``self_s``, ``total_s`` and note counts.

    ``total_s`` is inclusive time, counted once per outermost span of a
    layer (a layer nested in itself is not double counted); ``self_s``
    subtracts direct children, so the self times of all layers sum to
    the time covered by top-level spans.
    """
    if None in spans:  # parents are list indices, so no span may be missing
        raise RuntimeError("a traced call never returned")
    done: list[Span] = spans  # type: ignore[assignment]
    child = [0.0] * len(done)
    for s in done:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    table: dict[str, dict[str, float]] = {}
    for i, s in enumerate(done):
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        dur = s.end - s.start
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        p = s.parent
        while p >= 0 and done[p].name != s.name:
            p = done[p].parent
        if p < 0:
            row["total_s"] += dur
        if s.note is not None:
            row[s.note] = row.get(s.note, 0) + 1
    return table


def top_level_seconds(spans: list[Span | None]) -> float:
    """Time covered by spans that have no traced parent."""
    return sum(s.end - s.start for s in spans if s is not None and s.parent < 0)
