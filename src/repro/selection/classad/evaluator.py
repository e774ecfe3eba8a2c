"""ClassAd expression evaluation.

Implements the classic ClassAd semantics the Condor matchmaker relies on:

* three-valued logic — ``UNDEFINED`` propagates through strict operators but
  ``False && UNDEFINED == False`` and ``True || UNDEFINED == True``;
* ``ERROR`` for type mismatches; ``=?=`` / ``=!=`` ("is" / "isnt") compare
  without UNDEFINED propagation;
* unqualified attribute lookup in MY then TARGET; ``MY.x`` / ``TARGET.x``
  explicit scopes, with ``SELF`` and ``OTHER`` (the names of Raman, Livny
  and Solomon's matchmaking paper) as aliases; gangmatch label scopes
  (``cpu.KFlops``) resolve through the context's label bindings;
* string comparison is case-insensitive (Condor convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

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

__all__ = [
    "Undefined",
    "ErrorValue",
    "UNDEFINED",
    "ERROR",
    "EvalContext",
    "EvalError",
    "evaluate",
    "as_logical",
]


class EvalError(RuntimeError):
    """Raised on evaluator misuse (not for ERROR values, which propagate)."""


class Undefined:
    """The UNDEFINED value (singleton)."""

    _instance: "Undefined | None" = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"


class ErrorValue:
    """The ERROR value (singleton)."""

    _instance: "ErrorValue | None" = None

    def __new__(cls) -> "ErrorValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ERROR"


UNDEFINED = Undefined()
ERROR = ErrorValue()

_MAX_DEPTH = 64


@dataclass
class EvalContext:
    """Evaluation scopes: the ad being evaluated, its match target, and any
    gangmatch label bindings."""

    my: ClassAd
    target: ClassAd | None = None
    bindings: Mapping[str, ClassAd] = field(default_factory=dict)

    def scope(self, name: str) -> ClassAd | None:
        """Resolve a scope name (MY/SELF/TARGET/OTHER or a gangmatch label)."""
        low = name.lower()
        if low in ("my", "self"):
            return self.my
        if low in ("target", "other"):
            return self.target
        for label, ad in self.bindings.items():
            if label.lower() == low:
                return ad
        return None


def evaluate(expr: Expr, ctx: EvalContext, _depth: int = 0) -> object:
    """Evaluate ``expr`` in ``ctx``; returns a Python value, UNDEFINED or
    ERROR."""
    if _depth > _MAX_DEPTH:
        return ERROR
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AttrRef):
        return _resolve(expr, ctx, _depth)
    if isinstance(expr, UnaryOp):
        return _unary(expr.op, evaluate(expr.operand, ctx, _depth + 1))
    if isinstance(expr, BinaryOp):
        return _binary(expr, ctx, _depth)
    if isinstance(expr, Ternary):
        cond = evaluate(expr.cond, ctx, _depth + 1)
        if cond is True:
            return evaluate(expr.then, ctx, _depth + 1)
        if cond is False:
            return evaluate(expr.other, ctx, _depth + 1)
        return cond if isinstance(cond, (Undefined, ErrorValue)) else ERROR
    if isinstance(expr, ListExpr):
        return [evaluate(e, ctx, _depth + 1) for e in expr.items]
    if isinstance(expr, RecordExpr):
        return expr.ad
    if isinstance(expr, FuncCall):
        return _call(expr, ctx, _depth)
    raise EvalError(f"unknown expression node {type(expr).__name__}")


# ----------------------------------------------------------------------
def _resolve(ref: AttrRef, ctx: EvalContext, depth: int) -> object:
    if ref.scope is not None:
        scope_ad = ctx.scope(ref.scope)
        if scope_ad is None:
            return UNDEFINED
        e = scope_ad.get(ref.name)
        if e is None:
            return UNDEFINED
        # Attributes of a scoped ad evaluate in that ad's own context, with
        # the same bindings (gangmatch semantics).
        return evaluate(e, EvalContext(scope_ad, ctx.target, ctx.bindings), depth + 1)
    e = ctx.my.get(ref.name)
    if e is not None:
        return evaluate(e, ctx, depth + 1)
    if ctx.target is not None:
        e = ctx.target.get(ref.name)
        if e is not None:
            flipped = EvalContext(ctx.target, ctx.my, ctx.bindings)
            return evaluate(e, flipped, depth + 1)
    return UNDEFINED


def _unary(op: str, v: object) -> object:
    if isinstance(v, ErrorValue):
        return ERROR
    if isinstance(v, Undefined):
        return UNDEFINED
    if op == "!":
        if isinstance(v, bool):
            return not v
        return ERROR
    if op == "-":
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return -v
        return ERROR
    raise EvalError(f"unknown unary operator {op}")


def _binary(expr: BinaryOp, ctx: EvalContext, depth: int) -> object:
    op = expr.op
    if op in ("&&", "||"):
        return _logical(op, expr, ctx, depth)
    left = evaluate(expr.left, ctx, depth + 1)
    right = evaluate(expr.right, ctx, depth + 1)
    if op == "=?=":
        return _is_identical(left, right)
    if op == "=!=":
        return not _is_identical(left, right)
    for v in (left, right):
        if isinstance(v, ErrorValue):
            return ERROR
    for v in (left, right):
        if isinstance(v, Undefined):
            return UNDEFINED
    if op in ("==", "!=", "<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op in ("+", "-", "*", "/", "%"):
        return _arith(op, left, right)
    raise EvalError(f"unknown operator {op}")


def _logical(op: str, expr: BinaryOp, ctx: EvalContext, depth: int) -> object:
    left = evaluate(expr.left, ctx, depth + 1)
    left = _as_logical(left)
    if op == "&&" and left is False:
        return False
    if op == "||" and left is True:
        return True
    right = _as_logical(evaluate(expr.right, ctx, depth + 1))
    if isinstance(left, ErrorValue) or isinstance(right, ErrorValue):
        return ERROR
    if op == "&&":
        if right is False:
            return False
        if isinstance(left, Undefined) or isinstance(right, Undefined):
            return UNDEFINED
        return True
    # op == "||"
    if right is True:
        return True
    if isinstance(left, Undefined) or isinstance(right, Undefined):
        return UNDEFINED
    return False


def _as_logical(v: object) -> object:
    if isinstance(v, (bool, Undefined, ErrorValue)):
        return v
    if isinstance(v, (int, float)):
        # Numeric values coerce as in Condor: non-zero is true.
        return v != 0
    return ERROR


def as_logical(v: object) -> object:
    """The truth value an operand contributes inside ``&&``/``||``.

    Public so consumers that split a conjunction apart (the platform
    preflight, the index planner's residual check) can reproduce the
    chain's coercion exactly: a bare numeric conjunct counts as true iff
    non-zero, anything non-coercible is ERROR.
    """
    return _as_logical(v)


def _is_identical(a: object, b: object) -> bool:
    if isinstance(a, Undefined) or isinstance(b, Undefined):
        return isinstance(a, Undefined) and isinstance(b, Undefined)
    if isinstance(a, ErrorValue) or isinstance(b, ErrorValue):
        return isinstance(a, ErrorValue) and isinstance(b, ErrorValue)
    res = _compare("==", a, b)
    return res is True


def _compare(op: str, a: object, b: object) -> object:
    if isinstance(a, str) and isinstance(b, str):
        x: object = a.lower()
        y: object = b.lower()
    elif _is_num(a) and _is_num(b):
        x, y = a, b
    elif isinstance(a, bool) and isinstance(b, bool):
        x, y = a, b
    else:
        return ERROR
    if op == "==":
        return x == y
    if op == "!=":
        return x != y
    if op == "<":
        return x < y
    if op == "<=":
        return x <= y
    if op == ">":
        return x > y
    if op == ">=":
        return x >= y
    raise EvalError(f"unknown comparison {op}")


def _is_num(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _arith(op: str, a: object, b: object) -> object:
    if op == "+" and isinstance(a, str) and isinstance(b, str):
        return a + b
    if not (_is_num(a) and _is_num(b)):
        return ERROR
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return ERROR
        if isinstance(a, int) and isinstance(b, int) and a % b == 0:
            return a // b
        return a / b
    if op == "%":
        if b == 0:
            return ERROR
        return a % b
    raise EvalError(f"unknown arithmetic operator {op}")


# ----------------------------------------------------------------------
# Built-in functions (small, useful subset)
# ----------------------------------------------------------------------
def _call(expr: FuncCall, ctx: EvalContext, depth: int) -> object:
    args = [evaluate(a, ctx, depth + 1) for a in expr.args]
    name = expr.name.lower()
    if name == "isundefined":
        return isinstance(args[0], Undefined) if args else ERROR
    if name == "iserror":
        return isinstance(args[0], ErrorValue) if args else ERROR
    for a in args:
        if isinstance(a, ErrorValue):
            return ERROR
        if isinstance(a, Undefined):
            return UNDEFINED
    if name == "floor" and len(args) == 1 and _is_num(args[0]):
        import math

        return int(math.floor(args[0]))
    if name == "ceiling" and len(args) == 1 and _is_num(args[0]):
        import math

        return int(math.ceil(args[0]))
    if name == "round" and len(args) == 1 and _is_num(args[0]):
        return int(round(args[0]))
    if name == "min" and args and all(_is_num(a) for a in args):
        return min(args)
    if name == "max" and args and all(_is_num(a) for a in args):
        return max(args)
    if name == "strcat" and all(isinstance(a, str) for a in args):
        return "".join(args)
    if name == "size" and len(args) == 1 and isinstance(args[0], (str, list)):
        return len(args[0])
    return ERROR
