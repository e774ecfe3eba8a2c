"""AST and recursive-descent parser for ClassAd expressions and records.

Grammar (precedence from loosest to tightest)::

    expr      := or_expr ('?' expr ':' expr)?
    or_expr   := and_expr ('||' and_expr)*
    and_expr  := eq_expr ('&&' eq_expr)*
    eq_expr   := rel_expr (('==' | '!=' | '=?=' | '=!=') rel_expr)*
    rel_expr  := add_expr (('<' | '<=' | '>' | '>=') add_expr)*
    add_expr  := mul_expr (('+' | '-') mul_expr)*
    mul_expr  := unary (('*' | '/' | '%') unary)*
    unary     := ('!' | '-' | '+') unary | postfix
    postfix   := primary ('.' IDENT | '(' args ')')*
    primary   := NUMBER | STRING | IDENT | '(' expr ')'
               | '{' [expr (',' expr)*] '}'          — list
               | '[' [IDENT '=' expr (';' ...)] ']'  — record / ClassAd

A :class:`ClassAd` is a case-insensitive mapping from attribute names to
expressions, preserving insertion order and original spelling for
unparsing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.selection.classad.lexer import ClassAdParseError, Token, tokenize

__all__ = [
    "Expr",
    "Literal",
    "AttrRef",
    "UnaryOp",
    "BinaryOp",
    "Ternary",
    "ListExpr",
    "RecordExpr",
    "FuncCall",
    "ClassAd",
    "ParseError",
    "parse_expression",
    "parse_classad",
]


class ParseError(ClassAdParseError):
    """Raised on syntactically invalid ClassAd text."""


#: Maximum expression nesting depth; beyond this the parser refuses rather
#: than exhausting the interpreter stack (a RecursionError from adversarial
#: input like ``"("*10_000``).
_MAX_DEPTH = 64


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------
class Expr:
    """Base class for expression nodes.

    Every node carries an optional ``pos`` — the character offset of the
    node's first token in the source text it was parsed from.  ``pos`` is
    excluded from equality/hashing so structurally identical expressions
    from different source locations still compare equal; it exists purely
    so downstream tooling (the :mod:`repro.analysis` linters) can attach
    source spans to diagnostics.
    """

    def unparse(self) -> str:  # pragma: no cover - overridden
        """Render this node back to parsable ClassAd text."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: object  # int | float | str | bool | Undefined-sentinel
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        v = self.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            return '"' + v.replace('"', '\\"') + '"'
        if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
            return f"{v:.1f}"
        return str(v)


@dataclass(frozen=True)
class AttrRef(Expr):
    name: str
    scope: str | None = None  # e.g. "cpu" in cpu.KFlops, or MY/TARGET
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        return f"{self.scope}.{self.name}" if self.scope else self.name


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str
    operand: Expr
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        return f"{self.op}{self.operand.unparse()}"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        return f"({self.left.unparse()} {self.op} {self.right.unparse()})"


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        return f"({self.cond.unparse()} ? {self.then.unparse()} : {self.other.unparse()})"


@dataclass(frozen=True)
class ListExpr(Expr):
    items: tuple[Expr, ...]
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        return "{ " + ", ".join(e.unparse() for e in self.items) + " }"


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        return f"{self.name}(" + ", ".join(a.unparse() for a in self.args) + ")"


@dataclass
class ClassAd:
    """An attribute → expression record (order-preserving,
    case-insensitive lookup)."""

    _attrs: dict[str, tuple[str, Expr]] = field(default_factory=dict)

    def __setitem__(self, name: str, expr: Expr) -> None:
        self._attrs[name.lower()] = (name, expr)

    def __getitem__(self, name: str) -> Expr:
        return self._attrs[name.lower()][1]

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._attrs

    def __iter__(self) -> Iterator[str]:
        for original, _ in self._attrs.values():
            yield original

    def __len__(self) -> int:
        return len(self._attrs)

    def get(self, name: str, default: Expr | None = None) -> Expr | None:
        """Expression bound to ``name`` (case-insensitive), or ``default``."""
        entry = self._attrs.get(name.lower())
        return entry[1] if entry else default

    def items(self) -> Iterator[tuple[str, Expr]]:
        """Yield (original-spelling name, expression) pairs in order."""
        for original, expr in self._attrs.values():
            yield original, expr

    def copy(self) -> "ClassAd":
        """A new ad with the same attributes, in the same order; the
        (immutable) expressions are shared."""
        return ClassAd(dict(self._attrs))

    @classmethod
    def from_values(cls, values: Mapping[str, object]) -> "ClassAd":
        """Build an ad from plain Python values (numbers, strings, bools)."""
        ad = cls()
        for name, v in values.items():
            ad[name] = Literal(v)
        return ad

    def unparse(self, indent: int = 0) -> str:
        """Render the ad back to parsable ClassAd text."""
        pad = " " * indent
        inner = " " * (indent + 2)
        lines = [pad + "["]
        for name, expr in self.items():
            lines.append(f"{inner}{name} = {_unparse_top(expr)};")
        lines.append(pad + "]")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClassAd({list(self)})"


@dataclass(frozen=True)
class RecordExpr(Expr):
    """A nested ClassAd literal appearing inside an expression."""

    ad: ClassAd
    pos: int | None = field(default=None, compare=False, repr=False)

    def unparse(self) -> str:
        """Render this node back to parsable ClassAd text."""
        body = "; ".join(f"{k} = {_unparse_top(v)}" for k, v in self.ad.items())
        return f"[ {body} ]"


def _unparse_top(expr: Expr) -> str:
    """Unparse without redundant outer parentheses."""
    s = expr.unparse()
    if isinstance(expr, BinaryOp) and s.startswith("(") and s.endswith(")"):
        return s[1:-1]
    return s


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
_KEYWORD_LITERALS = {"true": True, "false": False}


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        # Never advances past the trailing EOF token, so a parser that
        # keeps asking for tokens after a truncated input sees EOF
        # forever instead of raising IndexError.
        tok = self.tokens[self.i]
        if self.i < len(self.tokens) - 1:
            self.i += 1
        return tok

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(
                f"expression nesting deeper than {_MAX_DEPTH}", pos=self.peek().pos
            )

    def accept_op(self, *ops: str) -> str | None:
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ops:
            self.next()
            return str(tok.value)
        return None

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "OP" or tok.value != op:
            raise ParseError(f"expected {op!r}, got {tok.value!r}", pos=tok.pos)

    # -- grammar -------------------------------------------------------
    def expression(self) -> Expr:
        self._enter()
        try:
            cond = self.or_expr()
            if self.accept_op("?"):
                then = self.expression()
                self.expect_op(":")
                other = self.expression()
                return Ternary(cond, then, other, pos=cond.pos)
            return cond
        finally:
            self.depth -= 1

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.accept_op("||"):
            left = BinaryOp("||", left, self.and_expr(), pos=left.pos)
        return left

    def and_expr(self) -> Expr:
        left = self.eq_expr()
        while self.accept_op("&&"):
            left = BinaryOp("&&", left, self.eq_expr(), pos=left.pos)
        return left

    def eq_expr(self) -> Expr:
        left = self.rel_expr()
        while True:
            op = self.accept_op("==", "!=", "=?=", "=!=")
            if not op:
                return left
            left = BinaryOp(op, left, self.rel_expr(), pos=left.pos)

    def rel_expr(self) -> Expr:
        left = self.add_expr()
        while True:
            op = self.accept_op("<", "<=", ">", ">=")
            if not op:
                return left
            left = BinaryOp(op, left, self.add_expr(), pos=left.pos)

    def add_expr(self) -> Expr:
        left = self.mul_expr()
        while True:
            op = self.accept_op("+", "-")
            if not op:
                return left
            left = BinaryOp(op, left, self.mul_expr(), pos=left.pos)

    def mul_expr(self) -> Expr:
        left = self.unary()
        while True:
            op = self.accept_op("*", "/", "%")
            if not op:
                return left
            left = BinaryOp(op, left, self.unary(), pos=left.pos)

    def unary(self) -> Expr:
        op_pos = self.peek().pos
        op = self.accept_op("!", "-", "+")
        if op:
            self._enter()
            try:
                operand = self.unary()
            finally:
                self.depth -= 1
            if op == "+":
                return operand
            return UnaryOp(op, operand, pos=op_pos)
        return self.postfix()

    def postfix(self) -> Expr:
        node = self.primary()
        while True:
            if self.accept_op("."):
                tok = self.next()
                if tok.kind != "IDENT":
                    raise ParseError("expected attribute after '.'", pos=tok.pos)
                if isinstance(node, AttrRef) and node.scope is None:
                    node = AttrRef(str(tok.value), scope=node.name, pos=node.pos)
                else:
                    raise ParseError(
                        "scoped reference requires a simple scope name", pos=tok.pos
                    )
            elif (
                isinstance(node, AttrRef)
                and node.scope is None
                and self.peek().kind == "OP"
                and self.peek().value == "("
            ):
                self.next()
                args: list[Expr] = []
                if not (self.peek().kind == "OP" and self.peek().value == ")"):
                    args.append(self.expression())
                    while self.accept_op(","):
                        args.append(self.expression())
                self.expect_op(")")
                node = FuncCall(node.name, tuple(args), pos=node.pos)
            else:
                return node

    def primary(self) -> Expr:
        tok = self.next()
        if tok.kind == "NUMBER":
            return Literal(tok.value, pos=tok.pos)
        if tok.kind == "STRING":
            return Literal(tok.value, pos=tok.pos)
        if tok.kind == "IDENT":
            low = str(tok.value).lower()
            if low in _KEYWORD_LITERALS:
                return Literal(_KEYWORD_LITERALS[low], pos=tok.pos)
            if low == "undefined":
                from repro.selection.classad.evaluator import UNDEFINED

                return Literal(UNDEFINED, pos=tok.pos)
            if low == "error":
                from repro.selection.classad.evaluator import ERROR

                return Literal(ERROR, pos=tok.pos)
            return AttrRef(str(tok.value), pos=tok.pos)
        if tok.kind == "OP" and tok.value == "(":
            inner = self.expression()
            self.expect_op(")")
            return inner
        if tok.kind == "OP" and tok.value == "{":
            items: list[Expr] = []
            if not (self.peek().kind == "OP" and self.peek().value == "}"):
                items.append(self.expression())
                while self.accept_op(","):
                    items.append(self.expression())
            self.expect_op("}")
            return ListExpr(tuple(items), pos=tok.pos)
        if tok.kind == "OP" and tok.value == "[":
            return RecordExpr(self.record_body(), pos=tok.pos)
        raise ParseError(f"unexpected token {tok.value!r}", pos=tok.pos)

    def record_body(self) -> ClassAd:
        """Parse the inside of ``[ name = expr ; ... ]`` after the '['."""
        ad = ClassAd()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "]":
                self.next()
                return ad
            name_tok = self.next()
            if name_tok.kind != "IDENT":
                raise ParseError("expected attribute name", pos=name_tok.pos)
            self.expect_op("=")
            ad[str(name_tok.value)] = self.expression()
            # Attribute separator: ';' (optional before closing bracket).
            if not self.accept_op(";"):
                tok = self.peek()
                if not (tok.kind == "OP" and tok.value == "]"):
                    raise ParseError("expected ';' or ']'", pos=tok.pos)


def parse_expression(text: str) -> Expr:
    """Parse a single ClassAd expression.

    Malformed input raises :class:`ParseError` (or :class:`LexError
    <repro.selection.classad.lexer.LexError>`) — both subclasses of
    :class:`~repro.selection.classad.lexer.ClassAdParseError` — with
    line/column/context attached.
    """
    try:
        parser = _Parser(tokenize(text))
        expr = parser.expression()
        tok = parser.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input: {tok.value!r}", pos=tok.pos)
        return expr
    except ClassAdParseError as exc:
        raise exc.attach_source(text)


def parse_classad(text: str) -> ClassAd:
    """Parse a full ClassAd: ``[ name = expr; ... ]``.

    Error behaviour matches :func:`parse_expression`.
    """
    try:
        parser = _Parser(tokenize(text))
        parser.expect_op("[")
        ad = parser.record_body()
        tok = parser.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input: {tok.value!r}", pos=tok.pos)
        return ad
    except ClassAdParseError as exc:
        raise exc.attach_source(text)
