"""Tokeniser for the ClassAd expression language."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Token", "ClassAdParseError", "LexError", "tokenize", "source_location"]


def source_location(text: str, pos: int) -> tuple[int, int, str]:
    """1-based ``(line, column, context_line)`` of offset ``pos`` in ``text``.

    The shared span machinery: parse errors (:meth:`attach_source`) and the
    static analyzer's :class:`~repro.analysis.diagnostics.Span` both derive
    their line/column/context from this.
    """
    pos = min(max(pos, 0), len(text))
    line = text.count("\n", 0, pos) + 1
    bol = text.rfind("\n", 0, pos) + 1
    eol = text.find("\n", pos)
    eol = len(text) if eol < 0 else eol
    return line, pos - bol + 1, text[bol:eol]


class ClassAdParseError(ValueError):
    """Structured error for malformed ClassAd input.

    Both the tokeniser (:class:`LexError`) and the parser
    (:class:`~repro.selection.classad.parser.ParseError`) raise subclasses
    of this, so callers handling arbitrary input need exactly one except
    clause.  When the character offset of the defect is known,
    :meth:`attach_source` derives 1-based ``line`` / ``column`` and the
    offending source ``context`` line; ``str()`` then includes them.
    """

    def __init__(self, message: str, pos: int | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos
        self.line: int | None = None
        self.column: int | None = None
        self.context: str | None = None

    def attach_source(self, text: str) -> "ClassAdParseError":
        """Derive line/column/context from ``text`` (idempotent)."""
        if self.pos is None or self.line is not None:
            return self
        self.line, self.column, self.context = source_location(text, self.pos)
        shown = self.context.strip()
        if len(shown) > 60:
            shown = shown[:57] + "..."
        detail = f" (line {self.line}, column {self.column})"
        if shown:
            detail += f": {shown!r}"
        self.args = (self.message + detail,)
        return self


class LexError(ClassAdParseError):
    """Raised on malformed ClassAd input."""


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER STRING IDENT OP EOF
    value: object
    pos: int


_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||", "=?", "=!")
_ONE_CHAR_OPS = "+-*/%<>!()[]{};,=.?:"

#: Unit suffixes Condor allows on numeric literals (e.g. ``100M`` image size).
_UNIT_SUFFIXES = {
    "b": 1.0,
    "k": 2.0**10,
    "m": 2.0**20,
    "g": 2.0**30,
    "t": 2.0**40,
}


def tokenize(text: str) -> list[Token]:
    """Turn ``text`` into a token list terminated by an EOF token.

    Malformed input raises :class:`LexError` with line/column/context
    attached (see :class:`ClassAdParseError`).
    """
    try:
        return _tokenize(text)
    except ClassAdParseError as exc:
        raise exc.attach_source(text)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "/" and text[i : i + 2] == "//":
            # Line comment.
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and text[i : i + 2] == "/*":
            end = text.find("*/", i + 2)
            if end < 0:
                raise LexError("unterminated comment", pos=i)
            i = end + 2
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                d = text[j]
                if d.isdigit():
                    j += 1
                elif d == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif d in "eE" and not seen_exp and j > i:
                    # Exponent only when followed by digit or sign+digit.
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        seen_exp = True
                        seen_dot = True
                        j = k
                    else:
                        break
                else:
                    break
            raw = text[i:j]
            value: object
            try:
                if seen_dot or seen_exp:
                    value = float(raw)
                else:
                    value = int(raw)
                # Optional unit suffix (100M etc.) — only when not followed
                # by more identifier characters.
                if j < n and text[j].lower() in _UNIT_SUFFIXES:
                    after = text[j + 1] if j + 1 < n else ""
                    if not (after.isalnum() or after == "_"):
                        value = float(value) * _UNIT_SUFFIXES[text[j].lower()]
                        j += 1
                in_range = math.isfinite(value)
            except (OverflowError, ValueError):
                # An int beyond float range, or digits int() rejects.
                in_range = False
            if not in_range:
                # Every consumer treats numbers as floats, so 1e309 (inf)
                # or a 400-digit integer is a lexical error, not a value.
                shown = text[i:j] if j - i <= 20 else text[i : i + 17] + "..."
                raise LexError(
                    f"numeric literal {shown!r} is not a finite number "
                    "in float range",
                    pos=i,
                )
            tokens.append(Token("NUMBER", value, i))
            i = j
            continue
        if c in "\"'‘’":
            quote_close = {"‘": "’"}.get(c, c)
            j = i + 1
            out = []
            while j < n and text[j] != quote_close:
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string", pos=i)
            tokens.append(Token("STRING", "".join(out), i))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], i))
            i = j
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            # =?= and =!= are three characters.
            if two in ("=?", "=!"):
                three = text[i : i + 3]
                if three in ("=?=", "=!="):
                    tokens.append(Token("OP", three, i))
                    i += 3
                    continue
                raise LexError(f"unexpected characters {two!r}", pos=i)
            tokens.append(Token("OP", two, i))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            tokens.append(Token("OP", c, i))
            i += 1
            continue
        raise LexError(f"unexpected character {c!r}", pos=i)
    tokens.append(Token("EOF", None, n))
    return tokens
