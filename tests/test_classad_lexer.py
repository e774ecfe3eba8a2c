"""Tests for the ClassAd tokeniser."""

import pytest

from repro.selection.classad.lexer import LexError, tokenize


def kinds(text):
    return [(t.kind, t.value) for t in tokenize(text)[:-1]]


def test_numbers():
    assert kinds("42") == [("NUMBER", 42)]
    assert kinds("3.14") == [("NUMBER", 3.14)]
    assert kinds("1e3") == [("NUMBER", 1000.0)]
    assert kinds("2.5E-2") == [("NUMBER", 0.025)]


def test_unit_suffixes():
    assert kinds("100M") == [("NUMBER", 100 * 2.0**20)]
    assert kinds("2K") == [("NUMBER", 2 * 2.0**10)]
    assert kinds("1G") == [("NUMBER", 2.0**30)]


def test_numbers_outside_float_range_rejected():
    # inf and ints beyond float range would crash every float() consumer.
    for text in ("1e309", "1e308K", "9" * 401, "9" * 5000):
        with pytest.raises(LexError, match="float range") as info:
            tokenize(f"x >= {text}")
        assert info.value.pos == 5
    assert kinds("1e308") == [("NUMBER", 1e308)]
    assert kinds("1e-400") == [("NUMBER", 0.0)]


def test_suffix_not_applied_to_identifier():
    # "100Mb" is a number followed by... actually an identifier char after M
    toks = kinds("100Mem")
    assert toks[0] == ("NUMBER", 100)
    assert toks[1] == ("IDENT", "Mem")


def test_strings():
    assert kinds('"hello"') == [("STRING", "hello")]
    assert kinds("'single'") == [("STRING", "single")]
    assert kinds('"with \\" escape"') == [("STRING", 'with " escape')]


def test_unicode_quotes():
    # The dissertation's Fig. II-2 uses typographic quotes for the date.
    assert kinds("‘ Mon Oct 30 ’") == [("STRING", " Mon Oct 30 ")]


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_operators():
    ops = [v for k, v in kinds("a == b != c <= d >= e && f || !g =?= h =!= i")]
    assert "==" in ops and "!=" in ops and "<=" in ops and ">=" in ops
    assert "&&" in ops and "||" in ops and "!" in ops
    assert "=?=" in ops and "=!=" in ops


def test_comments_skipped():
    assert kinds("1 // comment\n + 2") == [("NUMBER", 1), ("OP", "+"), ("NUMBER", 2)]
    assert kinds("1 /* block */ + 2") == [("NUMBER", 1), ("OP", "+"), ("NUMBER", 2)]


def test_unterminated_comment():
    with pytest.raises(LexError):
        tokenize("1 /* oops")


def test_unexpected_character():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_eof_token():
    toks = tokenize("x")
    assert toks[-1].kind == "EOF"


def test_identifiers_with_underscores():
    assert kinds("Op_Sys_2") == [("IDENT", "Op_Sys_2")]
