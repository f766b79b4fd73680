"""Lexer for the Standard ML subset.

Follows the Definition of Standard ML's lexical rules closely enough for
real programs: nested ``(* ... *)`` comments, ``~`` negation in numeric
literals, ``0x``/``0w`` forms, string escapes, character literals ``#"c"``,
type variables ``'a``/``''a``, alphanumeric and symbolic identifiers, and
the reserved words/symbols of the subset.

One compiled pattern, :data:`_TOKEN`, matches a token together with the
blanks before it; :func:`tokenize` walks its matches and tracks lines by
counting the newlines in each blank run, the only matches that hold
any.  What the pattern does not match alone goes to small scanners:
comments (they nest), strings and character literals, identifiers that
start with a non-ASCII letter, and every malformed token, which raises
:class:`LexError` at the position the Definition's rules put it.
"""

from __future__ import annotations

import re

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, RESERVED_SYMBOLIC, TokKind, Token

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "a": "\a",
    "b": "\b",
    "f": "\f",
    "v": "\v",
    '"': '"',
    "\\": "\\",
}

# Alternatives of _TOKEN, in group order; each follows the blanks
# (space, tab, CR, form feed) before the token.  ``\w`` is exactly
# ``str.isalnum()`` plus ``_``, the identifier-continuation rule, and
# group 2's class holds the Definition's symbolic-identifier
# characters.  The guards keep a literal's first character away from
# the symbol and number alternatives that would otherwise take part of
# it, so a malformed literal falls through to _OTHER and its scanner.
# Giving back characters never helps a match (the pattern has no
# possessive quantifiers, which Python 3.10 lacks): an integer refuses
# to end before a digit, and _OTHER refuses a blank.
_TOKEN = re.compile(r"""
    [ \t\r\f]*
    (?:
        ([A-Za-z][\w']*)                                # 1 alphanumeric
      | ((?!~[0-9]|\#")[!%&$\#+\-/:<=>?@\\~`^|*]+)      # 2 symbolic
      | (\((?!\*)|[)\[\]{},;_]|\.(?:\.\.)?)            # 3 punctuation
      | (~?(?!0[wx])[0-9]+(?![0-9]|[.][0-9]|[eE]~?[0-9]))  # 4 integer
      | (\n[ \t\r\n\f]*)                               # 5 line break(s)
      | ('{1,2}\w[\w']*)                               # 6 type variable
      | (~?[0-9]+(?:\.[0-9]+(?:[eE]~?[0-9]+)?|[eE]~?[0-9]+))  # 7 real
      | (~?0x[0-9a-fA-F]+)                             # 8 hex integer
      | (~?0w(?:x[0-9a-fA-F]+|[0-9]+))                 # 9 word
      | ([^ \t\r\f])                                   # 10 anything else
    )
    """, re.VERBOSE)

(_ALPHA, _SYMBOLIC, _PUNCT, _INT, _NEWLINE, _TYVAR, _REAL, _HEX, _WORD,
 _OTHER) = range(1, 11)

_ID, _SYMID, _KEYWORD = TokKind.ID, TokKind.SYMID, TokKind.KEYWORD
_INT_KIND, _REAL_KIND, _WORD_KIND = TokKind.INT, TokKind.REAL, TokKind.WORD
_STRING_KIND, _CHAR_KIND = TokKind.STRING, TokKind.CHAR

#: Reserved words and reserved symbols -> KEYWORD.
_RESERVED = dict.fromkeys(KEYWORDS | RESERVED_SYMBOLIC, _KEYWORD)

_PUNCT_KINDS = {
    "(": TokKind.LPAREN,
    ")": TokKind.RPAREN,
    "[": TokKind.LBRACKET,
    "]": TokKind.RBRACKET,
    "{": TokKind.LBRACE,
    "}": TokKind.RBRACE,
    ",": TokKind.COMMA,
    ";": TokKind.SEMICOLON,
    ".": TokKind.DOT,
    "...": TokKind.DOTDOTDOT,
    "_": TokKind.UNDERSCORE,
}

_IDENT_REST = re.compile(r"[\w']*")
_COMMENT_MARK = re.compile(r"\(\*|\*\)")
_STRING_CHUNK = re.compile(r'[^"\\\n]*')
_GAP = re.compile(r"[ \t\n\f\r]*")


def tokenize(text: str) -> list[Token]:
    """Convert source text to a token list ending with an EOF token.

    Raises:
        LexError: on malformed literals or unterminated comments/strings.
    """
    toks: list[Token] = []
    append = toks.append
    reserved = _RESERVED.get
    line = 1
    line_start = 0  # index of the current line's first character
    pos = 0
    # Matching stops at the last non-blank character: in trailing
    # blanks no alternative can match, and the search would give the
    # blanks back one by one at every position, quadratically.
    limit = len(text.rstrip(" \t\r\f"))
    while True:
        for m in _TOKEN.finditer(text, pos, limit):
            group = m.lastindex
            if group == _ALPHA:
                s = m[1]
                append(Token(reserved(s, _ID), s, line,
                             m.end() - len(s) - line_start + 1))
            elif group == _SYMBOLIC:
                s = m[2]
                append(Token(reserved(s, _SYMID), s, line,
                             m.end() - len(s) - line_start + 1))
            elif group == _PUNCT:
                s = m[3]
                append(Token(_PUNCT_KINDS[s], s, line,
                             m.end() - len(s) - line_start + 1))
            elif group == _INT:
                s = m[4]
                col = m.end() - len(s) - line_start + 1
                try:
                    if s[0] == "~":
                        s = s[1:]
                        append(Token(_INT_KIND, s, line, col, -int(s)))
                    else:
                        append(Token(_INT_KIND, s, line, col, int(s)))
                except ValueError:
                    raise _too_long(s, line, col) from None
            elif group == _NEWLINE:
                s = m[5]
                line += s.count("\n")
                line_start = m.start(5) + s.rindex("\n") + 1
            else:
                start = m.start(group)
                if group == _OTHER:
                    pos = start
                    break  # a scanner takes over at pos
                append(_literal(group, m[group], line,
                                start - line_start + 1))
        else:
            break  # only blanks, if anything, are left
        # A token the pattern does not finish alone starts at pos.
        tok, end = _scan_other(text, pos, line, pos - line_start + 1)
        if tok is not None:
            append(tok)
        newlines = text.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, end) + 1
        pos = end
    append(Token(TokKind.EOF, "", line, len(text) - line_start + 1))
    return toks


def _literal(group: int, s: str, line: int, col: int) -> Token:
    """The token for a match ``s`` of one of the rarer literal groups."""
    if group == _TYVAR:
        return Token(TokKind.TYVAR, s, line, col)
    # A number's text leaves out a leading ~, which negates the value
    # (but not a word's), and a word's text drops the x of 0wx.
    negative = s[0] == "~"
    body = s[1:] if negative else s
    if group == _REAL:
        body = body.replace("E", "e").replace("~", "-")
        value = float(body)
    elif group == _HEX:
        value = int(body[2:], 16)
    else:  # _WORD
        hexadecimal = body[2] == "x"
        body = "0w" + body[3 if hexadecimal else 2:]
        try:
            value = int(body[2:], 16 if hexadecimal else 10)
        except ValueError:
            raise _too_long(body[2:], line, col) from None
        return Token(_WORD_KIND, body, line, col, value)
    kind = _REAL_KIND if group == _REAL else _INT_KIND
    return Token(kind, body, line, col, -value if negative else value)


def _too_long(digits: str, line: int, col: int) -> LexError:
    """The error for a decimal literal past CPython's int-string
    conversion limit (``sys.get_int_max_str_digits``); hexadecimal
    conversions have no limit."""
    return LexError(f"integer literal too long ({len(digits)} digits)",
                    line, col)


def _scan_other(text: str, pos: int, line: int,
                col: int) -> tuple[Token | None, int]:
    """The token (None for a comment) starting at ``pos`` that the
    pattern left to a scanner, and the index just past it."""
    ch = text[pos]
    nxt = text[pos + 1:pos + 2]
    if ch == "(" and nxt == "*":
        return None, _skip_comment(text, pos, line, col)
    if ch == '"':
        value, end = _scan_string(text, pos, line, col)
        return Token(_STRING_KIND, '"' + value + '"', line, col, value), end
    if ch == "#" and nxt == '"':
        value, end = _scan_string(text, pos + 1, line, col + 1)
        if len(value) != 1:
            raise LexError("character literal must hold one character",
                           line, col)
        return Token(_CHAR_KIND, '"' + value + '"', line, col, value), end
    if ch == "'":
        # Only a malformed type variable gets here: after one or two
        # quotes comes no identifier character.
        quotes = 2 if nxt == "'" else 1
        raise LexError("malformed type variable", line, col + quotes)
    if "0" <= ch <= "9" or ch == "~":
        # Only a malformed word or hex literal gets here.
        at = pos + (ch == "~")
        if text.startswith("0w", at):
            at += 3 if text.startswith("0wx", at) else 2
            raise LexError("malformed word literal", line, col + at - pos)
        raise LexError("malformed hex literal", line, col + at + 2 - pos)
    if ch.isalpha():
        end = _IDENT_REST.match(text, pos + 1).end()
        word = text[pos:end]
        return Token(_RESERVED.get(word, _ID), word, line, col), end
    raise LexError(f"illegal character {ch!r}", line, col)


def _skip_comment(text: str, pos: int, line: int, col: int) -> int:
    """The index just past the (nested) comment that opens at ``pos``."""
    depth = 1
    at = pos + 2
    while depth:
        m = _COMMENT_MARK.search(text, at)
        if m is None:
            raise LexError("unterminated comment", line, col)
        at = m.end()
        depth += 1 if text[at - 1] == "*" else -1
    return at


def _scan_string(text: str, pos: int, line: int,
                 col: int) -> tuple[str, int]:
    """The value of the string literal whose opening quote is at
    ``pos`` (at ``line``:``col``, where its errors point), and the
    index just past its closing quote."""
    chars: list[str] = []
    at = pos + 1
    end = len(text)
    while True:
        chunk = _STRING_CHUNK.match(text, at)
        chars.append(chunk[0])
        at = chunk.end()
        if at >= end:
            raise LexError("unterminated string", line, col)
        ch = text[at]
        at += 1
        if ch == '"':
            return "".join(chars), at
        if ch == "\n":
            raise LexError("newline in string literal", line, col)
        value, at = _scan_escape(text, at, line, col)
        chars.append(value)


def _scan_escape(text: str, at: int, line: int,
                 col: int) -> tuple[str, int]:
    """The character an escape stands for, its backslash just before
    ``at``, and the index past the escape."""
    if at >= len(text):
        raise LexError("unterminated escape", line, col)
    ch = text[at]
    at += 1
    if ch in _ESCAPES:
        return _ESCAPES[ch], at
    if "0" <= ch <= "9":
        if at + 2 > len(text):
            raise LexError("malformed decimal escape", line, col)
        digits = ch + text[at:at + 2]
        if not ("0" <= digits[1] <= "9" and "0" <= digits[2] <= "9"):
            raise LexError("malformed decimal escape", line, col)
        return chr(int(digits)), at + 2
    if ch == "^":
        if at >= len(text):
            raise LexError("unterminated escape", line, col)
        code = ord(text[at]) - 64
        if code < 0:
            raise LexError(f"malformed control escape \\^{text[at]}",
                           line, col)
        return chr(code), at + 1
    if ch in " \t\n\f\r":
        # Gap escape: \ whitespace... \ splices lines together.
        at = _GAP.match(text, at).end()
        if at >= len(text) or text[at] != "\\":
            raise LexError("malformed string gap", line, col)
        return "", at + 1
    raise LexError(f"unknown escape \\{ch}", line, col)
