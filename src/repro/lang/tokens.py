"""Token kinds and the token record produced by the lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokKind(Enum):
    """Lexical classes of the SML subset."""

    # Literals.
    INT = auto()        # 42, ~7, 0x1F
    WORD = auto()       # 0w255
    REAL = auto()       # 3.14, 1e10, ~2.5e~3
    STRING = auto()     # "abc"
    CHAR = auto()       # #"a"

    # Names.
    ID = auto()         # alphanumeric identifier (possibly a keyword -- no)
    SYMID = auto()      # symbolic identifier: +, <=, :=, ...
    TYVAR = auto()      # 'a, ''a

    # Reserved words get their own kinds via the KEYWORDS table but are
    # carried as kind=KEYWORD with text distinguishing them.
    KEYWORD = auto()

    # Punctuation that is reserved (never an identifier).
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    LBRACE = auto()
    RBRACE = auto()
    COMMA = auto()
    SEMICOLON = auto()
    DOT = auto()
    DOTDOTDOT = auto()
    UNDERSCORE = auto()

    EOF = auto()


#: Alphabetic reserved words of the subset.  ``=``, ``=>``, ``->``, ``|``,
#: ``:``, ``:>``, ``#`` and ``*`` are symbolic but also reserved; the lexer
#: emits them as KEYWORD tokens too so the parser has one namespace for
#: reserved tokens.
KEYWORDS = frozenset(
    """
    abstype and andalso as case datatype do else end eqtype exception fn
    fun functor handle if in include infix infixr let local nonfix of op
    open orelse raise rec sharing sig signature struct structure then type
    val where while with withtype
    """.split()
)

#: Symbolic tokens that are reserved rather than ordinary operators.
RESERVED_SYMBOLIC = frozenset(["=", "=>", "->", "|", ":", ":>", "#", "*"])


class Token(NamedTuple):
    """One lexical token (a named tuple: the lexer makes one per token,
    so it must be cheap to build).

    Attributes:
        kind: the lexical class.
        text: the token's source text (normalized for literals).
        line: 1-based line of the first character.
        col: 1-based column of the first character.
        value: decoded value for literals (int for INT/WORD, float for
            REAL, str for STRING/CHAR); None otherwise.
    """

    kind: TokKind
    text: str
    line: int
    col: int
    value: object = None

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text == word

    def __repr__(self) -> str:  # compact, for parser error messages
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.col}"
