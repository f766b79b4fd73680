"""The lexer's full output, pinned.

Every token's ``(kind, text, line, col, value)`` and every ``LexError``'s
message, line and column are part of the front end's contract: parse
errors, analyzer spans and golden lint output all quote them.  These
tests pin them three ways -- digests over real sources (the examples
and a generated layered project), one explicit stream through the
tricky corners of the lexical grammar, and the error of each malformed
input -- so a faster lexer must reproduce the old one exactly.
"""

import os

import pytest

from repro.digest import content_digest
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind
from repro.workload import generate_workload, layered

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def stream_digest(text: str) -> str:
    lines = "".join(
        f"{t.kind.name}\t{t.text!r}\t{t.line}\t{t.col}\t{t.value!r}\n"
        for t in tokenize(text))
    return content_digest(lines.encode("utf-8"))


def example_sources() -> dict[str, str]:
    out = {}
    for folder, _dirs, files in os.walk(EXAMPLES):
        for fname in files:
            if fname.endswith(".sml"):
                path = os.path.join(folder, fname)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, EXAMPLES)] = fh.read()
    return out


EXAMPLE_DIGESTS = {
    'lint_demo/draw.sml': 'c3927e15bd4fdb6f127135890d521098',
    'lint_demo/dup.sml': '96bb0c2a0755a140257ce5bc1c54c3fc',
    'lint_demo/geom.sml': '49f9337c5c0b89b7edec6a22ed3d9de9',
    'lint_demo/main.sml': '246c7e3f3baf40294502cf7317412d76',
    'lint_demo/palette.sml': '004d36bcc2c2c3632f1bc5b70f791c83',
    'lint_demo/render.sml': 'fe418df4a69dc916ff047191aebbc1ae',
    'lint_demo/report.sml': '57925bd709ea357212a744e5d272057c',
    'lint_demo/shapes.sml': 'c5265ba3bf968ceea94dddbb420357e8',
}


def test_every_example_source_lexes_as_pinned():
    digests = {name: stream_digest(text)
               for name, text in example_sources().items()}
    assert digests == EXAMPLE_DIGESTS


def test_a_generated_layered_project_lexes_as_pinned():
    w = generate_workload(layered([1, 6, 10, 6, 2], fan_in=3, seed=42),
                          helpers_per_unit=4, leak_types=True)
    digests = {name: stream_digest(w.project.source(name))
               for name in w.project.names()}
    assert len(digests) == 25
    combined = content_digest("".join(
        f"{name} {digest}\n" for name, digest in sorted(digests.items())
    ).encode("utf-8"))
    assert combined == "cb9d2d6412a5dfb32bd32e5876ce69bf"


KEYWORD, ID, SYMID, TYVAR = (TokKind.KEYWORD, TokKind.ID, TokKind.SYMID,
                             TokKind.TYVAR)
INT, WORD, REAL, STRING, CHAR = (TokKind.INT, TokKind.WORD, TokKind.REAL,
                                 TokKind.STRING, TokKind.CHAR)
DOT, DOTDOTDOT, LBRACE, RBRACE, COMMA, EOF = (
    TokKind.DOT, TokKind.DOTDOTDOT, TokKind.LBRACE, TokKind.RBRACE,
    TokKind.COMMA, TokKind.EOF)

#: Nested comments, character literals, ``~`` literals, words, hex,
#: reals, equality tyvars, ``op*``, reserved symbols, records with
#: ``...``, non-ASCII identifiers, symbolic runs that swallow ``~`` and
#: ``#``, string escapes and gaps, and tokens after multi-line comments
#: and strings, with tab, CR and form feed in the layout.
TRICKY = (
    '(* outer (* nested *) still outer *) val c = #"c"\n'
    'val n = ~3 val w = 0w12 val wx = 0wx1F val h = 0x1F val nh = ~0x10\n'
    'val r = 1.5e~3 val r2 = ~2.5E4 val i = 3. val nw = ~0w5\n'
    "type ''a t = ''a list * 'b_1'\n"
    'val m = op* structure S :> SIG = S fn x => x\n'
    "val {a, ...} = r val café = ñu x² a-~3 :=+#\"q\" ..\n"
    '\tval s = "a\\n\\t\\"\\\\\\065\\^A gap:\\\n'
    '      \\end" (* a comment\n'
    'spanning (* nested\n'
    '*) lines *) val after = s\r\n'
    '\fval s2 = "multi\\\n'
    '\\line" val z = after_\n'
)

TRICKY_STREAM = [
    (KEYWORD, 'val', 1, 38, None),
    (ID, 'c', 1, 42, None),
    (KEYWORD, '=', 1, 44, None),
    (CHAR, '"c"', 1, 46, 'c'),
    (KEYWORD, 'val', 2, 1, None),
    (ID, 'n', 2, 5, None),
    (KEYWORD, '=', 2, 7, None),
    (INT, '3', 2, 9, -3),
    (KEYWORD, 'val', 2, 12, None),
    (ID, 'w', 2, 16, None),
    (KEYWORD, '=', 2, 18, None),
    (WORD, '0w12', 2, 20, 12),
    (KEYWORD, 'val', 2, 25, None),
    (ID, 'wx', 2, 29, None),
    (KEYWORD, '=', 2, 32, None),
    (WORD, '0w1F', 2, 34, 31),
    (KEYWORD, 'val', 2, 40, None),
    (ID, 'h', 2, 44, None),
    (KEYWORD, '=', 2, 46, None),
    (INT, '0x1F', 2, 48, 31),
    (KEYWORD, 'val', 2, 53, None),
    (ID, 'nh', 2, 57, None),
    (KEYWORD, '=', 2, 60, None),
    (INT, '0x10', 2, 62, -16),
    (KEYWORD, 'val', 3, 1, None),
    (ID, 'r', 3, 5, None),
    (KEYWORD, '=', 3, 7, None),
    (REAL, '1.5e-3', 3, 9, 0.0015),
    (KEYWORD, 'val', 3, 16, None),
    (ID, 'r2', 3, 20, None),
    (KEYWORD, '=', 3, 23, None),
    (REAL, '2.5e4', 3, 25, -25000.0),
    (KEYWORD, 'val', 3, 32, None),
    (ID, 'i', 3, 36, None),
    (KEYWORD, '=', 3, 38, None),
    (INT, '3', 3, 40, 3),
    (DOT, '.', 3, 41, None),
    (KEYWORD, 'val', 3, 43, None),
    (ID, 'nw', 3, 47, None),
    (KEYWORD, '=', 3, 50, None),
    (WORD, '0w5', 3, 52, 5),
    (KEYWORD, 'type', 4, 1, None),
    (TYVAR, "''a", 4, 6, None),
    (ID, 't', 4, 10, None),
    (KEYWORD, '=', 4, 12, None),
    (TYVAR, "''a", 4, 14, None),
    (ID, 'list', 4, 18, None),
    (KEYWORD, '*', 4, 23, None),
    (TYVAR, "'b_1'", 4, 25, None),
    (KEYWORD, 'val', 5, 1, None),
    (ID, 'm', 5, 5, None),
    (KEYWORD, '=', 5, 7, None),
    (KEYWORD, 'op', 5, 9, None),
    (KEYWORD, '*', 5, 11, None),
    (KEYWORD, 'structure', 5, 13, None),
    (ID, 'S', 5, 23, None),
    (KEYWORD, ':>', 5, 25, None),
    (ID, 'SIG', 5, 28, None),
    (KEYWORD, '=', 5, 32, None),
    (ID, 'S', 5, 34, None),
    (KEYWORD, 'fn', 5, 36, None),
    (ID, 'x', 5, 39, None),
    (KEYWORD, '=>', 5, 41, None),
    (ID, 'x', 5, 44, None),
    (KEYWORD, 'val', 6, 1, None),
    (LBRACE, '{', 6, 5, None),
    (ID, 'a', 6, 6, None),
    (COMMA, ',', 6, 7, None),
    (DOTDOTDOT, '...', 6, 9, None),
    (RBRACE, '}', 6, 12, None),
    (KEYWORD, '=', 6, 14, None),
    (ID, 'r', 6, 16, None),
    (KEYWORD, 'val', 6, 18, None),
    (ID, 'café', 6, 22, None),
    (KEYWORD, '=', 6, 27, None),
    (ID, 'ñu', 6, 29, None),
    (ID, 'x²', 6, 32, None),
    (ID, 'a', 6, 35, None),
    (SYMID, '-~', 6, 36, None),
    (INT, '3', 6, 38, 3),
    (SYMID, ':=+#', 6, 40, None),
    (STRING, '"q"', 6, 44, 'q'),
    (DOT, '.', 6, 48, None),
    (DOT, '.', 6, 49, None),
    (KEYWORD, 'val', 7, 2, None),
    (ID, 's', 7, 6, None),
    (KEYWORD, '=', 7, 8, None),
    (STRING, '"a\n\t"\\A\x01 gap:end"', 7, 10, 'a\n\t"\\A\x01 gap:end'),
    (KEYWORD, 'val', 10, 13, None),
    (ID, 'after', 10, 17, None),
    (KEYWORD, '=', 10, 23, None),
    (ID, 's', 10, 25, None),
    (KEYWORD, 'val', 11, 2, None),
    (ID, 's2', 11, 6, None),
    (KEYWORD, '=', 11, 9, None),
    (STRING, '"multiline"', 11, 11, 'multiline'),
    (KEYWORD, 'val', 12, 8, None),
    (ID, 'z', 12, 12, None),
    (KEYWORD, '=', 12, 14, None),
    (ID, 'after_', 12, 16, None),
    (EOF, '', 13, 1, None),
]


def test_tricky_stream():
    got = [(t.kind, t.text, t.line, t.col, t.value)
           for t in tokenize(TRICKY)]
    assert got == TRICKY_STREAM
    # Equal floats compare equal across int/float too; pin the types.
    assert [type(t.value) for t in tokenize(TRICKY)] == [
        type(v) for *_, v in TRICKY_STREAM]


MALFORMED = [
    ('"abc', 'unterminated string', 1, 1),
    ('val s = "ab\ncd"', 'newline in string literal', 1, 9),
    ('a (* oops (* x *)', 'unterminated comment', 1, 3),
    ('#"xy"', 'character literal must hold one character', 1, 1),
    ('#""', 'character literal must hold one character', 1, 1),
    ('0w', 'malformed word literal', 1, 3),
    ('0wxg', 'malformed word literal', 1, 4),
    ('~0wq', 'malformed word literal', 1, 4),
    ('0x', 'malformed hex literal', 1, 3),
    ('~0xz', 'malformed hex literal', 1, 4),
    ("'", 'malformed type variable', 1, 2),
    ("''", 'malformed type variable', 1, 3),
    ("'''a", 'malformed type variable', 1, 3),
    ('"\\q"', 'unknown escape \\q', 1, 1),
    ('"\\1a3"', 'malformed decimal escape', 1, 1),
    ('"\\12', 'malformed decimal escape', 1, 1),
    ('"\\', 'unterminated escape', 1, 1),
    ('"\\ x"', 'malformed string gap', 1, 1),
    ('"\\   ', 'malformed string gap', 1, 1),
    ('val x = ²', "illegal character '²'", 1, 9),
    ('a §', "illegal character '§'", 1, 3),
    ('val a = 1\n  (* unclosed\n', 'unterminated comment', 2, 3),
    ('x\n\n   "abc', 'unterminated string', 3, 4),
    ('val y =\n  0wx', 'malformed word literal', 2, 6),
    ("f (x, '\n", 'malformed type variable', 1, 8),
]


@pytest.mark.parametrize("text,message,line,col", MALFORMED,
                         ids=[repr(m[0]) for m in MALFORMED])
def test_malformed_input(text, message, line, col):
    with pytest.raises(LexError) as info:
        tokenize(text)
    err = info.value
    assert (err.message, err.line, err.col) == (message, line, col)
