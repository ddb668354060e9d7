"""C++ lexer with exact source-position tracking.

Produces the raw token stream the preprocessor consumes.  One compiled
regex drives the scan: each match is a run of whitespace, a
backslash-newline splice, a newline, a ``//`` or ``/*`` comment, an
identifier, a number, an opening quote or a punctuator (maximal munch,
longest first).  Comments are skipped (they only affect
``leading_space``); line continuations are honoured, including inside
``#define`` bodies.  Lines and columns come from a running line number
and the offset of the last newline, so only matches that can span lines
(splices, block comments, literals) count newlines.  There are no raw
strings: ``R"(...)"`` lexes as an identifier followed by a string.

When called with a non-fatal :class:`DiagnosticSink`, lexical errors
are reported as soft errors and the lexer recovers instead of raising:
an unterminated block comment swallows the rest of the file, an
unterminated literal ends at the line break (or EOF) and gets its
closing quote appended, and an unexpected character is skipped.
Truncated or corrupted sources then still yield a usable token stream
for the rest of the translation unit.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.source import SourceFile, SourceLocation
from repro.cpp.tokens import PUNCTUATORS, Token, TokenKind

#: one alternative per match kind; ``lastindex`` numbers them in order
_SCAN = re.compile(
    r"([ \t\r\f\v]+)"  # 1 whitespace
    r"|(\\\n)"  # 2 line splice
    r"|(\n)"  # 3 newline
    r"|(//[^\n]*)"  # 4 line comment
    r"|(/\*)"  # 5 block comment (closed by str.find)
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # 6 identifier
    r"|((?:0[xX][0-9a-fA-F]*|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    r"(?:[eE][+-]?[0-9]+)?)[uUlLfF]*)"  # 7 number
    r"|([\"'])"  # 8 opening quote
    r"|(" + "|".join(re.escape(p) for p in PUNCTUATORS) + ")"  # 9 punctuator
)
#: literal body after the opening quote; group 1 is the closing quote
_LITERAL = {
    q: re.compile(r"(?:[^%s\\\n]|\\.?)*(%s)?" % (q, q), re.DOTALL) for q in "\"'"
}
_KIND = {6: TokenKind.IDENT, 7: TokenKind.NUMBER, 9: TokenKind.PUNCT}


def tokenize(file: SourceFile, sink: Optional[DiagnosticSink] = None) -> list[Token]:
    """Lex ``file`` into a token list, EOF token included.

    With a non-fatal ``sink``, lexical errors are recorded there and the
    lexer recovers (see module docstring) instead of raising."""
    recover = sink is not None and not sink.fatal_errors

    def error(message: str, loc: SourceLocation) -> None:
        if recover:
            sink.soft_error(message, loc)
        else:
            raise CppError(message, loc)

    text = file.text
    n = len(text)
    scan = _SCAN.match
    out: list[Token] = []
    append = out.append
    pos = 0
    line = 1
    line_start = 0  # offset just past the last newline
    at_start, space = True, False
    while pos < n:
        m = scan(text, pos)
        if m is None:
            # recovery: skip the offending character and lex what follows
            error(
                f"unexpected character {text[pos]!r}",
                SourceLocation(file, line, pos - line_start + 1),
            )
            pos += 1
            at_start = space = False
            continue
        kind = m.lastindex
        end = m.end()
        if kind == 1 or kind == 4:
            space = True
        elif kind == 3:
            line += 1
            line_start = end
            at_start, space = True, False
        elif kind == 2:
            line += 1
            line_start = end
            space = True
        elif kind == 5:
            close = text.find("*/", end)
            if close < 0:
                # recovery: the truncated comment swallows the rest
                error(
                    "unterminated block comment",
                    SourceLocation(file, line, pos - line_start + 1),
                )
                end = n
            else:
                end = close + 2
            space = True
        else:
            loc = SourceLocation(file, line, pos - line_start + 1)
            if kind == 8:
                quote = m.group(8)
                lit = _LITERAL[quote].match(text, end)
                end = lit.end()
                tok_text = text[pos:end]
                if lit.group(1) is None:
                    # recovery: the literal ends at the line break (or EOF)
                    kind_name = "string" if quote == '"' else "character"
                    error(f"unterminated {kind_name} literal", loc)
                    tok_text += quote
                tok_kind = TokenKind.STRING if quote == '"' else TokenKind.CHAR
                append(Token(tok_kind, tok_text, loc, at_start, space))
            else:
                append(Token(_KIND[kind], m.group(kind), loc, at_start, space))
            at_start = space = False
        if kind == 5 or kind == 8:  # block comments and literals can span lines
            breaks = text.count("\n", pos, end)
            if breaks:
                line += breaks
                line_start = text.rindex("\n", pos, end) + 1
        pos = end
    eof_loc = SourceLocation(file, line, n - line_start + 1)
    append(Token(TokenKind.EOF, "", eof_loc, at_start, space))
    return out
