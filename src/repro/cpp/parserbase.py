"""Parser plumbing: token navigation, backtracking, error reporting.

All parser mixins (:mod:`typeparse`, :mod:`exprparse`, :mod:`stmtparse`,
:mod:`declparse`) operate on this shared state.  The token list is the
*whole* preprocessed translation unit; template definitions remember
``(start, end)`` index slices into it and are re-parsed through the same
machinery at instantiation time, which is how original source positions
survive into instantiated entities.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.scope import Binder
from repro.cpp.source import SourceLocation
from repro.cpp.tokens import KEYWORDS, Token, TokenKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpp.il import ILTree
    from repro.cpp.instantiate import InstantiationEngine

#: Keywords that can begin a decl-specifier sequence.
TYPE_KEYWORDS = frozenset(
    """
    void bool char wchar_t short int long float double signed unsigned
    const volatile class struct union enum typename
    """.split()
)

#: Storage/function specifiers that can precede a type.
DECL_SPECIFIERS = frozenset(
    "static extern inline virtual explicit mutable friend typedef register auto".split()
)
_WORDLIKE = (TokenKind.PUNCT, TokenKind.IDENT)  # kinds at/accept match by spelling


class ParserBase:
    """Token-cursor mechanics shared by the parser mixins."""

    def __init__(
        self,
        tokens: list[Token],
        tree: "ILTree",
        binder: Binder,
        sink: DiagnosticSink,
        engine: Optional["InstantiationEngine"] = None,
    ):
        self.tokens = tokens
        self.pos = 0
        self.tree = tree
        self.binder = binder
        self.sink = sink
        self.engine = engine
        self.types = tree.types

    # -- cursor -----------------------------------------------------------
    # ``tokens`` ends in EOF and ``advance`` never steps past it, so
    # ``tokens[pos]`` needs no bounds check.

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]  # EOF-clamped

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def loc(self) -> SourceLocation:
        return self.tokens[self.pos].location

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in _WORDLIKE

    def at_any(self, *texts: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text in texts and tok.kind in _WORDLIKE

    def accept(self, text: str) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in _WORDLIKE:
            self.pos += 1
            return tok
        return None

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text or tok.kind not in _WORDLIKE:
            raise CppError(f"expected {text!r}, found {tok.text!r}", tok.location)
        self.pos += 1
        return tok

    def expect_ident(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.IDENT or tok.text in KEYWORDS:
            raise CppError(f"expected identifier, found {tok.text!r}", tok.location)
        self.pos += 1
        return tok

    @property
    def at_eof(self) -> bool:
        return self.tokens[self.pos].kind is TokenKind.EOF

    def at_ident(self, text: Optional[str] = None) -> bool:
        return self.cur.kind is TokenKind.IDENT and (text is None or self.cur.text == text)

    def at_plain_ident(self) -> bool:
        return self.cur.kind is TokenKind.IDENT and self.cur.text not in KEYWORDS

    # -- backtracking -------------------------------------------------------

    def mark(self) -> int:
        return self.pos

    def rewind(self, mark: int) -> None:
        self.pos = mark

    # -- bracket skipping -----------------------------------------------------

    _CLOSERS = {"(": ")", "[": "]", "{": "}"}
    #: depth change per punctuator while skipping from each opener
    _NESTING = {
        **{o: {o: 1, c: -1} for o, c in _CLOSERS.items()},
        "<": {"<": 1, ">": -1, ">>": -2},
    }

    def skip_balanced(self, open_text: str) -> int:
        """With cursor on ``open_text``, skip to just past its matching
        closer; returns index of the closer token.  With ``<`` it skips
        template headers and argument lists only (no expression ambiguity
        there), where ``>>`` closes two levels."""
        nesting = self._NESTING[open_text]
        start_loc = self.cur.location
        self.expect(open_text)
        tokens, i, depth = self.tokens, self.pos, 1
        while depth > 0:
            t = tokens[i]
            if t.kind is TokenKind.PUNCT:
                depth += nesting.get(t.text, 0)
            elif t.kind is TokenKind.EOF:
                self.pos = i
                raise CppError(f"unbalanced {open_text!r}", start_loc)
            i += 1
        self.pos = i
        return i - 1

    def skip_to_semicolon(self) -> None:
        """Error recovery: skip to just past the next ``;`` at depth 0."""
        depth = 0
        while not self.at_eof:
            t = self.cur
            if t.is_punct(";") and depth == 0:
                self.advance()
                return
            if t.text in self._CLOSERS:
                depth += 1
            elif t.text in (")", "]", "}"):
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    # -- classification ---------------------------------------------------------

    def starts_decl_specifier(self) -> bool:
        """Token-level check: could the current token begin a type?"""
        t = self.cur
        if t.kind is not TokenKind.IDENT:
            return t.is_punct("::")
        return t.text in TYPE_KEYWORDS or t.text in DECL_SPECIFIERS
