"""PDB reader: ASCII text -> document.

Tolerant by design (the format is meant to be hand-inspectable and
hand-editable): unknown attribute keys are preserved verbatim, blank
lines between items are optional, and attribute lines may appear in any
order.  Malformed structure (no header, attribute before any item)
raises :class:`PdbParseError`.

Two parsing paths share one grammar:

* the default fast path scans each line with ``str.partition``/slice
  operations and no per-line regexes, interning attribute keys and item
  prefixes so every ``rloc`` in a million-line database is the same
  string object (``strict=False``).  Attribute lines are stored
  unparsed on their item and materialised on first
  ``RawItem.attributes`` access, so parse time is O(lines) while the
  attribute-object cost is paid only for items a consumer touches.  On
  structurally invalid input it re-parses through the reference path so
  the raised :class:`PdbParseError` (message and line number) is
  identical;
* the original regex pair is retained behind ``strict=True`` as the
  reference implementation — CI runs a differential fuzz of the two
  over the E12 corpus.

The fast path requires item ids to be ASCII digits (the writer only
ever emits ASCII); the regex path additionally accepts Unicode digits
via ``\\d``, which no real database contains.
"""

from __future__ import annotations

import re
import sys
from typing import Optional

from repro.pdbfmt.items import Attribute, PdbDocument, RawItem
from repro.pdbfmt.spec import ATTRIBUTE_SCHEMAS

_HEADER_RE = re.compile(r"^<PDB\s+([0-9.]+)>\s*$")
_ITEM_RE = re.compile(r"^(ferr|so|ro|cl|ty|te|na|ma)#(\d+)(?:\s+(.*))?$")

#: interned item prefixes — membership test and canonical object in one map
_PREFIXES = {p: sys.intern(p) for p in ("ferr", "so", "ro", "cl", "ty", "te", "na", "ma")}

#: interned attribute keys, shared with the writer and ``pdbmerge`` so a
#: parse -> write round trip does not re-allocate identical key strings
_KEY_INTERN: dict = {}

#: per-prefix ``raw key -> (interned key, is_text_grammar)``, filled
#: lazily so one dict probe per attribute line answers both questions
_KEY_INFO: dict = {p: {} for p in _PREFIXES}
_KEY_INFO[""] = {}

_WS = " \t\r\f\v\n"
_DIGITS = "0123456789"


def intern_key(key: str) -> str:
    """Return the canonical shared object for an attribute key."""
    cached = _KEY_INTERN.get(key)
    if cached is None:
        cached = _KEY_INTERN[key] = sys.intern(key)
    return cached


def _key_info(prefix: str, key: str, line: str) -> tuple:
    """Slow path for a not-yet-seen attribute key.

    Also the fast loop's duplicate-header detector: the loop itself
    never re-tests for ``<PDB`` once the header is consumed, so a
    mid-document header line lands here (its would-be key starts with
    ``<``) and bounces to the reference path via TypeError.  Keys
    starting with ``<`` are never cached for that reason."""
    if key[:1] == "<" and _HEADER_RE.match(line) is not None:
        raise TypeError  # duplicate <PDB> header
    ikey = intern_key(key)
    info = (ikey, ATTRIBUTE_SCHEMAS.get(prefix, {}).get(key) == "text")
    if ikey[:1] != "<":
        _KEY_INFO[prefix][ikey] = info
    return info


class PdbParseError(Exception):
    """Raised on structurally invalid PDB text.

    ``path`` names the file the text came from, when it came from one
    (:meth:`repro.ductape.pdb.PDB.read` sets it); the message then reads
    ``path:line: message`` instead of ``line N: message``."""

    def __init__(self, message: str, line_no: int):
        super().__init__(message, line_no)
        self.message = message
        self.line_no = line_no
        self.path: Optional[str] = None

    def __str__(self) -> str:
        where = f"line {self.line_no}" if self.path is None else f"{self.path}:{self.line_no}"
        return f"{where}: {self.message}"


def parse_pdb(text: str, strict: bool = False) -> PdbDocument:
    """Parse PDB text into a document.

    ``strict=True`` selects the regex reference path (tolerant
    error-reporting mode); the default fast path produces an identical
    document for any text the writer can emit."""
    if strict:
        return _parse_pdb_regex(text)
    # the header must be the first non-blank line; consuming it up front
    # frees the per-line loop from re-testing for it (duplicate headers
    # are caught by _key_info, whose would-be key starts with '<')
    lines = text.splitlines()
    start = 0
    n_lines = len(lines)
    while start < n_lines and not lines[start].rstrip():
        start += 1
    if start == n_lines:
        return _parse_pdb_regex(text)  # empty input
    m = _HEADER_RE.match(lines[start].rstrip())
    if m is None:
        return _parse_pdb_regex(text)  # content before <PDB> header
    doc = PdbDocument(version=m.group(1))
    doc_append = doc.items.append
    # attribute lines before the first item are rare structural errors,
    # so the loop does not test for them: the bound append starts as
    # None and calling it raises TypeError, which delegates to the
    # reference path for the exact PdbParseError (message, line number)
    current_raw = None  # bound append of the current item's raw attr lines
    prefixes = _PREFIXES
    new = RawItem.__new__
    item_cls = RawItem
    try:
        for line in map(str.rstrip, lines[start + 1 :]):
            if not line:
                continue
            # item lines look like "so#12 name" — the '#' sits after a
            # 2-char prefix (4 for ferr), which cheaply rules out nearly
            # every attribute line before paying for a partition + lookup
            if "#" in line[2:5]:
                head, sep, rest = line.partition("#")
                iprefix = prefixes.get(head)
                if iprefix is not None:
                    n = len(rest)
                    k = 0
                    while k < n and rest[k] in _DIGITS:
                        k += 1
                    if k and (k == n or rest[k] in _WS):
                        # the line was rstripped, so anything after the
                        # ws run is the (non-empty) name; k == n: no name
                        item = new(item_cls)
                        item.prefix = iprefix
                        item.id = int(rest[:k])
                        item.name = rest[k:].lstrip(_WS)
                        item._attrs = None
                        raw = item._raw = []
                        doc_append(item)
                        current_raw = raw.append
                        continue
            # attribute lines are *stored unparsed* — RawItem.attributes
            # materialises them on first access (via materialize_attrs),
            # so parse time is O(lines), not O(attribute objects).  A
            # line starting '<' may be a duplicate <PDB> header, which
            # strict mode rejects — bounce to the reference path now,
            # while laziness could otherwise swallow the error
            if line[0] == "<":
                raise TypeError
            current_raw(line)
    except TypeError:
        # structural error: the reference path raises the canonical
        # PdbParseError (or, if it can parse after all, its result is
        # correct by construction)
        return _parse_pdb_regex(text)
    return doc


def materialize_attrs(prefix: str, lines: list) -> list:
    """Parse an item's raw attribute lines (the fast path's deferred
    half, called from ``RawItem.attributes`` on first access)."""
    ki_get = _KEY_INFO[prefix].get
    out: list = []
    append = out.append
    new = Attribute.__new__
    attr_cls = Attribute
    for line in lines:
        key, _, rest = line.partition(" ")
        info = ki_get(key)
        if info is None:
            info = _key_info(prefix, key, line)
        a = new(attr_cls)
        a.key = info[0]
        if info[1]:
            a.text = rest
            a._words = []
            a._rest = None
        else:
            a.text = None
            a._words = None  # split lazily on first .words access
            a._rest = rest
        append(a)
    return out


def render_lines(prefix: str, lines: list, remap: Optional[dict] = None) -> list:
    """What :meth:`Attribute.render` gives for each of an item's raw
    attribute lines, without building the attributes.

    A word-grammar line is split and re-joined with single spaces, each
    word first mapped through ``remap`` (``word -> replacement``) when
    one is given; a text-grammar line (``fmsg``, ``cmem``, ``matext``,
    ``ttext``) keeps its value verbatim, so a ref-like word in a message
    is never remapped.  On rendered lines this is the identity, which is
    what keeps write∘parse a fixed point for unmaterialised items."""
    ki_get = _KEY_INFO[prefix].get
    out: list = []
    append = out.append
    for line in lines:
        key, _, rest = line.partition(" ")
        info = ki_get(key)
        if info is None:
            info = _key_info(prefix, key, line)
        if info[1]:
            append(f"{key} {rest}".rstrip())
            continue
        words = rest.split()
        if not words:
            append(key)
            continue
        if remap is not None:
            words = [remap.get(w, w) for w in words]
        append(key + " " + " ".join(words))
    return out


def _parse_pdb_regex(text: str) -> PdbDocument:
    """Reference implementation: one header + one item regex per line."""
    doc: PdbDocument | None = None
    current: RawItem | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            if doc is not None:
                raise PdbParseError("duplicate <PDB> header", line_no)
            doc = PdbDocument(version=m.group(1))
            continue
        if doc is None:
            raise PdbParseError("content before <PDB> header", line_no)
        m = _ITEM_RE.match(line)
        if m:
            prefix, num, name = m.group(1), int(m.group(2)), m.group(3) or ""
            current = RawItem(prefix=prefix, id=num, name=name)
            doc.items.append(current)
            continue
        if current is None:
            raise PdbParseError(f"attribute line outside an item: {line!r}", line_no)
        key, _, rest = line.partition(" ")
        grammar = ATTRIBUTE_SCHEMAS.get(current.prefix, {}).get(key)
        if grammar == "text":
            current.attributes.append(Attribute(key, text=rest))
        else:
            current.attributes.append(Attribute(key, words=rest.split()))
    if doc is None:
        raise PdbParseError("empty input: missing <PDB> header", 0)
    return doc
