"""The PDB class: an entire program database (paper Section 3.3).

"It provides methods to read, write, and merge PDB files, and to get the
source file inclusion tree, the static call tree, and the class
hierarchy.  It provides a list of all items contained in the PDB file as
well as lists of all defined types, files, classes, routines, templates,
macros, and namespaces."
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Optional

from repro.ductape.items import (
    ITEM_CLASSES,
    PdbClass,
    PdbFerr,
    PdbFile,
    PdbMacro,
    PdbNamespace,
    PdbRoutine,
    PdbSimpleItem,
    PdbTemplate,
    PdbType,
)
from repro.pdbfmt.items import ItemRef, PdbDocument, RawItem
from repro.pdbfmt.reader import PdbParseError, parse_pdb, render_lines
from repro.pdbfmt.writer import write_pdb


@dataclass
class MergeStats:
    """Outcome of one :meth:`PDB.merge` call."""

    items_in: int = 0
    items_added: int = 0
    duplicates_eliminated: int = 0
    duplicate_instantiations: int = 0
    #: incoming *definition* items whose entity already had a different
    #: definition here — One-Definition-Rule conflicts (see ``odr_log``)
    odr_conflicts: int = 0

    def __add__(self, other: "MergeStats") -> "MergeStats":
        """Field-wise sum: ``sum(per_fold, MergeStats())`` totals a merge."""
        return MergeStats(*(a + b for a, b in zip(astuple(self), astuple(other))))


class PDB:
    """An entire PDB file, with navigation and merge support."""

    def __init__(self, doc: Optional[PdbDocument] = None):
        self.doc = doc or PdbDocument()
        #: wrappers materialised on first access, keyed by ItemRef —
        #: loading a database costs only the raw id index; tools that
        #: touch one routine never pay for the other thousand wrappers
        self._wrappers: dict[ItemRef, PdbSimpleItem] = {}
        self._raw: dict[str, dict[int, RawItem]] = {}
        self._reindex()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "PDB":
        return cls(parse_pdb(text))

    @classmethod
    def read(cls, path: str) -> "PDB":
        """Load a PDB file; a :class:`PdbParseError` names ``path``."""
        with open(path) as f:
            text = f.read()
        try:
            return cls.from_text(text)
        except PdbParseError as exc:
            exc.path = path
            raise

    @classmethod
    def from_il(cls, tree) -> "PDB":
        """Convenience: run the IL Analyzer and wrap the result."""
        from repro.analyzer import analyze

        return cls(analyze(tree))

    def _reindex(self) -> None:
        """Rebuild the raw id index and drop materialised wrappers
        (wrappers cache resolved cross-references, which merge can
        invalidate).  Deliberately cheap: no ItemRef or wrapper is
        created here — both happen lazily on first access."""
        self._wrappers.clear()
        self._callees: Optional[dict[ItemRef, list[PdbRoutine]]] = None
        self._callers: Optional[dict[ItemRef, list[PdbRoutine]]] = None
        self._derived: Optional[dict[ItemRef, list[PdbClass]]] = None
        raw_index: dict[str, dict[int, RawItem]] = {}
        for raw in self.doc.items:
            sub = raw_index.get(raw.prefix)
            if sub is None:
                sub = raw_index[raw.prefix] = {}
            sub[raw.id] = raw
        self._raw = raw_index

    def materialize(self) -> int:
        """Force every wrapper into existence (the eager-load behaviour
        lazy loading replaced) and return the item count.  Tools that
        will touch the whole database anyway can call this up front."""
        return len(self.items())

    # -- output ------------------------------------------------------------

    def to_text(self) -> str:
        return write_pdb(self.doc)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_text())

    # -- lookup -------------------------------------------------------------

    def item(self, ref: ItemRef) -> Optional[PdbSimpleItem]:
        if ref is None:
            return None
        w = self._wrappers.get(ref)
        if w is None:
            sub = self._raw.get(ref.prefix)
            raw = sub.get(ref.id) if sub is not None else None
            if raw is None:
                return None
            w = ITEM_CLASSES.get(ref.prefix, PdbSimpleItem)(self, raw)
            self._wrappers[ref] = w
        return w

    def items(self) -> list[PdbSimpleItem]:
        item = self.item
        return [item(raw.ref) for raw in self.doc.items]

    def _vec(self, prefix: str) -> list:
        item = self.item
        return [item(raw.ref) for raw in self.doc.items if raw.prefix == prefix]

    def getFileVec(self) -> list[PdbFile]:
        return self._vec("so")

    def getRoutineVec(self) -> list[PdbRoutine]:
        return self._vec("ro")

    def getClassVec(self) -> list[PdbClass]:
        return self._vec("cl")

    def getTypeVec(self) -> list[PdbType]:
        return self._vec("ty")

    def getTemplateVec(self) -> list[PdbTemplate]:
        return self._vec("te")

    def getNamespaceVec(self) -> list[PdbNamespace]:
        return self._vec("na")

    def getMacroVec(self) -> list[PdbMacro]:
        return self._vec("ma")

    def getErrorVec(self) -> list[PdbFerr]:
        """All frontend error records (``ferr``), in file order."""
        return self._vec("ferr")

    def errors_of(self, f: PdbFile) -> list[PdbFerr]:
        """The ``ferr`` records whose diagnostics point into ``f``."""
        return [e for e in self.getErrorVec() if e.file() is f]

    def findRoutine(self, full_name: str) -> Optional[PdbRoutine]:
        for r in self.getRoutineVec():
            if r.fullName() == full_name or r.name() == full_name:
                return r
        return None

    def findClass(self, name: str) -> Optional[PdbClass]:
        for c in self.getClassVec():
            if c.fullName() == name or c.name() == name:
                return c
        return None

    # -- derived structure queries ----------------------------------------------

    # the call and class maps are built on first use and dropped by
    # _reindex (a merge invalidates them); each reverse list keeps
    # routine/class order with no duplicates, exactly what a scan over
    # the vector would return

    def callees_map(self) -> dict[ItemRef, list[PdbRoutine]]:
        """routine ref -> its resolved callees, one per ``rcall`` record
        that resolves, in record order."""
        if self._callees is None:
            self._callees = {
                r.ref: [
                    callee
                    for callee in (c.call() for c in r.callees())
                    if callee is not None
                ]
                for r in self.getRoutineVec()
            }
        return self._callees

    def callers_map(self) -> dict[ItemRef, list[PdbRoutine]]:
        """callee ref -> the routines whose ``rcall`` records resolve to it."""
        if self._callers is None:
            m: dict[ItemRef, list[PdbRoutine]] = {}
            callees = self.callees_map()
            for r in self.getRoutineVec():
                for callee in callees[r.ref]:
                    callers = m.setdefault(callee.ref, [])
                    if not callers or callers[-1] is not r:
                        callers.append(r)
            self._callers = m
        return self._callers

    def derived_map(self) -> dict[ItemRef, list[PdbClass]]:
        """base-class ref -> the classes deriving directly from it."""
        if self._derived is None:
            m: dict[ItemRef, list[PdbClass]] = {}
            for c in self.getClassVec():
                for _acs, _virt, base in c.baseClasses():
                    derived = m.setdefault(base.ref, [])
                    if not derived or derived[-1] is not c:
                        derived.append(c)
            self._derived = m
        return self._derived

    def callers_of(self, routine: PdbRoutine) -> list[PdbRoutine]:
        if self.item(routine.ref) is not routine:
            return []  # not one of this database's wrappers
        return list(self.callers_map().get(routine.ref, ()))

    def derived_of(self, cls: PdbClass) -> list[PdbClass]:
        if self.item(cls.ref) is not cls:
            return []
        return list(self.derived_map().get(cls.ref, ()))

    def getInclusionTree(self):
        from repro.ductape.inclusion import InclusionTree

        return InclusionTree(self)

    def getCallTree(self):
        from repro.ductape.callgraph import CallTree

        return CallTree(self)

    def getClassHierarchy(self):
        from repro.ductape.classhier import ClassHierarchy

        return ClassHierarchy(self)

    # -- merge ------------------------------------------------------------------

    def merge(self, other: "PDB", odr_log: Optional[list] = None) -> MergeStats:
        """Merge ``other`` into this PDB, eliminating duplicate items —
        in particular duplicate template instantiations from separate
        compilations (paper Table 2, pdbmerge).

        One-Definition-Rule bookkeeping rides along: an incoming
        *definition* item (a routine with a body, a located class) whose
        entity already has a *different* definition here bumps
        ``odr_conflicts``; pass ``odr_log`` (a list) to also collect one
        detail dict per conflict (``pdbmerge --check`` prints these).

        A single merge indexes this whole database first; to fold many
        inputs, keep one :class:`MergeIndex` across them instead
        (:func:`repro.tools.pdbmerge.merge_pdbs`).
        """
        stats = MergeIndex(self.doc).fold(other.doc, odr_log)
        self._reindex()
        return stats


class MergeIndex:
    """The accumulator side of a merge, kept across folds.

    Holds item key -> merged item's ref spelling, ODR key -> first
    definition, the per-prefix id counters and the accumulator's
    ``"prefix#id" -> name`` map.  It is built once from the accumulator
    and extended with every item a fold adds, so folding N documents
    costs time linear in their total size rather than re-keying the
    whole accumulator per fold.  An incoming item's keys are computed
    once, against the document it came from.

    Keys come from each item's attribute *lines* (:meth:`RawItem.lines`:
    the reader's unparsed lines, or a materialised item's attributes
    rendered), through a first-value-per-key scan; refs resolve through
    the name maps.  No attribute object is built for an item, duplicate
    or kept: a kept item is cloned as its lines with the refs remapped.

    :meth:`fold` only appends to the accumulator document; a :class:`PDB`
    already wrapping it must be re-indexed after the last fold.
    """

    def __init__(self, doc: PdbDocument):
        self.doc = doc
        spellings, self.names = _names(doc.items)
        self.keys: dict[tuple, str] = {}
        self.odr: dict[tuple, RawItem] = {}
        self.counters: dict[str, int] = {}
        for spelling, raw in zip(spellings, doc.items):
            first = _first_values(raw.lines())
            self.keys[_item_key(raw.prefix, raw.name, first, self.names)] = spelling
            okey = _odr_key(raw.prefix, raw.name, first, self.names)
            if okey is not None:
                self.odr.setdefault(okey, raw)
            self.counters[raw.prefix] = max(self.counters.get(raw.prefix, 0), raw.id)

    def fold(self, other: PdbDocument, odr_log: Optional[list] = None) -> MergeStats:
        """Append ``other``'s items that are not here yet (with fresh
        ids and remapped refs); ``other`` itself is never modified."""
        stats = MergeStats(items_in=len(other.items))
        spellings, other_names = _names(other.items)
        keys, odr, counters, names = self.keys, self.odr, self.counters, self.names
        remap: dict[str, str] = {}
        pending: list[tuple[RawItem, RawItem, list]] = []  # (incoming, clone, its lines)
        #: ODR keys first defined by this fold -> the incoming definition:
        #: its clone's lines are not written (remapped) until the fold ends
        fresh_odr: dict[tuple, RawItem] = {}
        for spelling, raw in zip(spellings, other.items):
            prefix = raw.prefix
            first = _first_values(raw.lines())
            key = _item_key(prefix, raw.name, first, other_names)
            existing = keys.get(key)
            if existing is not None:
                remap[spelling] = existing
                stats.duplicates_eliminated += 1
                if (prefix == "cl" and "ctempl" in first) or (prefix == "ro" and "rtempl" in first):
                    stats.duplicate_instantiations += 1
                continue
            counters[prefix] = counters.get(prefix, 0) + 1
            lines: list[str] = []  # written once every remap target is known
            clone = RawItem.from_lines(prefix, counters[prefix], raw.name, lines)
            okey = _odr_key(prefix, raw.name, first, other_names)
            if okey is not None:
                prior = odr.get(okey)
                if prior is None:
                    odr[okey] = clone
                    fresh_odr[okey] = raw
                else:
                    stats.odr_conflicts += 1
                    if odr_log is not None:
                        fresh = fresh_odr.get(okey)
                        odr_log.append(
                            {
                                "kind": "routine" if prefix == "ro" else "class",
                                "name": okey[1],
                                "existing": _loc_str(names, prior)
                                if fresh is None
                                else _loc_str(other_names, fresh),
                                "incoming": _loc_str(other_names, raw),
                            }
                        )
            remap[spelling] = keys[key] = f"{prefix}#{clone.id}"
            pending.append((raw, clone, lines))
            stats.items_added += 1
        # remap keys are exactly the ``prefix#id`` spellings of incoming
        # refs: any word that could hit a key *is* a ref spelling, and
        # every other word misses and passes through
        append = self.doc.items.append
        for raw, clone, lines in pending:
            lines.extend(render_lines(raw.prefix, raw.lines(), remap))
            append(clone)
            names[f"{clone.prefix}#{clone.id}"] = clone.name
        return stats


#: attribute keys holding an item's defining location, in the order
#: merge keys look for the first known one
_LOC_KEYS = ("rloc", "cloc", "tloc", "nloc", "maloc", "yloc", "floc")


def _names(items: list[RawItem]) -> tuple[list[str], dict[str, str]]:
    """Each item's ref spelling (``cl#3``), and spelling -> item name
    (the last item wins a repeated id)."""
    spellings = [f"{i.prefix}#{i.id}" for i in items]
    return spellings, dict(zip(spellings, [i.name for i in items]))


def _first_values(lines: list[str]) -> dict[str, str]:
    """Attribute key -> the value text of its first line."""
    first: dict[str, str] = {}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key not in first:
            first[key] = rest
    return first


def _first_word(value: Optional[str]) -> Optional[str]:
    words = value.split(None, 1) if value is not None else None
    return words[0] if words else None


def _name_of(names: dict[str, str], word: str) -> Optional[str]:
    """Name of the item ``word`` refers to; None for NULL or a dangling ref."""
    name = names.get(word)
    if name is None and word != "NULL":
        # a spelling the writer never emits (``so#06``); a word that is
        # no ref at all raises ValueError, as DUCTAPE's resolution does
        ref = ItemRef.parse(word)
        name = names.get(f"{ref.prefix}#{ref.id}")
    return name


def _item_key(prefix: str, name: str, first: dict[str, str], names: dict[str, str]) -> tuple:
    """Identity key for merge deduplication, from an item's first
    attribute values (:func:`_first_values`), resolved in ``names``.

    Two items from separate compilations are "the same entity" when their
    kind, name, and defining source position coincide — template
    instantiations share the template's definition position, so repeated
    ``Stack<int>`` subtrees collapse (the paper's headline merge feature).
    """
    if prefix == "so":
        return ("so", name)
    if prefix == "ty":
        return ("ty", name, _parent_name(first, names, ("yclass", "ynspace")))
    if prefix == "na":
        return ("na", name, _parent_name(first, names, ("nnspace",)))
    loc_key = _loc_key(first, names)
    if prefix == "ma":
        return ("ma", name, loc_key)
    if prefix == "ferr":
        # one record per distinct (file, position, message): re-merging
        # the same failed TU does not duplicate its error list
        return ("ferr", name, loc_key, first.get("fmsg", ""))
    if prefix == "te":
        return ("te", name, loc_key, _first_word(first.get("tkind")))
    if prefix == "cl":
        return ("cl", name, _parent_name(first, names, ("cclass", "cnspace")), loc_key)
    if prefix == "ro":
        return (
            "ro",
            name,
            _parent_name(first, names, ("rclass", "rnspace")),
            _sig_name(first, names),
            loc_key,
        )
    return (prefix, name, loc_key)


def _odr_key(
    prefix: str, name: str, first: dict[str, str], names: dict[str, str]
) -> Optional[tuple]:
    """ODR identity: the *entity* a definition item defines, sans
    location.  Two items sharing an ODR key but not an item key are two
    different definitions of one entity — an ODR violation.

    Only definitions participate: routines with a known body position
    (declaration-only items are not definitions) and located classes.
    Internal-linkage (static) routines are exempt — one per TU is legal.
    """
    if prefix == "ro":
        if _first_word(first.get("rstatic")) == "yes":
            return None
        if _first_word(first.get("rstore")) == "static":
            return None
        pos = first.get("rpos")
        words = pos.split() if pos is not None else ()
        # rpos holds four locations; the third is the body's start
        if len(words) < 9 or words[6] == "NULL":
            return None  # no body: a declaration, not a definition
        parent = _parent_name(first, names, ("rclass", "rnspace"))
        return ("ro", name, parent, _sig_name(first, names))
    if prefix == "cl":
        loc = first.get("cloc")
        words = loc.split() if loc is not None else ()
        if len(words) < 3 or words[0] == "NULL":
            return None
        return ("cl", name, _parent_name(first, names, ("cclass", "cnspace")))
    return None


def _loc_str(names: dict[str, str], raw: RawItem) -> str:
    """``file:line`` of an item's defining location, for ODR logs."""
    loc = _loc_key(_first_values(raw.lines()), names, ("rloc", "cloc"))
    return f"{loc[0]}:{loc[1]}" if loc else "?"


def _loc_key(first: dict[str, str], names: dict[str, str], keys: tuple = _LOC_KEYS) -> tuple:
    """(file name, line, column) of the first of ``keys`` with a known file."""
    for key in keys:
        value = first.get(key)
        if value is not None:
            words = value.split()
            if len(words) >= 3 and words[0] != "NULL":
                f = _name_of(names, words[0])
                return (f if f is not None else "?", int(words[1]), int(words[2]))
    return ()


def _parent_name(first: dict[str, str], names: dict[str, str], keys: tuple) -> str:
    """``prefix:name`` of the first of ``keys`` that refers to an item."""
    for key in keys:
        word = _first_word(first.get(key))
        if word is not None:
            parent = _name_of(names, word)
            if parent is not None:
                return f"{word.partition('#')[0]}:{parent}"
    return ""


def _sig_name(first: dict[str, str], names: dict[str, str]) -> str:
    """Name of the routine's signature type, or ``""``."""
    word = _first_word(first.get("rsig"))
    return (_name_of(names, word) or "") if word is not None else ""
