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
from repro.pdbfmt.reader import PdbParseError, parse_pdb
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

    Holds item key -> merged item, ODR key -> first definition, the
    per-prefix id counters and the accumulator's ref index.  It is built
    once from the accumulator and extended with every item a fold adds,
    so folding N documents costs time linear in their total size rather
    than re-keying the whole accumulator per fold.  An incoming item's
    keys are computed once, against the document it came from.

    :meth:`fold` only appends to the accumulator document; a :class:`PDB`
    already wrapping it must be re-indexed after the last fold.
    """

    def __init__(self, doc: PdbDocument):
        self.doc = doc
        self.index = index = doc.index()
        self.keys: dict[tuple, RawItem] = {}
        self.odr: dict[tuple, RawItem] = {}
        self.counters: dict[str, int] = {}
        for raw in doc.items:
            self.keys[_item_key(index, raw)] = raw
            okey = _odr_key(index, raw)
            if okey is not None:
                self.odr.setdefault(okey, raw)
            self.counters[raw.prefix] = max(self.counters.get(raw.prefix, 0), raw.id)

    def fold(self, other: PdbDocument, odr_log: Optional[list] = None) -> MergeStats:
        """Append ``other``'s items that are not here yet (with fresh
        ids and remapped refs); ``other`` itself is never modified."""
        stats = MergeStats(items_in=len(other.items))
        other_index = other.index()
        keys, odr, counters = self.keys, self.odr, self.counters
        remap: dict[str, str] = {}
        pending: list[RawItem] = []
        #: ODR keys first defined by this fold: their entry in ``odr`` is
        #: a clone whose refs still speak ``other``'s ids until the remap
        fresh_odr: set = set()
        for raw in other.items:
            key = _item_key(other_index, raw)
            existing = keys.get(key)
            if existing is not None:
                remap[str(raw.ref)] = str(existing.ref)
                stats.duplicates_eliminated += 1
                if raw.prefix in ("cl", "ro") and raw.get(
                    "ctempl" if raw.prefix == "cl" else "rtempl"
                ):
                    stats.duplicate_instantiations += 1
                continue
            counters[raw.prefix] = counters.get(raw.prefix, 0) + 1
            clone = RawItem(prefix=raw.prefix, id=counters[raw.prefix], name=raw.name)
            for a in raw.attributes:
                clone.attributes.append(a.clone())
            okey = _odr_key(other_index, raw)
            if okey is not None:
                prior = odr.get(okey)
                if prior is None:
                    odr[okey] = clone
                    fresh_odr.add(okey)
                else:
                    stats.odr_conflicts += 1
                    if odr_log is not None:
                        where = other_index if okey in fresh_odr else self.index
                        odr_log.append(
                            {
                                "kind": "routine" if raw.prefix == "ro" else "class",
                                "name": okey[1],
                                "existing": _loc_str(where, prior),
                                "incoming": _loc_str(other_index, raw),
                            }
                        )
            remap[str(raw.ref)] = str(clone.ref)
            pending.append(clone)
            keys[key] = clone
            stats.items_added += 1
        # remap keys are exactly the ``prefix#id`` spellings of incoming
        # refs: any word that could hit a key *is* a ref spelling, and
        # every other word misses and passes through
        remap_get = remap.get
        items, index = self.doc.items, self.index
        for clone in pending:
            for a in clone.attributes:
                a.words = [remap_get(w, w) for w in a.words]
            items.append(clone)
            index[clone.ref] = clone
        return stats


def _item_key(index: dict, raw: RawItem) -> tuple:
    """Identity key for merge deduplication.

    Two items from separate compilations are "the same entity" when their
    kind, name, and defining source position coincide — template
    instantiations share the template's definition position, so repeated
    ``Stack<int>`` subtrees collapse (the paper's headline merge feature).
    """
    loc_key = _loc_key(index, raw)
    if raw.prefix == "so":
        return ("so", raw.name)
    if raw.prefix == "ty":
        return ("ty", raw.name, _parent_name(index, raw, "yclass", "ynspace"))
    if raw.prefix == "ma":
        return ("ma", raw.name, loc_key)
    if raw.prefix == "ferr":
        # one record per distinct (file, position, message): re-merging
        # the same failed TU does not duplicate its error list
        a = raw.get("fmsg")
        return ("ferr", raw.name, loc_key, a.text if a is not None else "")
    if raw.prefix == "na":
        return ("na", raw.name, _parent_name(index, raw, "", "nnspace"))
    if raw.prefix == "te":
        return ("te", raw.name, loc_key, raw.first_word("tkind"))
    if raw.prefix == "cl":
        return ("cl", raw.name, _parent_name(index, raw, "cclass", "cnspace"), loc_key)
    if raw.prefix == "ro":
        sig = raw.get_ref("rsig")
        sig_name = ""
        if sig is not None:
            sig_item = index.get(sig)
            sig_name = sig_item.name if sig_item is not None else ""
        return (
            "ro",
            raw.name,
            _parent_name(index, raw, "rclass", "rnspace"),
            sig_name,
            loc_key,
        )
    return (raw.prefix, raw.name, loc_key)


def _odr_key(index: dict, raw: RawItem) -> Optional[tuple]:
    """ODR identity: the *entity* a definition item defines, sans
    location.  Two items sharing an ODR key but not an item key are two
    different definitions of one entity — an ODR violation.

    Only definitions participate: routines with a known body position
    (declaration-only items are not definitions) and located classes.
    Internal-linkage (static) routines are exempt — one per TU is legal.
    """
    if raw.prefix == "ro":
        if raw.first_word("rstatic") == "yes" or raw.first_word("rstore") == "static":
            return None
        positions = raw.get_positions("rpos")
        if positions is None or len(positions) < 3 or positions[2].file is None:
            return None  # no body: a declaration, not a definition
        sig = raw.get_ref("rsig")
        sig_name = ""
        if sig is not None:
            sig_item = index.get(sig)
            sig_name = sig_item.name if sig_item is not None else ""
        return ("ro", raw.name, _parent_name(index, raw, "rclass", "rnspace"), sig_name)
    if raw.prefix == "cl":
        loc = raw.get_location("cloc")
        if loc is None or loc.file is None:
            return None
        return ("cl", raw.name, _parent_name(index, raw, "cclass", "cnspace"))
    return None


def _loc_str(index: dict, raw: RawItem) -> str:
    """``file:line`` of an item's defining location, for ODR logs."""
    for key in ("rloc", "cloc"):
        loc = raw.get_location(key)
        if loc is not None and loc.file is not None:
            f = index.get(loc.file)
            return f"{f.name if f is not None else '?'}:{loc.line}"
    return "?"


def _loc_key(index: dict, raw: RawItem) -> tuple:
    for key in ("rloc", "cloc", "tloc", "nloc", "maloc", "yloc", "floc"):
        loc = raw.get_location(key)
        if loc is not None and loc.file is not None:
            f = index.get(loc.file)
            return (f.name if f is not None else "?", loc.line, loc.column)
    return ()


def _parent_name(index: dict, raw: RawItem, class_key: str, ns_key: str) -> str:
    for key in (class_key, ns_key):
        if not key:
            continue
        ref = raw.get_ref(key)
        if ref is not None:
            parent = index.get(ref)
            if parent is not None:
                return f"{ref.prefix}:{parent.name}"
    return ""
