"""Reference merge: the attribute-based keying and fold, kept only as a
differential oracle for :class:`repro.ductape.pdb.MergeIndex`.

Every incoming item is keyed through its materialised
:class:`~repro.pdbfmt.items.Attribute` objects (``get_location``,
``get_ref``, ``get_positions``) against an ``ItemRef -> RawItem`` index
of its document, and a kept item is cloned attribute by attribute.  That
is slow but easy to audit.  The production merge keys and clones the
reader's unparsed lines instead; it must produce exactly this fold's
merged text, per-fold :class:`~repro.ductape.pdb.MergeStats` and
``odr_log`` (``tests/test_merge_differential.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.ductape.pdb import PDB, MergeStats
from repro.pdbfmt.items import Attribute, PdbDocument, RawItem


def reference_merge_pdbs(
    pdbs: list[PDB], odr_log: Optional[list] = None
) -> tuple[PDB, list[MergeStats]]:
    """Fold a list of PDBs left-to-right into a fresh merged PDB."""
    if not pdbs:
        return PDB(), []
    doc = _clone(pdbs[0].doc)
    index = ReferenceMergeIndex(doc)
    stats = [index.fold(other.doc, odr_log) for other in pdbs[1:]]
    return PDB(doc), stats


def _clone(doc: PdbDocument) -> PdbDocument:
    """Deep-copy a document (same ids, names, attribute order)."""
    copy = PdbDocument(version=doc.version)
    for raw in doc.items:
        item = RawItem(prefix=raw.prefix, id=raw.id, name=raw.name)
        for a in raw.attributes:
            item.attributes.append(_clone_attr(a))
        copy.items.append(item)
    return copy


def _clone_attr(a: Attribute) -> Attribute:
    return Attribute(a.key, words=list(a.words), text=a.text)


def _index(doc: PdbDocument) -> dict:
    """``ItemRef -> RawItem``; the last item wins a repeated id."""
    return {i.ref: i for i in doc.items}


class ReferenceMergeIndex:
    """Item key -> merged item, ODR key -> first definition, per-prefix
    id counters and the accumulator's ``ItemRef -> RawItem`` index."""

    def __init__(self, doc: PdbDocument):
        self.doc = doc
        self.index = index = _index(doc)
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
        stats = MergeStats(items_in=len(other.items))
        other_index = _index(other)
        keys, odr, counters = self.keys, self.odr, self.counters
        remap: dict[str, str] = {}
        pending: list[RawItem] = []
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
                clone.attributes.append(_clone_attr(a))
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
        remap_get = remap.get
        items, index = self.doc.items, self.index
        for clone in pending:
            for a in clone.attributes:
                a.words = [remap_get(w, w) for w in a.words]
            items.append(clone)
            index[clone.ref] = clone
        return stats


def _item_key(index: dict, raw: RawItem) -> tuple:
    loc_key = _loc_key(index, raw)
    if raw.prefix == "so":
        return ("so", raw.name)
    if raw.prefix == "ty":
        return ("ty", raw.name, _parent_name(index, raw, "yclass", "ynspace"))
    if raw.prefix == "ma":
        return ("ma", raw.name, loc_key)
    if raw.prefix == "ferr":
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
    if raw.prefix == "ro":
        if raw.first_word("rstatic") == "yes" or raw.first_word("rstore") == "static":
            return None
        positions = raw.get_positions("rpos")
        if positions is None or len(positions) < 3 or positions[2].file is None:
            return None
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
