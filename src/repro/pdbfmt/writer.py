"""PDB writer: document -> compact ASCII text (paper Figure 3's format)."""

from __future__ import annotations

from repro import obs
from repro.pdbfmt.items import PdbDocument
from repro.pdbfmt.reader import intern_key, render_lines


def write_pdb(doc: PdbDocument) -> str:
    """Render a document in the compact PDB format.

    Item records are separated by blank lines; attribute order within an
    item is preserved, so the writer is a deterministic function of the
    document and reparse→rewrite is the identity.

    An item whose attributes were never materialised (the reader's and
    the merge's items) is written from its unparsed lines, normalised
    exactly as its attributes would render (:func:`render_lines`).

    As a side effect every materialised attribute key is canonicalised
    into the reader's interned key table — documents built in memory
    (analyzer output) end up sharing one string object per distinct key
    with everything the reader parses."""
    with obs.observe("pdb.write", cat="pdbfmt", items=len(doc.items)):
        lines: list[str] = [f"<PDB {doc.version}>", ""]
        append = lines.append
        for item in doc.items:
            name = item.name if item.name else "<anon>"
            append(f"{item.prefix}#{item.id} {name}")
            raw = item._raw
            if raw is not None:
                lines.extend(render_lines(item.prefix, raw))
            else:
                for attr in item.attributes:
                    attr.key = intern_key(attr.key)
                    append(attr.render())
            append("")
        return "\n".join(lines)
