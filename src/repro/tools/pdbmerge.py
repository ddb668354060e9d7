"""pdbmerge — merge PDB files from separate compilations into one,
eliminating duplicate template instantiations in the process (paper
Table 2).

:func:`merge_pdbs` is the one merge: a left fold of every input into a
private copy of the first, through one :class:`~repro.ductape.pdb.MergeIndex`
that the accumulator keeps across folds (item keys, ODR keys, id
counters, ref index).  Each fold costs time in proportion to its own
input, so merging N per-TU databases is linear in their total size.
Per-fold :class:`MergeStats` and the ``odr_log`` of ``--check`` come
out of the same fold.  ``PDB.merge`` runs the same code for one pair.
"""

from __future__ import annotations

import argparse
from typing import Optional, Union

from repro.ductape.pdb import PDB, MergeIndex, MergeStats
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.tools.cli import read_pdb


def _clone(doc: PdbDocument) -> PdbDocument:
    """Copy a document (same ids, names, attribute lines — identical text)
    without materialising its attributes."""
    return PdbDocument(
        version=doc.version,
        items=[RawItem.from_lines(i.prefix, i.id, i.name, list(i.lines())) for i in doc.items],
    )


def merge_pdbs(
    inputs: list[Union[PDB, PdbDocument]], odr_log: Optional[list] = None
) -> tuple[PDB, list[MergeStats]]:
    """Fold a list of PDBs (or parsed documents) left-to-right into one
    *fresh* merged PDB.

    The inputs are never modified — the first is copied before the
    others are folded in — so callers can keep reusing them (the
    pdbbuild cache hands out the same parsed per-TU PDBs repeatedly).
    Returns one :class:`MergeStats` per folded input.  Pass ``odr_log``
    (a list) to collect One-Definition-Rule conflict details across all
    the folds (``--check``).
    """
    docs = [p.doc if isinstance(p, PDB) else p for p in inputs]
    if not docs:
        return PDB(), []
    doc = _clone(docs[0])
    index = MergeIndex(doc)
    stats = [index.fold(other, odr_log) for other in docs[1:]]
    return PDB(doc), stats


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbmerge",
        description="merge PDB files, eliminating duplicate template instantiations",
    )
    ap.add_argument("inputs", nargs="+", help="PDB files to merge")
    ap.add_argument("-o", "--output", required=True, help="merged output PDB")
    ap.add_argument(
        "--check",
        action="store_true",
        help="report cross-TU One-Definition-Rule conflicts found while merging",
    )
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)
    pdbs = [read_pdb(ap.prog, p) for p in args.inputs]
    if None in pdbs:
        return 2
    odr_log: Optional[list] = [] if args.check else None
    merged, stats = merge_pdbs(pdbs, odr_log=odr_log)
    merged.write(args.output)
    if args.verbose:
        for path, st in zip(args.inputs[1:], stats):
            print(
                f"{path}: {st.items_in} items in, {st.items_added} added, "
                f"{st.duplicates_eliminated} duplicates eliminated "
                f"({st.duplicate_instantiations} template instantiations)"
            )
    if args.check:
        total = sum(st.odr_conflicts for st in stats)
        print(f"ODR conflicts: {total}")
        for c in odr_log or []:
            print(
                f"  {c['kind']} '{c['name']}': defined at {c['existing']} "
                f"and {c['incoming']}"
            )
    print(f"{args.output}: {len(merged.doc.items)} items")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
