"""Command-line plumbing shared by the PDB-reading tools."""

from __future__ import annotations

import sys
from typing import Optional

from repro.ductape.pdb import PDB
from repro.pdbfmt.reader import PdbParseError


def read_pdb(prog: str, path: str) -> Optional[PDB]:
    """Load one input PDB for a CLI, or report why it cannot be loaded.

    A missing or unreadable file, bytes that do not decode as text, or
    malformed PDB text prints one ``prog: error: ...`` line naming the
    file (and the line, for parse errors) to stderr and returns None;
    the caller exits 2."""
    try:
        return PDB.read(path)
    except (OSError, PdbParseError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        print(f"{prog}: error: {path}: cannot decode as {exc.encoding} ({reason})", file=sys.stderr)
    return None
