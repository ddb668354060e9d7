"""cxxparse — the front-end driver: C++ sources -> PDB file.

In the real PDT distribution this is the EDG front end invoked with the
used-instantiation option, piped into the IL Analyzer.  Here it is a
thin front on :mod:`repro.tools.pdbbuild`'s command line: one worker,
no cache, so compiling N sources still means N separate compilations
``pdbmerge``d into one database (the PDT build workflow) — ``pdbbuild``
is the same pipeline run parallel and incremental."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.tools.pdbbuild import build_to_file, parse_build_args, print_summary


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="cxxparse", description="compile C++ sources into a PDB file"
    )
    args, options = parse_build_args(
        ap,
        argv,
        source_help="translation unit(s); multiple TUs are compiled separately "
        "and pdbmerge'd into one database (the PDT build workflow)",
        passes_help="comma-separated analyzer traversals to run (so,te,na,cl,ro,ty,ma) "
        "— §3.1's 'selection of the constructs to be reported'",
    )
    built = build_to_file("cxxparse", args, options)
    if isinstance(built, int):
        return built
    print_summary(*built)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
