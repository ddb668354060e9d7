"""pdbcheck — whole-program static-analysis checks over PDB files.

Runs the :mod:`repro.check` pass suite (dead code, template bloat,
cross-TU ODR, hierarchy lints, include lints) over one PDB, or over the
merge of several (so cross-TU checks see the whole program), and
reports as human text, JSON (``pdbcheck-findings/1``), or SARIF 2.1.0.

Exit codes: 0 — clean (or findings below ``--fail-on``); 1 — findings
at or above the ``--fail-on`` severity; 2 — usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.check import (
    Suppressions,
    all_checks,
    render_json,
    render_sarif,
    render_text,
    resolve_selection,
    run_checks,
)
from repro.check.core import SEVERITIES
from repro.tools.cli import read_pdb
from repro.tools.pdbmerge import merge_pdbs


def list_rules() -> str:
    """One line per registered rule: id, name, severity, check, summary."""
    lines = []
    for check in all_checks():
        for r in check.rules:
            lines.append(f"{r.id}  {r.name:28s} {r.severity:8s} [{check.name}] {r.summary}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point."""
    ap = argparse.ArgumentParser(
        prog="pdbcheck",
        description="whole-program static-analysis checks over PDB files",
    )
    ap.add_argument(
        "inputs", nargs="*", help="PDB file(s); several are merged before checking"
    )
    ap.add_argument(
        "--checks",
        default="all",
        metavar="LIST",
        help="comma list of check names, rule ids, or rule names (default: all)",
    )
    ap.add_argument(
        "--entry",
        action="append",
        default=[],
        metavar="NAME",
        help="extra entry-point routine for reachability (repeatable; main is implicit)",
    )
    ap.add_argument(
        "--select",
        metavar="FILE",
        help="TAU select-file with suppression include/exclude lists",
    )
    ap.add_argument(
        "-f",
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    ap.add_argument("-o", "--output", help="write the report here instead of stdout")
    ap.add_argument(
        "--fail-on",
        choices=SEVERITIES,
        default="warning",
        help="exit 1 when findings reach this severity (default: warning)",
    )
    ap.add_argument(
        "--list-rules", action="store_true", help="list every rule and exit"
    )
    ap.add_argument(
        "-v", "--verbose", action="store_true", help="per-check timings (text format)"
    )
    args = ap.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0
    if not args.inputs:
        ap.print_usage(sys.stderr)
        print("pdbcheck: error: no input PDB files", file=sys.stderr)
        return 2

    try:
        resolve_selection(args.checks)
    except ValueError as e:
        print(f"pdbcheck: error: {e}", file=sys.stderr)
        return 2

    suppressions = None
    if args.select:
        try:
            suppressions = Suppressions.load(args.select)
        except (OSError, ValueError) as e:
            print(f"pdbcheck: error: {args.select}: {e}", file=sys.stderr)
            return 2

    pdbs = [read_pdb(ap.prog, p) for p in args.inputs]
    if None in pdbs:
        return 2
    pdb, _merge_stats = merge_pdbs(pdbs) if len(pdbs) > 1 else (pdbs[0], [])

    report = run_checks(
        pdb, select=args.checks, entries=args.entry, suppressions=suppressions
    )

    if args.format == "text":
        out = render_text(report, verbose=args.verbose)
    elif args.format == "json":
        out = render_json(report)
    else:
        out = render_sarif(report)
    if args.output:
        with open(args.output, "w") as f:
            f.write(out + "\n")
    else:
        print(out)

    return 1 if report.fails(args.fail_on) else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
