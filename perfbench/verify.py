"""Correctness checks for every benchmark operation.

The references come from the corpus generator's ground truth and from a
line scan of the PDB text written here, never from the layer that
produced the output: a wrong merge cannot vouch for itself through the
reader it shares code with.
"""

from __future__ import annotations

import json
import os
import re

from corpus import Corpus

_HEADER = re.compile(r"^([a-z]+)#(\d+) (.*)$")

#: item prefixes ``pdbhtml`` writes a page for (plus ``index.html``)
PAGED_PREFIXES = ("so", "cl", "ro", "te", "na", "ty")


def scan_pdb(text: str) -> list[tuple[str, int, str, dict[str, list[str]]]]:
    """Items of a PDB text as ``(prefix, id, name, {attr: [values]})``.

    Items are blank-line separated blocks whose first line is
    ``prefix#id name``; every other line is ``key value``."""
    if not text.startswith("<PDB "):
        raise ValueError("not a PDB text")
    items = []
    for block in text.split("\n\n")[1:]:
        lines = block.strip("\n").split("\n")
        m = _HEADER.match(lines[0])
        if m is None:
            raise ValueError(f"malformed item header {lines[0]!r}")
        attrs: dict[str, list[str]] = {}
        for line in lines[1:]:
            key, _, value = line.partition(" ")
            attrs.setdefault(key, []).append(value)
        items.append((m.group(1), int(m.group(2)), m.group(3), attrs))
    return items


def check_build(text: str, corpus: Corpus) -> list[str]:
    """Problems in a merged build output, against the ground truth."""
    items = scan_pdb(text)
    problems = []
    classes = [name for prefix, _, name, _ in items if prefix == "cl"]
    if len(classes) != len(set(classes)):
        problems.append("a class appears twice after the merge")
    if set(classes) != corpus.classes:
        missing = sorted(corpus.classes - set(classes))[:5]
        extra = sorted(set(classes) - corpus.classes)[:5]
        problems.append(f"classes differ: missing {missing}, unexpected {extra}")
    inst = {n for p, _, n, a in items if p == "cl" and "ctempl" in a and not n.startswith("vector<")}
    if inst != corpus.class_instantiations:
        problems.append("class-template instantiations differ from the ground truth")
    folds: dict[str, int] = {}
    for p, _, name, attrs in items:
        if p == "ro" and "rtempl" in attrs and name.startswith("fold"):
            folds[name] = folds.get(name, 0) + 1
    want: dict[str, int] = {}
    for name, _ in corpus.function_instantiations:
        want[name] = want.get(name, 0) + 1
    if folds != want:
        problems.append(f"function-template instantiations {folds} != {want}")
    routines = {name for p, _, name, _ in items if p == "ro"}
    lost = [e for e in corpus.edits if e not in routines]
    if lost:
        problems.append(f"edited functions missing: {lost[:3]}")
    return problems


def check_sarif(path: str, corpus: Corpus) -> list[str]:
    """``pdbcheck`` SARIF findings must be exactly the planted set."""
    with open(path) as f:
        log = json.load(f)
    got = set()
    for result in log["runs"][0]["results"]:
        loc = result["locations"][0]["physicalLocation"]
        got.add((result["ruleId"], loc["artifactLocation"]["uri"], loc["region"]["startLine"]))
    if got != corpus.planted:
        return [f"findings differ: missed {sorted(corpus.planted - got)}, extra {sorted(got - corpus.planted)}"]
    return []


def expected_pages(text: str) -> set[str]:
    """One page per documented item, plus the index."""
    pages = {"index.html"}
    for prefix, ident, _, _ in scan_pdb(text):
        if prefix in PAGED_PREFIXES:
            pages.add(f"{prefix}_{ident}.html")
    return pages


def check_html(out_dir: str, pages: set[str]) -> list[str]:
    written = set(os.listdir(out_dir))
    if written != pages:
        return [f"pdbhtml wrote {len(written)} pages, expected {len(pages)}"]
    return []


def check_tree(output: str, corpus: Corpus) -> list[str]:
    """Every generated class must show in the class-hierarchy section."""
    if "CLASS HIERARCHY" not in output or "STATIC CALL GRAPH" not in output:
        return ["pdbtree output lacks a section"]
    missing = [c for c in sorted(corpus.classes) if c not in output]
    return [f"pdbtree omits classes {missing[:3]}"] if missing else []


def check_tau(instrumented: dict, profiler, corpus: Corpus) -> list[str]:
    """One TAU_PROFILE per routine definition in each project file, and
    one call of ``main`` on each of the four simulated nodes."""
    problems = []
    for path, want in corpus.definitions.items():
        got = len(instrumented[path].insertions)
        if got != want:
            problems.append(f"{path}: {got} timers inserted, expected {want}")
    if profiler.nodes() != [0, 1, 2, 3]:
        problems.append(f"simulated nodes {profiler.nodes()}")
    for node in profiler.nodes():
        timers = profiler.profile(node=node).timers
        if not any(name.startswith("main") and t.calls == 1 for name, t in timers.items()):
            problems.append(f"node {node}: no single call of main")
    return problems


def check_siloon(bindings, corpus: Corpus) -> list[str]:
    """Every class gets a binding; free functions are the entry points,
    the fold instantiations and the planted free functions."""
    problems = []
    bound = {cb.cls.fullName() for cb in bindings.classes}
    if bound != corpus.classes:
        problems.append(f"bound classes differ: {sorted(bound ^ corpus.classes)[:4]}")
    free = {rb.routine.fullName() for rb in bindings.functions}
    if free != corpus.free_functions:
        problems.append(f"bound functions differ: {sorted(free ^ corpus.free_functions)[:4]}")
    return problems
