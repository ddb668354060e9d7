"""Fold equivalence: ``merge_pdbs`` keeps one merge index across the
whole fold, and must reproduce a left fold of pairwise ``PDB.merge``
calls — each of which indexes the entire accumulator from scratch —
byte for byte, with the same per-fold MergeStats and ODR log, and
without touching its inputs."""

import pytest

from repro.analyzer import analyze
from repro.cpp.instantiate import InstantiationMode
from repro.ductape.pdb import PDB
from repro.pdbfmt.items import PdbDocument, RawItem
from repro.pdbfmt.writer import write_pdb
from repro.tools.pdbbuild import BuildOptions, build
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.defects import DEFECT_SOURCES, defect_files
from repro.workloads.pooma import pooma_frontend
from repro.workloads.stack import stack_frontend
from repro.workloads.synth import SynthSpec, generate

MODES = (InstantiationMode.USED, InstantiationMode.ALL, InstantiationMode.PRELINK)


def _pairwise_fold(pdbs, odr_log=None):
    """The reference: a fresh copy of the first input, then one
    ``PDB.merge`` per further input."""
    if not pdbs:
        return PDB(), []
    acc = PDB.from_text(pdbs[0].to_text())
    return acc, [acc.merge(p, odr_log=odr_log) for p in pdbs[1:]]


@pytest.fixture(scope="module")
def workload_texts() -> dict[str, list[str]]:
    """Per-TU PDB texts of each workload (compiled once per module)."""
    synth = generate(SynthSpec(n_translation_units=4, n_templates=3))
    out = {
        # one program under each instantiation mode: mostly shared items,
        # with mode-specific instantiations on top
        "stack": [
            write_pdb(analyze(stack_frontend(m).compile("TestStackAr.cpp")))
            for m in MODES
        ],
        "pooma": [
            write_pdb(analyze(pooma_frontend(m).compile("KrylovApp.cpp")))
            for m in MODES
        ],
        "synth": [
            build([tu], files=synth.files)[0].to_text() for tu in synth.main_files
        ],
        # two TUs defining Config and helper differently: ODR conflicts
        "defects": [
            build([tu], BuildOptions(), files=defect_files())[0].to_text()
            for tu in DEFECT_SOURCES
        ],
    }
    # every workload in turn: first definitions arrive in later folds
    out["mixed"] = [t for group in zip(*out.values()) for t in group]
    return out


@pytest.mark.parametrize("n", [0, 1, 2, 4, 16, 64])
@pytest.mark.parametrize("workload", ["stack", "pooma", "synth", "defects", "mixed"])
def test_fold_matches_pairwise_merges(workload_texts, workload, n):
    texts = workload_texts[workload]
    inputs = [PDB.from_text(texts[i % len(texts)]) for i in range(n)]
    before = [p.to_text() for p in inputs]
    log: list = []
    merged, stats = merge_pdbs(inputs, odr_log=log)
    ref_log: list = []
    ref, ref_stats = _pairwise_fold(inputs, odr_log=ref_log)
    assert merged.to_text() == ref.to_text()
    assert stats == ref_stats
    assert log == ref_log
    assert [p.to_text() for p in inputs] == before
    if n:
        assert merged.doc is not inputs[0].doc  # a private copy, even at N=1
    if workload == "defects" and n >= 2:
        assert sum(s.odr_conflicts for s in stats) == 2  # helper + Config


def _tu_pdb(tu: int, shared: int = 5, unique: int = 8) -> PDB:
    """One synthetic per-TU document: shared items that dedup across
    TUs, unique items that survive, and a template instantiation mix."""
    doc = PdbDocument()
    so = RawItem("so", 1, f"tu{tu}.cpp")
    so.add("skind", "source")
    doc.add(so)
    next_id = {"cl": 0, "ro": 0}
    for s in range(shared):
        cl = RawItem("cl", next_id["cl"], f"Shared{s}")
        next_id["cl"] += 1
        cl.add("ckind", "class")
        if s % 2:
            cl.add("ctempl", "NULL")
        doc.add(cl)
        ro = RawItem("ro", next_id["ro"], f"shared_fn{s}")
        next_id["ro"] += 1
        ro.add("rsig", "NULL")
        if s % 2:
            ro.add("rtempl", "NULL")
        doc.add(ro)
    for u in range(unique):
        ro = RawItem("ro", next_id["ro"], f"tu{tu}_fn{u}")
        next_id["ro"] += 1
        ro.add("rsig", "NULL")
        doc.add(ro)
    return PDB(doc)


@pytest.mark.parametrize("n", [2, 4, 16])
@pytest.mark.parametrize("fanin", [2, 8])
def test_tree_merge_byte_identical_to_fold(n, fanin):
    """Merging is associative: reducing contiguous groups of ``fanin``
    inputs with ``merge_pdbs`` and then merging the partial results
    (as ``pdbmerge`` does when given already-merged files) gives the
    same bytes as the one fold over all inputs."""
    inputs = [_tu_pdb(i) for i in range(n)]
    before = [p.to_text() for p in inputs]
    serial, per_fold = merge_pdbs(inputs)
    assert per_fold == _pairwise_fold(inputs)[1]
    level, depth = inputs, 0
    while len(level) > 1:
        level = [merge_pdbs(level[i : i + fanin])[0] for i in range(0, len(level), fanin)]
        depth += 1
    assert level[0].to_text() == serial.to_text()
    assert [p.to_text() for p in inputs] == before
    if fanin == 2:
        assert depth == (n - 1).bit_length()  # genuinely pairwise


def _tu(i: int, defs=(), ferr: bool = False) -> PDB:
    """One hand-written per-TU document: a source file at ``so#10(i+1)``
    (an id no other TU's file gets in the accumulator), one located
    ``Widget`` class per line in ``defs``, optionally a ``ferr`` record."""
    doc = PdbDocument()
    so = RawItem("so", 10 * (i + 1), f"t{i}.cpp")
    so.add("skind", "source")
    doc.add(so)
    for cid, line in enumerate(defs):
        cl = RawItem("cl", cid, "Widget")
        cl.add("ckind", "class")
        cl.add("cloc", so.ref, line, 1)
        doc.add(cl)
    if ferr:
        fe = RawItem("ferr", 0, f"t{i}.cpp:1: broken")
        fe.add_text("emsg", f"broken in t{i}")
        doc.add(fe)
    return PDB(doc)


def test_odr_prior_from_an_earlier_fold_names_its_own_file():
    """The first definition arrives in fold 1, the conflict in fold 2:
    the index must hold the merged clone, whose refs resolve in the
    accumulator — not the incoming item, whose ``so#20`` does not
    resolve there."""
    pdbs = [_tu(0), _tu(1, defs=[20]), _tu(2, defs=[30])]
    log: list = []
    _, stats = merge_pdbs(pdbs, odr_log=log)
    assert [s.odr_conflicts for s in stats] == [0, 1]
    assert log == [
        {"kind": "class", "name": "Widget", "existing": "t1.cpp:20", "incoming": "t2.cpp:30"}
    ]
    ref_log: list = []
    _pairwise_fold(pdbs, odr_log=ref_log)
    assert ref_log == log


def test_odr_conflict_within_one_input_names_its_own_file():
    log: list = []
    merge_pdbs([_tu(0), _tu(1, defs=[10, 20])], odr_log=log)
    assert log == [
        {"kind": "class", "name": "Widget", "existing": "t1.cpp:10", "incoming": "t1.cpp:20"}
    ]


def test_fold_preserves_ferr_items():
    pdbs = [_tu(i, ferr=True) for i in range(4)]
    merged, _ = merge_pdbs(pdbs)
    assert merged.to_text() == _pairwise_fold(pdbs)[0].to_text()
    assert len(merged.doc.by_prefix("ferr")) == 4

