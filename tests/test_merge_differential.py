"""Differential guard for the merge.

``merge_pdbs`` keys every incoming item from a first-value-per-key scan
of its attribute lines and clones a kept item as remapped lines; the
attribute-based reference fold in ``tests/merge_reference.py`` keys and
clones through materialised attributes.  On every input both must give
the same merged text, the same per-fold ``MergeStats`` and the same
``odr_log``.  Inputs: Stack and POOMA under all three instantiation
modes, synth, the seeded-defect corpus, the perfbench corpus's per-TU
texts, analyzer output that was never written (materialised items),
folds mixing materialised and unmaterialised items, and hand-edited
texts with irregular whitespace, NULL and dangling refs, and text
attributes whose values look like refs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.analyzer import analyze
from repro.cpp.instantiate import InstantiationMode
from repro.ductape.pdb import PDB
from repro.pdbfmt.reader import parse_pdb
from repro.pdbfmt.writer import write_pdb
from repro.tools.pdbbuild import BuildOptions, build
from repro.tools.pdbmerge import merge_pdbs
from repro.workloads.defects import DEFECT_SOURCES, defect_files
from repro.workloads.pooma import pooma_frontend
from repro.workloads.stack import stack_frontend
from repro.workloads.synth import SynthSpec, generate
from tests.merge_reference import reference_merge_pdbs

MODES = (InstantiationMode.USED, InstantiationMode.ALL, InstantiationMode.PRELINK)
PERFBENCH_CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def _perfbench_texts(seed: int) -> list[str]:
    """Per-TU texts of the benchmark's seeded 24-TU project."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH_CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
        corpus = module.generate(seed)
    finally:
        del sys.modules[spec.name]
    options = BuildOptions(include_paths=("kai",))
    return [build([tu], options, files=corpus.files)[0].to_text() for tu in corpus.sources]


@pytest.fixture(scope="module")
def workload_texts() -> dict[str, list[str]]:
    synth = generate(SynthSpec(n_translation_units=4, n_templates=3))
    return {
        "stack": [
            write_pdb(analyze(stack_frontend(m).compile("TestStackAr.cpp"))) for m in MODES
        ],
        "pooma": [
            write_pdb(analyze(pooma_frontend(m).compile("KrylovApp.cpp"))) for m in MODES
        ],
        "synth": [build([tu], files=synth.files)[0].to_text() for tu in synth.main_files],
        "defects": [
            build([tu], BuildOptions(), files=defect_files())[0].to_text()
            for tu in DEFECT_SOURCES
        ],
        "perfbench": _perfbench_texts(7),
    }


def _assert_same_merge(inputs, reference_inputs) -> tuple[PDB, list]:
    """Merge ``inputs`` and, separately, ``reference_inputs`` (the same
    documents, parsed or built again: the reference materialises what it
    reads) and require identical text, per-fold stats and ODR log."""
    log: list = []
    merged, stats = merge_pdbs(inputs, odr_log=log)
    ref_log: list = []
    ref, ref_stats = reference_merge_pdbs(reference_inputs, odr_log=ref_log)
    assert merged.to_text() == ref.to_text()
    assert stats == ref_stats
    assert log == ref_log
    return merged, stats


@pytest.mark.parametrize("workload", ["stack", "pooma", "synth", "defects", "perfbench"])
def test_parsed_inputs_match_reference(workload_texts, workload):
    texts = workload_texts[workload]
    # a second pass over the inputs: every item is a duplicate of one
    # already merged, with its refs remapped to other ids
    texts = texts + texts[::-1]
    merged, stats = _assert_same_merge(
        [parse_pdb(t) for t in texts], [PDB.from_text(t) for t in texts]
    )
    assert stats[-1].items_added == 0
    if workload == "defects":
        assert sum(s.odr_conflicts for s in stats) > 0


def test_materialised_inputs_match_reference():
    """Analyzer output that was never written: keys and clones come from
    rendered attributes."""

    def trees():
        return [analyze(stack_frontend(m).compile("TestStackAr.cpp")) for m in MODES] + [
            analyze(pooma_frontend(m).compile("KrylovApp.cpp")) for m in MODES
        ]

    _assert_same_merge([PDB(doc) for doc in trees()], [PDB(doc) for doc in trees()])


def test_mixed_materialised_and_raw_items_in_one_fold(workload_texts):
    texts = workload_texts["stack"] + workload_texts["defects"] + workload_texts["synth"]
    docs = [parse_pdb(t) for t in texts]
    for d, doc in enumerate(docs):
        for k, item in enumerate(doc.items):
            if (k + d) % 2:
                item.attributes  # materialise every other item
    # one input is a document built in memory, never written
    docs.insert(2, analyze(stack_frontend(MODES[1]).compile("TestStackAr.cpp")))
    reference = [PDB.from_text(t) for t in texts]
    reference.insert(2, PDB(analyze(stack_frontend(MODES[1]).compile("TestStackAr.cpp"))))
    _assert_same_merge(docs, reference)


# Two hand-edited TUs over one header.  Irregular whitespace (runs of
# blanks, tabs, a key alone on its line), NULL and dangling refs,
# non-canonical ref spellings (so#01, so#02), a repeated key (the first
# line counts), text attributes holding ref-like words, and a second
# definition of f() at another position (an ODR conflict).  Their file
# ids are swapped, so every ref in the second TU is remapped.
HAND_A = """\
<PDB 1.0>

so#1 a.h

so#2 main.cpp
sinc so#1

te#1   Box
tloc so#1  2   1
tkind   class
ttext template <class T> class Box { so#2 };

cl#1 Box<int>
cloc so#1 3 7
cnspace NULL
ctempl te#1
cmem so#2 value
cmloc so#01 4 5

ty#1 int
ykind\tint
yclass NULL

ty#2 int (void)
ykind func
yrett ty#1

ro#1 f
rloc so#2 4 1
rclass  NULL
rnspace na#9
rsig ty#2
rpos so#2 4 1 so#2 4 9\tso#2 4 10 so#2 6 1
rcall ro#1 no so#2 5 3

ro#2 g
rloc NULL 0 0
rsig  ty#7
rstore static
rpos so#2 8 1 so#2 8 9 so#2 8 10 so#2 9 1
rinline

ferr#1 error
ffile so#2
floc so#2 9 3
fmsg expected ';' near so#1 cl#1 ro#1

ma#1 M
maloc so#1 1 9
makind def
matext so#2   x  ro#1
"""

HAND_B = """\
<PDB 1.0>

so#1 main2.cpp
sinc so#2

so#2 a.h

te#1 Box
tloc so#2 2 1
tkind class
ttext template <class T> class Box { so#2 };

cl#1 Box<int>
cloc   so#02 3 7
ctempl te#1
cmem so#1 value

ty#1 int
ykind int
yclass NULL
yclass cl#1

ty#2 int (void)
ykind  func
yrett ty#1

ro#1 f
rloc so#1 12 1
rnspace na#9
rsig ty#2
rpos so#1 12 1 so#1 12 9 so#1 12 10 so#1 14 1
rcall ro#1 no so#1 13 3

ro#2 h
rloc so#1 20 1
rclass cl#1
rsig ty#2
rpos so#1 20 1 so#1 20 9 NULL 0 0 NULL 0 0

ferr#1 error
ffile so#1
floc so#1 9 3
fmsg expected ';' near so#2 cl#1 ro#1

ma#1 N
maloc so#2 1 9
makind def
matext so#1 x
"""


def test_hand_edited_inputs_match_reference():
    texts = [HAND_A, HAND_B, HAND_A]
    merged, stats = _assert_same_merge(
        [parse_pdb(t) for t in texts], [PDB.from_text(t) for t in texts]
    )
    assert [s.odr_conflicts for s in stats] == [1, 0]
    out = merged.to_text()
    # text attributes are never remapped, whatever their words look like
    assert "fmsg expected ';' near so#2 cl#1 ro#1" in out
    assert "matext so#1 x" in out
    assert "cmem so#1 value" not in out  # the Box<int> of B is a duplicate
    # words are normalised as Attribute.render does; text is verbatim
    assert "tloc so#1 2 1" in out and "matext so#2   x  ro#1" in out
    assert out == write_pdb(parse_pdb(out)) == write_pdb(parse_pdb(out, strict=True))


@pytest.mark.parametrize("text", [HAND_A, HAND_B])
def test_writer_normalises_unparsed_lines_like_render(text):
    """An unmaterialised item is written as its materialised attributes
    would render: write∘parse is the same on both reader paths and a
    fixed point."""
    once = write_pdb(parse_pdb(text))
    assert once == write_pdb(parse_pdb(text, strict=True))
    assert write_pdb(parse_pdb(once)) == once
