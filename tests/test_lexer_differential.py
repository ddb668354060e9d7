"""Differential regression guard for the single-regex lexer.

``repro.cpp.lexer.tokenize`` must agree with the character-at-a-time
reference scanner in ``tests/lexer_reference.py`` on every input: the
same tokens (kind, text, line, column, ``at_line_start``,
``leading_space``) and the same diagnostics, in fatal mode (the same
``CppError`` message and location) and in recovering mode (the same
soft errors, including the ``max_errors`` cascade bound).  Inputs are
every corpus text in ``repro.workloads`` plus seeded mutants that
splice in the lexically awkward fragments: quotes, backslash-newlines,
comment openers and closers, stray characters, odd number forms and
truncation.
"""

import random

import pytest

from repro.cpp.diagnostics import CppError, DiagnosticSink
from repro.cpp.lexer import tokenize
from repro.cpp.source import SourceFile
from repro.workloads.defects import defect_files
from repro.workloads.fortran90 import fortran_files
from repro.workloads.javasim import java_files
from repro.workloads.pooma import pooma_files
from repro.workloads.stack import stack_files
from repro.workloads.synth import SynthSpec, generate
from tests.lexer_reference import reference_tokenize

_FRAGMENTS = [
    '"', "'", '"abc', "'x", '"a\\"b"', "'\\''", "\\\n", "\\", "\n", "\r\n",
    "/*", "*/", "/* c\n */", "//", "// tail\n", "$", "@", "`", "\x00", "é",
    ".5", "1.e5", "1.", "0x", "0X1fUL", "1e+", "1e+5f", "07", "..", "...",
    "->*", ".*", "<<=", "##", "#", 'R"(raw)"', " ", "\t", "\f", "x",
]


def _corpus() -> dict[str, str]:
    texts = {}
    for files in (
        stack_files(), pooma_files(), defect_files(), fortran_files(), java_files(),
        generate(SynthSpec(n_translation_units=3)).files,
    ):
        texts.update(files)
    return texts


def _snapshot(tokens):
    return [
        (t.kind, t.text, t.location.line, t.location.column,
         t.at_line_start, t.leading_space, t.expanded_from)
        for t in tokens
    ]


def _diag(d):
    loc = d.location
    return (d.severity, d.message, loc and (loc.file.name, loc.line, loc.column))


def _outcome(lex, text: str, recover: bool):
    """Lex ``text``; returns (tokens | error, diagnostics), normalised."""
    f = SourceFile(name="t.cpp", text=text)
    sink = DiagnosticSink(fatal_errors=False, max_errors=8) if recover else None
    try:
        result = ("ok", _snapshot(lex(f, sink)))
    except CppError as e:
        loc = e.location
        result = (type(e).__name__, e.message, loc and (loc.line, loc.column))
    return result, [_diag(d) for d in sink.diagnostics] if sink else []


def _assert_agree(text: str, label: str) -> None:
    for recover in (False, True):
        new = _outcome(tokenize, text, recover)
        ref = _outcome(reference_tokenize, text, recover)
        assert new == ref, f"{label} (recover={recover}) diverges on {text[:300]!r}"


def _mutate(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(4)
    if op == 0:
        return text[:i] + rng.choice(_FRAGMENTS) + text[i:]
    if op == 1:
        return text[:i] + text[i + rng.randrange(1, 8) :]
    if op == 2:
        return text[:i]  # truncation
    j = rng.randrange(len(text) + 1)
    return text[:i] + text[j : j + rng.randrange(1, 6)] + text[i:]


@pytest.fixture(scope="module")
def corpus() -> dict[str, str]:
    return _corpus()


def test_corpus_texts_agree(corpus):
    assert len(corpus) >= 20
    for name, text in corpus.items():
        _assert_agree(text, name)


def test_seeded_mutants_agree(corpus):
    rng = random.Random(0x1E8)
    names = sorted(corpus)
    for case in range(400):
        name = rng.choice(names)
        text = corpus[name]
        # a window keeps each case small while still crossing lines
        start = rng.randrange(len(text) + 1)
        text = text[start : start + rng.randrange(40, 600)]
        for _ in range(rng.randrange(1, 6)):
            text = _mutate(text, rng)
        _assert_agree(text, f"mutant {case} of {name}")


def test_fragment_soup_agrees():
    rng = random.Random(7)
    for case in range(400):
        text = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randrange(1, 12)))
        _assert_agree(text, f"soup {case}")


@pytest.mark.parametrize(
    "text",
    [
        "", "\n", "a", "\\", "\\\n", "a\\\nb", '"', "'", '"\\', '"\\\nx"', "'a\nb'",
        "/*", "/*/", "/**/", "/* \n */x", "a /* x\ny */ b", "// c", "@", "@@@ a\n@b",
        "\n@\nb", "x @ y", ".5", "1.e5", "1..2", "0x", "0xE+5", "1e", "1ef", "1.f",
        "00x1", ".0x", 'R"(a)"', "a->*b", "<<=>>=...",
    ],
)
def test_edge_cases_agree(text):
    _assert_agree(text, "edge case")
