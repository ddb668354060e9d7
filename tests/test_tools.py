"""Tool tests: pdbconv, pdbtree, pdbhtml, pdbmerge, cxxparse CLIs."""


import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyzer import analyze
from repro.ductape.pdb import PDB
from repro.tools.pdbconv import check_pdb, convert_pdb
from repro.tools.pdbhtml import generate_html
from repro.tools.pdbtree import (
    print_func_tree,
    render_call_tree,
    render_class_tree,
    render_inclusion_tree,
)
from repro.workloads.stack import compile_stack, stack_files
from tests.util import compile_source


@pytest.fixture(scope="module")
def stack_pdb() -> PDB:
    return PDB(analyze(compile_stack()))


class TestPdbConv:
    def test_readable_output(self, stack_pdb):
        text = convert_pdb(stack_pdb)
        assert "Program database, format 1.0" in text
        assert 'CLASS cl#' in text
        assert 'ROUTINE ro#' in text
        assert "location:" in text

    def test_references_humanised(self, stack_pdb):
        text = convert_pdb(stack_pdb)
        # references carry the target's name: ro#N[push]
        assert "[push]" in text

    def test_check_clean_pdb(self, stack_pdb):
        assert check_pdb(stack_pdb) == []

    def test_check_detects_dangling_ref(self):
        pdb = PDB.from_text("<PDB 1.0>\nro#1 f\nrcall ro#99 no NULL 0 0\n")
        problems = check_pdb(pdb)
        assert any("dangling" in p for p in problems)

    def test_check_detects_unknown_attribute(self):
        pdb = PDB.from_text("<PDB 1.0>\nro#1 f\nrbogus x\n")
        assert any("unknown attribute" in p for p in check_pdb(pdb))

    def test_cli(self, stack_pdb, tmp_path):
        from repro.tools.pdbconv import main

        src = tmp_path / "x.pdb"
        out = tmp_path / "x.txt"
        src.write_text(stack_pdb.to_text())
        assert main([str(src), "-o", str(out)]) == 0
        assert "ROUTINE" in out.read_text()

    def test_cli_check_mode(self, stack_pdb, tmp_path):
        from repro.tools.pdbconv import main

        src = tmp_path / "x.pdb"
        src.write_text(stack_pdb.to_text())
        assert main([str(src), "--check"]) == 0


class TestPdbTree:
    def test_figure5_call_tree_shape(self, stack_pdb):
        """The pdbtree output format of paper Figure 5."""
        out = render_call_tree(stack_pdb, "main")
        lines = out.splitlines()
        assert lines[0] == "main"
        assert any(line.startswith("`--> ") for line in lines)
        assert "`--> Stack<int>::push" in out
        # template-instantiated functions appear in the callee vectors
        assert "Stack<int>::isFull" in out

    def test_indentation_grows_with_depth(self, stack_pdb):
        out = render_call_tree(stack_pdb, "main")
        push_line = next(l for l in out.splitlines() if "push" in l)
        isfull_line = next(l for l in out.splitlines() if "isFull" in l)
        assert len(isfull_line) - len(isfull_line.lstrip()) > len(push_line) - len(
            push_line.lstrip()
        )

    def test_virtual_tag(self):
        pdb = PDB(
            analyze(
                compile_source(
                    "class B { public: virtual void v() { } };\n"
                    "int main() { B* b = new B(); b->v(); return 0; }"
                )
            )
        )
        out = render_call_tree(pdb, "main")
        assert "(VIRTUAL)" in out

    def test_cycle_marker(self):
        pdb = PDB(
            analyze(
                compile_source(
                    "int pong(int n);\n"
                    "int ping(int n) { return pong(n); }\n"
                    "int pong(int n) { return ping(n); }\n"
                    "int main() { return ping(3); }"
                )
            )
        )
        out = render_call_tree(pdb, "main")
        assert " ..." in out

    def test_print_func_tree_resets_flags(self, stack_pdb):
        main = stack_pdb.findRoutine("main")
        out: list = []
        print_func_tree(main, 1, out)
        assert all(r.flag() == 0 for r in stack_pdb.getRoutineVec())

    def test_inclusion_tree_render(self, stack_pdb):
        out = render_inclusion_tree(stack_pdb)
        assert "TestStackAr.cpp" in out.splitlines()[0]
        assert "`--> StackAr.h" in out
        assert "StackAr.cpp" in out

    def test_class_tree_render(self):
        pdb = PDB(
            analyze(compile_source("class A {};\nclass B : public A {};"))
        )
        out = render_class_tree(pdb)
        assert "A" in out and "`--> B" in out

    def test_cli(self, stack_pdb, tmp_path):
        from repro.tools.pdbtree import main

        src = tmp_path / "x.pdb"
        src.write_text(stack_pdb.to_text())
        assert main([str(src), "-t", "calls", "-r", "main"]) == 0


class TestPdbHtml:
    def test_generates_pages(self, stack_pdb, tmp_path):
        written = generate_html(stack_pdb, str(tmp_path))
        assert "index.html" in written
        assert len(written) > 20
        index = (tmp_path / "index.html").read_text()
        assert "Stack&lt;int&gt;" in index or "Stack<int>" in index

    def test_class_page_links(self, stack_pdb, tmp_path):
        generate_html(stack_pdb, str(tmp_path))
        cls = stack_pdb.findClass("Stack<int>")
        page = (tmp_path / f"cl_{cls.id()}.html").read_text()
        assert "push" in page
        assert "theArray" in page
        assert "Instantiated from template" in page

    def test_routine_page_shows_calls(self, stack_pdb, tmp_path):
        generate_html(stack_pdb, str(tmp_path))
        push = stack_pdb.findRoutine("Stack<int>::push")
        page = (tmp_path / f"ro_{push.id()}.html").read_text()
        assert "Calls" in page and "isFull" in page
        assert "Called by" in page

    def test_all_links_resolve(self, stack_pdb, tmp_path):
        import re

        written = set(generate_html(stack_pdb, str(tmp_path)))
        for name in written:
            html_text = (tmp_path / name).read_text()
            for target in re.findall(r"href='([^']+)'|href=\"([^\"]+)\"", html_text):
                t = (target[0] or target[1]).split("#")[0]
                assert t in written, f"{name} links to missing {t}"

    def test_cli(self, stack_pdb, tmp_path):
        from repro.tools.pdbhtml import main

        src = tmp_path / "x.pdb"
        src.write_text(stack_pdb.to_text())
        outdir = tmp_path / "html"
        assert main([str(src), "-o", str(outdir)]) == 0
        assert (outdir / "index.html").exists()


class TestPdbMergeCli:
    def test_cli_merges(self, tmp_path):
        from repro.cpp import Frontend, FrontendOptions
        from repro.tools.pdbmerge import main
        from repro.workloads.stl import KAI_INCLUDE_DIR

        files = dict(stack_files())
        files["Second.cpp"] = (
            '#include "StackAr.h"\n'
            "int second() { Stack<int> s; s.push(1); return 0; }\n"
        )
        fe = Frontend(FrontendOptions(include_paths=[KAI_INCLUDE_DIR]))
        fe.register_files(files)
        p1 = PDB(analyze(fe.compile("TestStackAr.cpp")))
        p2 = PDB(analyze(fe.compile("Second.cpp")))
        f1, f2, out = tmp_path / "1.pdb", tmp_path / "2.pdb", tmp_path / "m.pdb"
        f1.write_text(p1.to_text())
        f2.write_text(p2.to_text())
        assert main([str(f1), str(f2), "-o", str(out), "-v"]) == 0
        merged = PDB.read(str(out))
        stacks = [c for c in merged.getClassVec() if c.name() == "Stack<int>"]
        assert len(stacks) == 1
        assert merged.findRoutine("second") is not None


class TestCxxParse:
    def test_cli_produces_pdb(self, tmp_path):
        from repro.tools.cxxparse import main

        src = tmp_path / "hello.cpp"
        src.write_text("int helper() { return 1; }\nint main() { return helper(); }\n")
        out = tmp_path / "hello.pdb"
        assert main([str(src), "-o", str(out)]) == 0
        pdb = PDB.read(str(out))
        assert pdb.findRoutine("main") is not None


class TestPdbHtmlSourcePages:
    def test_annotated_source_with_anchors(self, stack_pdb, tmp_path):
        sources = stack_files()
        generate_html(stack_pdb, str(tmp_path), sources=sources)
        header = next(
            f for f in stack_pdb.getFileVec() if f.name() == "StackAr.h"
        )
        page = (tmp_path / f"so_{header.id()}.html").read_text()
        assert "<a id='L1'>" in page
        assert "template &lt;class Object&gt;" in page

    def test_item_locations_link_to_source_lines(self, stack_pdb, tmp_path):
        generate_html(stack_pdb, str(tmp_path), sources=stack_files())
        push = stack_pdb.findRoutine("Stack<int>::push")
        page = (tmp_path / f"ro_{push.id()}.html").read_text()
        loc = push.location()
        assert f"#L{loc.line()}" in page


# -- malformed or missing PDB input -------------------------------------

#: (file name, text or bytes, line the error names); None = the file is absent
BAD_INPUTS = {
    "missing": ("missing.pdb", None, None),
    "no-header": ("noheader.pdb", "ro#1 foo\nrloc so#1 1 1\n", 1),
    "attr-before-item": ("attrfirst.pdb", "<PDB 3.0>\nrloc so#1 1 1\n", 2),
    # random bytes, not UTF-8 (0xff never occurs in UTF-8)
    "binary": ("binary.pdb", b"\xff" + random.Random(7).randbytes(199), None),
}


def _reader_cli(name, tmp_path):
    import importlib

    main = importlib.import_module(f"repro.tools.{name}").main
    extra = {
        "pdbmerge": ["-o", str(tmp_path / "merged.pdb")],
        "pdbhtml": ["-o", str(tmp_path / "html")],
    }.get(name, [])
    return main, extra


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("tool", ["pdbcheck", "pdbtree", "pdbhtml", "pdbmerge", "pdbconv"])
def test_bad_pdb_input_is_a_located_error(tool, case, tmp_path, capsys):
    """Every PDB-reading CLI reports a missing or malformed input as one
    ``prog: error: path[:line]: ...`` line and exits 2, never with a
    traceback."""
    fname, text, line = BAD_INPUTS[case]
    path = tmp_path / fname
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    main, extra = _reader_cli(tool, tmp_path)
    assert main([str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"{tool}: error: ")
    assert str(path) in err
    if line is not None:
        assert f"{path}:{line}: " in err


# -- running a tool as a module ------------------------------------------


@pytest.mark.parametrize("tool", ["pdbconv", "pdbhtml", "pdbmerge", "pdbtree"])
def test_python_m_runs_without_runpy_warning(tool):
    """``repro.tools`` re-exports the tools' functions lazily, so
    ``python -m repro.tools.<tool>`` does not find its module already
    imported by the package (a runpy RuntimeWarning)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", f"repro.tools.{tool}", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_package_reexports_resolve():
    import repro.tools as tools
    from repro.tools import merge_pdbs
    from repro.tools.pdbmerge import merge_pdbs as defined

    assert merge_pdbs is defined
    for name in tools.__all__:
        assert callable(getattr(tools, name))
    with pytest.raises(AttributeError):
        tools.no_such_tool
