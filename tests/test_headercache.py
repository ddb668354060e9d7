"""Header-cache tests: cross-TU memoized preprocessing must be
observably invisible (byte-identical PDB text, identical diagnostics)
while invalidating on exactly the things that matter — macro
environments the header reads, and content changes anywhere in the
cached subtree."""

import random

import pytest

from repro.analyzer import analyze
from repro.cpp.frontend import Frontend, FrontendOptions
from repro.ductape.pdb import PDB
from repro.workloads.synth import SynthSpec, generate


def _frontend(files, cache=True, **opts):
    fe = Frontend(FrontendOptions(header_cache=cache, **opts))
    fe.register_files(files)
    return fe


def _pdb_text(tree) -> str:
    return PDB(analyze(tree)).to_text()


class TestByteEquality:
    def test_synth_corpus_identical_with_and_without_cache(self):
        spec = SynthSpec(
            n_plain_classes=4,
            methods_per_class=3,
            n_templates=3,
            instantiations_per_template=2,
            n_translation_units=6,
        )
        corpus = generate(spec)
        results = {}
        for cache in (True, False):
            fe = _frontend(corpus.files, cache=cache)
            trees = fe.compile_many(corpus.main_files)
            results[cache] = (
                [_pdb_text(t) for t in trees],
                [[str(d) for d in s.diagnostics] for s in fe.last_sinks],
                [[f.name for f in t.files] for t in trees],
                [[(m.name, m.kind, m.text) for m in t.macros] for t in trees],
            )
        assert results[True] == results[False]

    def test_shared_header_hits_after_first_tu(self):
        files = {
            "common.h": "#ifndef COMMON_H\n#define COMMON_H\n"
            "#define ANSWER 42\nint common(int x);\n#endif\n",
        }
        mains = []
        for t in range(4):
            files[f"tu{t}.cpp"] = (
                '#include "common.h"\n'
                f"int use{t}(int v) {{ return common(v) + ANSWER; }}\n"
            )
            mains.append(f"tu{t}.cpp")
        fe = _frontend(files)
        fe.compile_many(mains)
        hc = fe.header_cache
        assert hc.misses == 1
        assert hc.hits == 3

    def test_cache_off_creates_no_cache(self):
        fe = _frontend({"a.cpp": "int f();\n"}, cache=False)
        assert fe.header_cache is None
        fe.compile("a.cpp")  # plain-dict macro table path


class TestInvalidation:
    def test_two_macro_environments_get_two_variants(self):
        """A macro the header *reads* keys separate variants — no false
        sharing — while both variants replay for later TUs."""
        files = {
            "mode.h": "#ifdef FAST\nint speed() ;\n#else\nint safety() ;\n#endif\n",
            "a.cpp": '#include "mode.h"\nint ua() { return safety(); }\n',
            "b.cpp": '#define FAST 1\n#include "mode.h"\nint ub() { return speed(); }\n',
            "a2.cpp": '#include "mode.h"\nint ua2() { return safety(); }\n',
            "b2.cpp": '#define FAST 1\n#include "mode.h"\nint ub2() { return speed(); }\n',
        }
        fe = _frontend(files)
        trees = fe.compile_many(["a.cpp", "b.cpp", "a2.cpp", "b2.cpp"])
        hc = fe.header_cache
        assert hc.misses == 2  # one per environment
        assert hc.hits == 2  # each environment replayed once
        texts = [_pdb_text(t) for t in trees]
        assert texts[0] != texts[1]  # the variants really differ
        fe2 = _frontend(files, cache=False)
        trees2 = fe2.compile_many(["a.cpp", "b.cpp", "a2.cpp", "b2.cpp"])
        assert texts == [_pdb_text(t) for t in trees2]

    def test_unread_macro_does_not_invalidate(self):
        """#define before #include of a macro the header never consults
        must not fork a new variant."""
        files = {
            "plain.h": "int plain();\n",
            "a.cpp": '#include "plain.h"\nint ua() { return plain(); }\n',
            "b.cpp": '#define UNRELATED 7\n#include "plain.h"\n'
            "int ub() { return plain(); }\n",
        }
        fe = _frontend(files)
        fe.compile_many(["a.cpp", "b.cpp"])
        assert fe.header_cache.misses == 1
        assert fe.header_cache.hits == 1

    def test_define_before_include_that_header_expands(self):
        """The header expands EXTRA in a declaration — each definition
        of EXTRA must produce its own cached expansion."""
        files = {
            "tmpl.h": "int scaled(int v) { return v * EXTRA ; }\n",
            "a.cpp": '#define EXTRA 2\n#include "tmpl.h"\nint ua() { return scaled(1); }\n',
            "b.cpp": '#define EXTRA 3\n#include "tmpl.h"\nint ub() { return scaled(1); }\n',
        }
        fe = _frontend(files)
        trees = fe.compile_many(["a.cpp", "b.cpp"])
        assert fe.header_cache.misses == 2
        fe2 = _frontend(files, cache=False)
        trees2 = fe2.compile_many(["a.cpp", "b.cpp"])
        assert [_pdb_text(t) for t in trees] == [_pdb_text(t) for t in trees2]

    def test_content_change_evicts(self):
        files = {
            "v.h": "#define VERSION 1\nint api_v1();\n",
            "a.cpp": '#include "v.h"\nint ua() { return api_v1(); }\n',
        }
        fe = _frontend(files)
        t1 = _pdb_text(fe.compile("a.cpp"))
        assert fe.header_cache.misses == 1
        # same content again: replay
        t2 = _pdb_text(fe.compile("a.cpp"))
        assert fe.header_cache.hits == 1
        assert t1 == t2
        # re-register with new content: the old entry must not replay
        fe.manager.register("v.h", "#define VERSION 2\nint api_v2();\n")
        fe.register_files({"a.cpp": '#include "v.h"\nint ua() { return api_v2(); }\n'})
        t3 = _pdb_text(fe.compile("a.cpp"))
        assert fe.header_cache.misses == 2
        assert "api_v2" in t3 and "api_v2" not in t1

    def test_nested_header_change_evicts_enclosing_subtree(self):
        """outer.h's cached subtree embeds inner.h's expansion; replacing
        inner.h must invalidate the outer entry too."""
        files = {
            "inner.h": "int inner_one();\n",
            "outer.h": '#include "inner.h"\nint outer();\n',
            "a.cpp": '#include "outer.h"\nint ua() { return outer(); }\n',
        }
        fe = _frontend(files)
        t1 = _pdb_text(fe.compile("a.cpp"))
        assert "inner_one" in t1
        fe.manager.register("inner.h", "int inner_two();\n")
        t2 = _pdb_text(fe.compile("a.cpp"))
        assert "inner_two" in t2 and "inner_one" not in t2

    def test_include_guard_second_inclusion_is_own_variant(self):
        files = {
            "g.h": "#ifndef G_H\n#define G_H\nint guarded();\n#endif\n",
            "a.cpp": '#include "g.h"\n#include "g.h"\n'
            "int ua() { return guarded(); }\n",
            "b.cpp": '#include "g.h"\n#include "g.h"\n'
            "int ub() { return guarded(); }\n",
        }
        fe = _frontend(files)
        trees = fe.compile_many(["a.cpp", "b.cpp"])
        hc = fe.header_cache
        # TU a: miss (guard undefined) + miss (guard defined, empty
        # variant); TU b: both variants replay
        assert hc.misses == 2
        assert hc.hits == 2
        fe2 = _frontend(files, cache=False)
        trees2 = fe2.compile_many(["a.cpp", "b.cpp"])
        assert [_pdb_text(t) for t in trees] == [_pdb_text(t) for t in trees2]

    def test_conditional_include_tracks_selector_macro(self):
        files = {
            "fast.h": "int fast_impl();\n",
            "safe.h": "int safe_impl();\n",
            "sel.h": '#ifdef FAST\n#include "fast.h"\n#else\n#include "safe.h"\n#endif\n',
            "a.cpp": '#include "sel.h"\nint ua() { return safe_impl(); }\n',
            "b.cpp": '#define FAST 1\n#include "sel.h"\nint ub() { return fast_impl(); }\n',
        }
        fe = _frontend(files)
        trees = fe.compile_many(["a.cpp", "b.cpp"])
        texts = [_pdb_text(t) for t in trees]
        assert "safe_impl" in texts[0] and "fast_impl" not in texts[0]
        assert "fast_impl" in texts[1]

    def test_diagnosing_header_repeats_per_tu(self):
        """Subtrees that emit diagnostics are uncacheable: the warning
        must appear once per including TU, exactly as without the cache."""
        files = {
            "w.h": "#warning legacy header\nint legacy();\n",
            "a.cpp": '#include "w.h"\nint ua() { return legacy(); }\n',
            "b.cpp": '#include "w.h"\nint ub() { return legacy(); }\n',
        }
        fe = _frontend(files)
        fe.compile_many(["a.cpp", "b.cpp"])
        assert fe.header_cache.uncacheable == 2
        assert fe.header_cache.hits == 0
        assert [s.warning_count for s in fe.last_sinks] == [1, 1]

    def test_macro_records_replay_into_ma_items(self):
        """PDB ``ma`` items come from replayed MacroRecords — every TU
        must report the header's #defines identically."""
        files = {
            "m.h": "#define LIMIT 99\n#define TWICE(x) ((x) * 2)\nint m();\n",
            "a.cpp": '#include "m.h"\nint ua() { return m(); }\n',
            "b.cpp": '#include "m.h"\nint ub() { return m(); }\n',
        }
        fe = _frontend(files)
        trees = fe.compile_many(["a.cpp", "b.cpp"])
        assert fe.header_cache.hits == 1
        for tree in trees:
            names = [m.name for m in tree.macros]
            assert "LIMIT" in names and "TWICE" in names

    def test_consumed_files_replay_for_dep_hashing(self):
        """pdbbuild hashes ``last_consumed_files`` — a cache hit must
        report the same dependency set as a live compile."""
        files = {
            "inner.h": "int inner();\n",
            "outer.h": '#include "inner.h"\nint outer();\n',
            "a.cpp": '#include "outer.h"\nint ua() { return outer(); }\n',
            "b.cpp": '#include "outer.h"\nint ub() { return outer(); }\n',
        }
        fe = _frontend(files)
        fe.compile_many(["a.cpp", "b.cpp"])
        assert fe.header_cache.hits == 1
        names = [[f.name for f in consumed] for consumed in fe.last_consumed_files_per_tu]
        assert names[0] == ["a.cpp", "outer.h", "inner.h"]
        assert names[1] == ["b.cpp", "outer.h", "inner.h"]



def _guarded(name: str, body: str) -> str:
    guard = name.upper().replace(".", "_")
    return f"#ifndef {guard}\n#define {guard}\n{body}#endif\n"


def _per_tu_texts(files, order, cache) -> dict[str, str]:
    """Each TU's PDB text, compiling ``order`` on one shared Frontend."""
    fe = _frontend(files, cache=cache)
    return {main: _pdb_text(fe.compile(main)) for main in order}


class TestTuOrderIndependence:
    """A TU's PDB must not depend on which TUs a shared cache-on
    Frontend compiled before it."""

    def test_guard_read_survives_replay_into_outer_recording(self):
        """b.h's recording replays a.h's entry, which defines V_H.  The
        replay must still hand a.h's ``V_H: undefined`` dependency to
        b.h's entry first: otherwise t3 later replays that entry over an
        already included v.h and gets Vec (and its V_H macro) twice."""
        files = {
            "v.h": _guarded("v.h", "template <class T> class Vec { public: T x; };\n"),
            "a.h": _guarded("a.h", '#include "v.h"\nint a_use();\n'),
            "b.h": _guarded("b.h", '#include "v.h"\n#include "a.h"\nint b_use();\n'),
            "t1.cpp": '#include "v.h"\nint t1() { return 1; }\n',
            "t2.cpp": '#include "a.h"\nint t2() { return a_use(); }\n',
            "t3.cpp": '#include "b.h"\nint t3() { return b_use(); }\n',
        }
        order = ["t1.cpp", "t2.cpp", "t3.cpp"]
        cached = _per_tu_texts(files, order, cache=True)
        assert cached == _per_tu_texts(files, order, cache=False)
        assert cached["t3.cpp"].count("te#") == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_per_tu_text_matches_cache_off_for_any_tu_order(self, seed):
        """Nested guarded headers, each including a random subset of the
        earlier ones; TUs include random headers in random order."""
        rng = random.Random(seed)
        n_headers = 7
        files = {}
        for h in range(n_headers):
            deps = rng.sample(range(h), rng.randrange(min(h, 3) + 1))
            body = "".join(f'#include "h{d}.h"\n' for d in deps)
            body += f"#define H{h}_SIZE {h + 2}\n"
            body += f"template <class T> class Box{h} {{ public: T get(); }};\n"
            body += f"int f{h}(int v);\n"
            files[f"h{h}.h"] = _guarded(f"h{h}.h", body)
        mains = []
        for t in range(8):
            hs = rng.sample(range(n_headers), rng.randrange(1, 4))
            lines = [f'#include "h{h}.h"\n' for h in hs]
            lines += [
                f"int tu{t}_{h}() {{ Box{h}<int> b; return f{h}(H{h}_SIZE) + b.get(); }}\n"
                for h in hs
            ]
            files[f"tu{t}.cpp"] = "".join(lines)
            mains.append(f"tu{t}.cpp")
        reference = _per_tu_texts(files, mains, cache=False)
        for _ in range(5):
            order = rng.sample(mains, len(mains))
            assert _per_tu_texts(files, order, cache=True) == reference, order


class TestFrontendDriver:
    """The compile()/compile_many() satellite fixes."""

    def test_missing_main_file_raises_cleanly(self):
        fe = Frontend(FrontendOptions())
        with pytest.raises(FileNotFoundError):
            fe.compile("nonexistent_main.cpp")
        # the finally block must not trip over unbound locals, and the
        # dependency list must reflect that nothing was consumed
        assert fe.last_consumed_files == []
        assert fe.last_engine is None

    def test_missing_main_file_in_recovery_mode(self):
        fe = Frontend(FrontendOptions(fatal_errors=False))
        with pytest.raises(FileNotFoundError):
            fe.compile("nonexistent_main.cpp")

    def test_compile_many_accumulates_per_tu_sinks(self):
        files = {
            "a.cpp": "#warning from a\nint fa();\n",
            "b.cpp": "int fb();\n",
            "c.cpp": "#warning from c\nint fc();\n",
        }
        fe = _frontend(files)
        fe.compile_many(["a.cpp", "b.cpp", "c.cpp"])
        assert len(fe.last_sinks) == 3
        assert [s.warning_count for s in fe.last_sinks] == [1, 0, 1]
        # scalar attributes still reflect the last TU (back-compat)
        assert fe.last_sink is fe.last_sinks[-1]
        assert len(fe.last_engines) == 3
        assert [c[0].name for c in fe.last_consumed_files_per_tu] == [
            "a.cpp",
            "b.cpp",
            "c.cpp",
        ]
