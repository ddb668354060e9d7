"""Seeded multi-TU C++ project for the pipeline benchmark.

The project is shaped like a small application on a shared library:

* ``n_headers`` shared headers (``hK.h``).  Each one includes the
  mini-STL's ``<vector.h>``, may include another header, and
  defines two macros, a virtual hierarchy (``BaseK`` with a virtual
  destructor, ``MidK`` overriding it), a class template ``ContK<T>``
  holding a ``vector<T>``, and a function template ``foldK<T>``.
* ``n_tus`` translation units (``tuNN.cpp``).  Each includes a seeded
  subset of the headers, derives one local class per included header
  from ``MidK``, and instantiates ``ContK<T>``/``foldK<T>`` with seeded
  argument types.  The header classes and shared instantiations recur
  across TUs, so the merge has real but partial duplication.
* a small planted set of ``pdbcheck`` defects, one per rule in
  :data:`PLANTED_RULES`, at seeded places.

Only constructs that the repository's own workloads (``synth``,
``stack``, ``pooma``, ``defects``) already compile are used.  The same
``(seed, size)`` always yields the same bytes, and everything that
drives cost (TUs, the headers each TU includes directly and through
includes, instantiations per TU, distinct instantiations) is fixed by the
size, not drawn: seeds change names, argument types and placement, not
the amount of work (see :func:`generate`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: the mini-STL headers live under this directory, included as ``-I kai``
STL_DIR = "kai"
#: every project file (headers and TUs) lives here, so ``pdbhtml -s``
#: finds each one by its base name
PROJECT_DIR = "proj"

#: argument types the normal code instantiates templates with
ARG_TYPES = ("int", "long", "double", "char")
#: reserved for the planted unused instantiations, so no normal use
#: can make them live
PLANTED_TYPE = "float"

#: the rules the planted defects trigger; each contributes the
#: findings recorded in :attr:`Corpus.planted`
PLANTED_RULES = ("PDT001", "PDT011", "PDT012", "PDT021", "PDT031", "PDT032", "PDT041")


@dataclass(frozen=True)
class Size:
    """How big a project to generate."""

    n_headers: int
    n_tus: int
    headers_per_tu: int
    insts_per_tu: int


#: the benchmark's project, and the tiny one the smoke test builds
FULL = Size(n_headers=8, n_tus=24, headers_per_tu=3, insts_per_tu=3)
TINY = Size(n_headers=3, n_tus=4, headers_per_tu=2, insts_per_tu=3)


@dataclass
class Corpus:
    """Generated files plus the ground truth the checks compare against."""

    seed: int
    size: Size
    #: path -> text; paths are relative to the work directory
    files: dict[str, str] = field(default_factory=dict)
    #: translation units in build (merge) order
    sources: list[str] = field(default_factory=list)
    #: every class item name the merged PDB must hold
    classes: set[str] = field(default_factory=set)
    #: class-template instantiations, e.g. ``Cont3<long>``
    class_instantiations: set[str] = field(default_factory=set)
    #: function-template instantiations as (template name, argument type)
    function_instantiations: set[tuple[str, str]] = field(default_factory=set)
    #: planted findings: (rule id, file, line)
    planted: set[tuple[str, str, int]] = field(default_factory=set)
    #: project file -> routine definitions in it (one TAU timer each)
    definitions: dict[str, int] = field(default_factory=dict)
    #: names of the non-member routines (SILOON binds each)
    free_functions: set[str] = field(default_factory=set)
    #: routine names the edit-rebuild workload appended, in order
    edits: list[str] = field(default_factory=list)

    @property
    def lines(self) -> int:
        return sum(t.count("\n") for t in self.files.values())

    def project_files(self) -> list[str]:
        """The project's own files (what TAU rewrites), not the mini-STL."""
        return [p for p in self.files if p.startswith(PROJECT_DIR + "/")]

    def append_function(self, rng: random.Random) -> tuple[str, str]:
        """Append a new, distinct function to one seeded TU.

        Returns ``(path, new text)``; the caller writes it to disk."""
        path = rng.choice(self.sources)
        name = f"edit{len(self.edits)}_fn"
        k = rng.randrange(1, 100)
        text = self.files[path] + f"int {name}( int x ) {{ return x * {k} + 1; }}\n"
        self.files[path] = text
        self.edits.append(name)
        self.definitions[path] += 1
        self.free_functions.add(name)
        return path, text


def _header(k: int, lower: int | None, scale: int) -> str:
    inc = f'#include "h{lower}.h"\n' if lower is not None else ""
    return f"""\
#ifndef PB_H{k}_H
#define PB_H{k}_H

#include <vector.h>
{inc}
#define H{k}_SCALE {scale}
#define H{k}_MIX( a, b ) ( ( a ) * H{k}_SCALE + ( b ) )

class Base{k} {{
public:
    Base{k}( ) : weight_( H{k}_SCALE ) {{ }}
    virtual ~Base{k}( ) {{ }}
    virtual int eval( int x ) {{ return H{k}_MIX( x, weight_ ); }}
    int weight( ) const {{ return weight_; }}
protected:
    int weight_;
}};

class Mid{k} : public Base{k} {{
public:
    Mid{k}( ) {{ }}
    virtual ~Mid{k}( ) {{ }}
    int eval( int x ) {{ return x + weight( ); }}
}};

template <class T>
class Cont{k} {{
public:
    Cont{k}( ) : total_( 0 ) {{ }}
    void add( const T & v ) {{ items_.push_back( v ); total_ = total_ + v; }}
    T total( ) const {{ return total_; }}
    unsigned long count( ) const {{ return items_.size( ); }}
private:
    vector<T> items_;
    T total_;
}};

template <class T>
T fold{k}( const T & a, const T & b ) {{ return H{k}_MIX( a, b ); }}

#endif
"""


#: routine definitions in each shared header: Base (4), Mid (3),
#: Cont (4) and fold (1)
HEADER_DEFINITIONS = 12


def _line_of(text: str, needle: str) -> int:
    for n, line in enumerate(text.split("\n"), 1):
        if needle in line:
            return n
    raise ValueError(needle)


class _Lines:
    """A source file under construction that knows its line numbers."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, line: str = "") -> int:
        """Append one line; returns its 1-based number."""
        self.lines.append(line)
        return len(self.lines)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


#: seed of the project's shape, the same for every benchmark seed
SHAPE_SEED = 0


def generate(seed: int, size: Size = FULL) -> Corpus:
    """Generate the project for ``seed`` at ``size``.

    The shape -- which header includes which, which headers each TU
    includes, the pattern of instantiations and the TUs that hold the
    planted defects -- is drawn once from :data:`SHAPE_SEED`.  ``seed``
    relabels the headers, permutes the argument types and draws the
    constants, so every seed gives the same amount of work: a shape drawn
    per seed changes how many headers each TU pulls in through includes,
    and a build's time with it."""
    rng = random.Random(seed)
    shape = random.Random(SHAPE_SEED)
    c = Corpus(seed=seed, size=size)
    from repro.workloads.stl import KAI_INCLUDE_DIR, stl_files

    for path, text in sorted(stl_files().items()):
        c.files[STL_DIR + path[len(KAI_INCLUDE_DIR):]] = text

    # shape index k -> header number; shape type index -> argument type
    label = rng.sample(range(size.n_headers), size.n_headers)
    types = rng.sample(ARG_TYPES, len(ARG_TYPES))

    # closure[label[k]]: the headers a TU gets by including that header
    closure: dict[int, set[int]] = {}
    for k in range(size.n_headers):
        lower = shape.randrange(k) if k and shape.random() < 0.5 else None
        h = label[k]
        inc = None if lower is None else label[lower]
        closure[h] = {h} | (closure[inc] if inc is not None else set())
        path = f"{PROJECT_DIR}/h{h}.h"
        c.files[path] = _header(h, inc, rng.randrange(2, 9))
        c.definitions[path] = HEADER_DEFINITIONS

    # Every (template, type) pair is used at least once when the draws
    # allow it: a shuffle of all pairs, dealt round-robin, keeps the
    # number of distinct instantiations fixed for a given size.
    pairs = [(k, t) for k in range(size.n_headers) for t in range(len(ARG_TYPES))]
    shape.shuffle(pairs)
    deal = [pairs[i % len(pairs)] for i in range(size.n_tus * size.insts_per_tu)]

    n = size.n_tus
    # planted defects: distinct TUs where possible
    spots = shape.sample(range(n), min(n, 5)) + [0] * max(0, 5 - n)
    dead_tu, inst_tu, odr_tus, shape_tu = spots[0], spots[1], (spots[2], spots[3]), spots[4]
    width = len(str(n - 1))
    for i in range(n):
        path = f"{PROJECT_DIR}/tu{i:0{width}d}.cpp"
        dealt = deal[i * size.insts_per_tu : (i + 1) * size.insts_per_tu]
        need = sorted({k for k, _ in dealt})
        others = [k for k in range(size.n_headers) if k not in need]
        extra = max(0, size.headers_per_tu - len(need))
        headers = sorted(label[k] for k in need + shape.sample(others, min(extra, len(others))))
        insts = [(label[k], types[t]) for k, t in dealt]
        for k in set().union(*(closure[h] for h in headers)):
            c.classes.update({f"Base{k}", f"Mid{k}"})
        c.files[path] = _tu(c, rng, i, path, headers, insts, dead_tu, inst_tu, odr_tus, shape_tu)
        c.sources.append(path)
    c.free_functions.update(name for name, _ in c.function_instantiations)
    return c


def _tu(
    c: Corpus,
    rng: random.Random,
    i: int,
    path: str,
    headers: list[int],
    insts: list[tuple[int, str]],
    dead_tu: int,
    inst_tu: int,
    odr_tus: tuple[int, int],
    shape_tu: int,
) -> str:
    src = _Lines()
    for k in headers:
        src.add(f'#include "h{k}.h"')
    if i == inst_tu:
        empty = f"{PROJECT_DIR}/unused{c.seed % 1000}.h"
        c.files[empty] = "// every declaration moved out; the include stayed\n"
        c.definitions[empty] = 0
        src.add(f'#include "{empty.rsplit("/", 1)[1]}"')
        c.planted.add(("PDT041", empty, 1))
    src.add()

    for k in headers:
        name = f"Local{i}_{k}"
        src.add(f"class {name} : public Mid{k} {{")
        src.add("public:")
        src.add(f"    {name}( ) {{ }}")
        src.add(f"    int eval( int x ) {{ return x * {rng.randrange(2, 9)} + weight( ); }}")
        src.add("};")
        src.add()
        c.classes.add(name)

    defs = 2 * len(headers) + 1  # ctor and eval per local class, the entry
    entry_calls: list[str] = []
    if i == inst_tu:
        k = headers[0]
        header = f"{PROJECT_DIR}/h{k}.h"
        src.add(f"template class Cont{k}<{PLANTED_TYPE}>;")
        src.add(f"template {PLANTED_TYPE} fold{k}<{PLANTED_TYPE}>( {PLANTED_TYPE} );")
        # both findings point at the template definitions in the header
        c.planted.add(("PDT012", header, _line_of(c.files[header], f"class Cont{k} {{")))
        c.planted.add(("PDT011", header, _line_of(c.files[header], f"T fold{k}(")))
        c.class_instantiations.add(f"Cont{k}<{PLANTED_TYPE}>")
        c.classes.update({f"Cont{k}<{PLANTED_TYPE}>", f"vector<{PLANTED_TYPE}>"})
        c.function_instantiations.add((f"fold{k}", PLANTED_TYPE))
        src.add()
    if i in odr_tus:
        line = src.add(f"int tune( int x ) {{ return x + {1 + odr_tus.index(i)}; }}")
        c.planted.add(("PDT021", path, line))
        c.free_functions.add("tune")
        entry_calls.append("tune( acc )")
        defs += 1
        src.add()
    if i == dead_tu:
        a, b = f"drift{i}a", f"drift{i}b"
        # a routine is located at its first declaration
        lb = src.add(f"void {b}( int n );")
        la = src.add(f"void {a}( int n ) {{ if( n ) {b}( n - 1 ); }}")
        src.add(f"void {b}( int n ) {{ {a}( n ); }}")
        c.planted.update({("PDT001", path, la), ("PDT001", path, lb)})
        c.free_functions.update({a, b})
        defs += 2
        src.add()
    if i == shape_tu:
        shape, square, hider = f"Shape{i}", f"Square{i}", f"Hider{i}"
        src.add(f"class {shape} {{")
        src.add("public:")
        src.add(f"    {shape}( ) {{ }}")
        line = src.add(f"    ~{shape}( ) {{ }}")
        c.planted.add(("PDT031", path, line))
        src.add("    virtual int area( ) { return 0; }")
        src.add("};")
        src.add()
        src.add(f"class {square} : public {shape} {{")
        src.add("public:")
        src.add(f"    {square}( ) {{ }}")
        src.add("    int area( ) { return 4; }")
        src.add("};")
        src.add()
        src.add(f"class {hider} : public Base{headers[0]} {{")
        src.add("public:")
        src.add(f"    {hider}( ) {{ }}")
        line = src.add("    int eval( int x, int y ) { return x + y; }")
        c.planted.add(("PDT032", path, line))
        src.add("};")
        src.add()
        c.classes.update({shape, square, hider})
        defs += 7

    entry = "main" if i == 0 else f"tu{i}_entry"
    c.free_functions.add(entry)
    c.definitions[path] = defs
    src.add(f"int {entry}( ) {{")
    src.add("    int acc = 0;")
    for k in headers:
        src.add(f"    Local{i}_{k} l{k};")
        src.add(f"    Base{k} * p{k} = & l{k};")
        src.add(f"    acc = acc + p{k}->eval( {rng.randrange(1, 50)} );")
    for j, (k, t) in enumerate(insts):
        var = f"c{j}"
        src.add(f"    Cont{k}<{t}> {var};")
        src.add(f"    {var}.add( {rng.randrange(1, 50)} );")
        src.add(f"    {t} f{j} = fold{k}( {var}.total( ), {var}.total( ) );")
        src.add(f"    acc = acc + {var}.count( ) + f{j};")
        c.class_instantiations.add(f"Cont{k}<{t}>")
        c.classes.update({f"Cont{k}<{t}>", f"vector<{t}>"})
        c.function_instantiations.add((f"fold{k}", t))
    if i == shape_tu:
        src.add(f"    Square{i} sq;")
        src.add(f"    Shape{i} * sh = & sq;")
        src.add(f"    Hider{i} hd;")
        src.add("    acc = acc + sh->area( ) + hd.eval( acc, 1 );")
    for call in entry_calls:
        src.add(f"    acc = acc + {call};")
    src.add("    return acc;")
    src.add("}")
    return src.text()


def write(corpus: Corpus, root: str) -> None:
    """Write every file of ``corpus`` under directory ``root``."""
    import os

    for path, text in corpus.files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(text)
