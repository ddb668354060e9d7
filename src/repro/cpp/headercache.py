"""Cross-TU header cache: memoized per-header preprocessing.

``compile_many``/shared-``Frontend`` builds preprocess and re-lex every
shared header once per translation unit.  The bulk of that work depends
only on (a) the header's text and (b) the definition state of the
macros the header's expansion actually *consults* — so a subtree of
preprocessing can be replayed into a later TU whenever both match
(cf. ClangJIT's memoization of frontend work across uses).

The cache intercepts the preprocessor at the ``#include`` boundary:

* on a **miss** it processes the subtree normally while recording every
  observable effect — the token stream, macro definitions/undefinitions
  (in order), ``MacroRecord`` events, files consumed, include-graph
  edges — plus the *read-set*: for every macro name whose state the
  subtree consulted (expansion checks, ``#ifdef``, ``defined``), the
  structural signature of the definition seen (or None for undefined);
* on a **lookup** an entry matches only if the header text is unchanged
  and every read-set entry matches the current macro state, so a
  ``#define`` before the ``#include`` that the header actually reads
  creates a separate variant (no false sharing), while unrelated macro
  churn does not;
* on a **hit** the recorded effects are replayed — identical tokens,
  identical macro-state transitions, identical PDB-visible side effects
  (``ma`` records, ``sinc`` edges, consumed-file order).

Include guards fall out naturally: the guarded second inclusion is its
own (empty-token) variant keyed on the guard macro being defined.
Subtrees that emit diagnostics are never cached, so warnings and errors
repeat per TU exactly as without the cache.  Reads are captured by
wrapping the preprocessor's macro table in a tracking dict, so the
expansion machinery itself is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: include-stack depth bound, mirrored from the preprocessor's limit so
#: replay validity can account for a cached subtree's own nesting
MAX_INCLUDE_DEPTH = 200

#: beyond this include depth the preprocessor processes live instead of
#: consulting the cache: the record path costs two Python frames per
#: nesting level, which a pathological near-limit chain (depth 200)
#: cannot afford, and real header graphs are far shallower — an outer
#: recording still tracks live-processed subtrees correctly
CACHE_DEPTH_LIMIT = 16


def _macro_sig(macro) -> Optional[tuple]:
    """Structural signature of a macro definition (None if undefined).

    Two definitions with equal signatures expand identically at any use
    site: parameter list, variadic flag, and the body's token kinds,
    spellings and spacing.  Body token *locations* are excluded — they
    never influence expansion output (expanded tokens take the
    invocation site's location).  Memoized on the macro object, which
    is immutable by convention (redefinition replaces it).
    """
    if macro is None:
        return None
    sig = getattr(macro, "_sig", None)
    if sig is None:
        sig = (
            None if macro.params is None else tuple(macro.params),
            macro.variadic,
            tuple(
                (t.kind, t.text, t.leading_space, t.at_line_start)
                for t in macro.body
            ),
        )
        macro._sig = sig
    return sig


class _TrackingMacros(dict):
    """The preprocessor's macro table, instrumented for read/write
    tracking.  With no recording active every operation is one extra
    attribute load and truth test over a plain dict."""

    __slots__ = ("cache",)

    def __contains__(self, name):
        recs = self.cache._recs
        if recs:
            _note_read(recs, name, dict.get(self, name))
        return dict.__contains__(self, name)

    def __getitem__(self, name):
        recs = self.cache._recs
        if recs:
            _note_read(recs, name, dict.get(self, name))
        return dict.__getitem__(self, name)

    def get(self, name, default=None):
        recs = self.cache._recs
        if recs:
            _note_read(recs, name, dict.get(self, name))
        return dict.get(self, name, default)

    def __setitem__(self, name, macro):
        for rec in self.cache._recs:
            rec.written.add(name)
            rec.macro_events.append(("def", name, macro))
        dict.__setitem__(self, name, macro)

    def pop(self, name, *default):
        for rec in self.cache._recs:
            rec.written.add(name)
            rec.macro_events.append(("undef", name))
        return dict.pop(self, name, *default)


def _note_read(recs: list, name: str, macro) -> None:
    """Record a macro-state consultation into every active recording
    that has not locally (re)defined the name — a locally-written macro
    is not an external dependency of that subtree."""
    sig = _macro_sig(macro)
    for rec in recs:
        if name in rec.written or name in rec.reads:
            continue
        rec.reads[name] = sig


@dataclass
class _Recording:
    """In-progress capture of one ``#include`` subtree."""

    base_depth: int  # include-stack size when the recording started
    records_start: int  # len(pp.macro_records) at start
    diag_start: int  # len(pp.sink.diagnostics) at start
    reads: dict = field(default_factory=dict)  # name -> signature | None
    written: set = field(default_factory=set)
    macro_events: list = field(default_factory=list)
    consumed: list = field(default_factory=list)  # first-use order
    consumed_seen: set = field(default_factory=set)
    edges: list = field(default_factory=list)  # (includer, includee)
    stack_checked: set = field(default_factory=set)
    #: nested resolutions: (spec, angled, includer, target, target_text)
    include_checks: list = field(default_factory=list)
    max_rel_depth: int = 0

    def note_file(self, file, abs_depth: int) -> None:
        if file not in self.consumed_seen:
            self.consumed_seen.add(file)
            self.consumed.append(file)
        rel = abs_depth - self.base_depth
        if rel > self.max_rel_depth:
            self.max_rel_depth = rel


@dataclass
class _Entry:
    """One cached (header text, macro environment) preprocessing variant."""

    src_text: str  # header text at record time (content check)
    reads: dict  # name -> signature the subtree observed
    macro_events: list  # ordered ("def", name, Macro) | ("undef", name)
    records: list  # MacroRecord objects appended by the subtree
    consumed: list  # files consumed, subtree-first-use order
    edges: list  # include-graph edges added
    tokens: list  # the subtree's output token stream
    stack_checked: frozenset  # files whose in-stack state was consulted
    include_checks: list  # nested resolutions to re-verify at lookup
    max_rel_depth: int  # deepest include nesting relative to the entry


class HeaderCache:
    """Frontend-scoped memo of preprocessed ``#include`` subtrees.

    One instance is shared by every ``Preprocessor`` a ``Frontend``
    creates, so headers preprocessed for one TU replay into the next.
    ``hits``/``misses``/``uncacheable`` feed ``repro.obs`` counters and
    the pdbbuild ``--stats-json`` ``header_cache`` section.
    """

    def __init__(self):
        self._entries: dict = {}  # SourceFile -> list[_Entry]
        self._recs: list[_Recording] = []  # active recordings, outermost first
        self.hits = 0
        self.misses = 0
        #: subtrees that emitted diagnostics and were not stored
        self.uncacheable = 0

    def wrap_macro_table(self) -> _TrackingMacros:
        """The macro dict a cache-enabled preprocessor must use."""
        table = _TrackingMacros()
        table.cache = self
        return table

    # -- the #include boundary -------------------------------------------

    def include(self, pp, target, loc) -> list:
        """Produce the token stream for ``#include``-ing ``target``:
        replay a matching cached variant, or process and record one."""
        stack = pp._include_stack
        for e in self._entries.get(target, ()):
            if e.src_text is not target.text and e.src_text != target.text:
                continue  # content changed in place: stale variant
            if len(stack) + e.max_rel_depth - 1 > MAX_INCLUDE_DEPTH:
                continue  # deeper context could trip the depth limit
            if any(f in e.stack_checked for f in stack):
                continue  # re-inclusion skips the subtree observed
            stale = False
            for spec, angled, includer, dep, dep_text in e.include_checks:
                # a re-registered or newly shadowing file changes what a
                # nested #include resolves to; an in-place text change
                # changes what it expands to — both invalidate the entry
                resolved = pp.manager.resolve_include(spec, angled, includer)
                if resolved is not dep or (
                    dep_text is not dep.text and dep_text != dep.text
                ):
                    stale = True
                    break
            if stale:
                continue
            macros = pp.macros
            ok = True
            for name, want in e.reads.items():
                # raw dict.get: the lookup itself must not record reads
                # into an outer recording (a hit propagates the entry's
                # read-set, which covers exactly what was consulted)
                have = _macro_sig(dict.get(macros, name))
                if have is not want and have != want:
                    ok = False
                    break
            if ok:
                return self._replay(pp, e)
        return self._record(pp, target, loc)

    def _replay(self, pp, e: _Entry) -> list:
        self.hits += 1
        recs = self._recs
        # the replayed subtree's dependencies are the outer recordings'
        # dependencies too (signatures just validated, so propagating the
        # stored ones is exact) — before the macro events below mark the
        # subtree's own #defines as written, which would drop reads made
        # ahead of them, such as an include guard's ``#ifndef``
        for name, sig in e.reads.items():
            for rec in recs:
                if name in rec.written or name in rec.reads:
                    continue
                rec.reads[name] = sig
        macros = pp.macros
        # applied through the tracking table, so any *outer* recording
        # in progress captures the same events it would have seen live
        for ev in e.macro_events:
            if ev[0] == "def":
                macros[ev[1]] = ev[2]
            else:
                macros.pop(ev[1], None)
        pp.macro_records.extend(e.records)
        consumed = pp.consumed_files
        for f in e.consumed:
            if f not in consumed:
                consumed.append(f)
        for a, b in e.edges:
            a.add_include(b)
            for rec in recs:
                rec.edges.append((a, b))
        if recs:
            depth = len(pp._include_stack)
            for rec in recs:
                rec.stack_checked |= e.stack_checked
                rec.include_checks.extend(e.include_checks)
                for f in e.consumed:
                    rec.note_file(f, depth + 1)
                rel = depth + e.max_rel_depth - rec.base_depth
                if rel > rec.max_rel_depth:
                    rec.max_rel_depth = rel
        return e.tokens

    def _record(self, pp, target, loc) -> list:
        self.misses += 1
        rec = _Recording(
            base_depth=len(pp._include_stack),
            records_start=len(pp.macro_records),
            diag_start=len(pp.sink.diagnostics),
        )
        self._recs.append(rec)
        try:
            tokens = pp._process_file(target, loc)
        finally:
            self._recs.pop()
        if len(pp.sink.diagnostics) != rec.diag_start:
            # diagnostics must repeat per TU; never cache such subtrees
            self.uncacheable += 1
            return tokens
        entry = _Entry(
            src_text=target.text,
            reads=rec.reads,
            macro_events=rec.macro_events,
            records=pp.macro_records[rec.records_start :],
            consumed=rec.consumed,
            edges=rec.edges,
            tokens=tokens,
            stack_checked=frozenset(rec.stack_checked),
            include_checks=rec.include_checks,
            max_rel_depth=rec.max_rel_depth,
        )
        self._entries.setdefault(target, []).append(entry)
        return tokens

    # -- introspection ----------------------------------------------------

    @property
    def entry_count(self) -> int:
        return sum(len(v) for v in self._entries.values())
