"""Declaration parsing: the top of the grammar, and the full Parser.

Handles namespaces, using-directives/declarations, classes (with bases,
access sections, friends, nested types), enums, typedefs, variables,
functions (declarations, definitions, out-of-line members, constructor
initialiser lists), linkage blocks, and the template grammar:

* class templates — body captured as a token slice *and* parsed once in
  dependent mode to build the "pattern" class (member shapes, needed for
  TE_STATMEM classification and tooling),
* function templates — signature parsed in dependent mode (deduction
  patterns), body captured,
* out-of-line member function / static data member templates,
* explicit and partial specializations,
* explicit instantiation directives (``template class Stack<int>;``),
  which instantiate *all* members (the SILOON workflow).

Instantiation itself lives in :mod:`repro.cpp.instantiate`; this parser
exposes the re-entry points the engine uses (``parse_class_definition``
with a pre-made target class, ``parse_function_body``).
"""

from __future__ import annotations

from typing import Optional

from repro.cpp.cpptypes import FunctionType, Type
from repro.cpp.diagnostics import CppError, DiagnosticSink, TooManyErrors
from repro.cpp.il import (
    Access,
    Class,
    ClassKind,
    Enum,
    Field,
    Namespace,
    Parameter,
    Routine,
    RoutineKind,
    SourceRange,
    Template,
    TemplateKind,
    TemplateParameter,
    Typedef,
    Variable,
    Virtuality,
)
from repro.cpp.scope import Binder
from repro.cpp.source import SourceLocation
from repro.cpp.stmtparse import StmtParserMixin
from repro.cpp.tokens import Token, TokenKind, tokens_to_text
from repro.cpp.typeparse import Declarator, DeclSpecs

_CLASS_KEYS = {"class": ClassKind.CLASS, "struct": ClassKind.STRUCT, "union": ClassKind.UNION}


class Parser(StmtParserMixin):
    """The complete C++-subset parser (decl + stmt + expr + type mixins)."""

    def __init__(self, tokens, tree, binder, sink, engine=None, register: bool = True):
        super().__init__(tokens, tree, binder, sink, engine)
        #: when False, created entities are linked into their parent scope
        #: but not recorded in the ILTree registries (pattern parses).
        self.register = register
        self.linkage = "C++"

    # -- registration helpers -------------------------------------------------

    def _reg_class(self, c: Class) -> Class:
        if self.register:
            self.tree.register_class(c)
        return c

    def _reg_routine(self, r: Routine) -> Routine:
        if self.register:
            self.tree.register_routine(r)
        return r

    # -- translation unit -------------------------------------------------------

    def parse_translation_unit(self) -> None:
        while not self.at_eof:
            start = self.pos
            try:
                self.parse_declaration()
            except TooManyErrors:
                raise
            except CppError as exc:
                if self.sink.fatal_errors:
                    raise
                # error recovery: record, resynchronise at the next ";"
                # (or, failing progress, the next token), keep going;
                # soft_error raises TooManyErrors once the cascade bound
                # is hit, which terminates the unit
                self.sink.soft_error(exc.message, exc.location)
                self._recover_to_next_declaration(start)
            if self.engine is not None:
                self.engine.drain()

    def _recover_to_next_declaration(self, error_start: int) -> None:
        """Error recovery resync: move to the next plausible declaration
        start — a line-initial decl keyword — or past the next top-level
        semicolon, whichever comes first.  Always makes progress."""
        from repro.cpp.parserbase import DECL_SPECIFIERS, TYPE_KEYWORDS

        starters = TYPE_KEYWORDS | DECL_SPECIFIERS | {
            "template", "namespace", "using", "class", "struct", "union", "enum"
        }
        if not self.at_eof:
            self.advance()
        while not self.at_eof:
            t = self.cur
            if t.is_punct(";"):
                self.advance()
                return
            if t.at_line_start and t.kind is TokenKind.IDENT and t.text in starters:
                return
            self.advance()
        if self.pos == error_start and not self.at_eof:  # paranoia
            self.advance()

    # -- declarations ------------------------------------------------------------

    def parse_declaration(self) -> None:
        t = self.cur
        if t.is_punct(";"):
            self.advance()
            return
        if t.is_ident("namespace"):
            self._parse_namespace()
            return
        if t.is_ident("using"):
            self._parse_using()
            return
        if t.is_ident("template"):
            self.parse_template_declaration()
            return
        if t.is_ident("extern") and self.peek(1).kind is TokenKind.STRING:
            self._parse_linkage_block()
            return
        if t.is_ident("typedef"):
            self._parse_typedef()
            return
        if t.is_ident("enum"):
            self._parse_enum()
            return
        if t.kind is TokenKind.IDENT and t.text in _CLASS_KEYS and self._is_class_definition():
            cls = self.parse_class_definition()
            self._parse_post_class_declarators(cls)
            return
        self._parse_simple_declaration()

    def _is_class_definition(self) -> bool:
        """class-key [name] followed by ``{`` or ``: bases {`` or ``;``
        (forward declaration) — as opposed to an elaborated type in a
        variable declaration (``class X x;``)."""
        i = 1
        if self.peek(i).kind is TokenKind.IDENT:
            i += 1
            # skip a template-id in the name (specializations handled in
            # the template grammar; defensive here)
            if self.peek(i).is_punct("<"):
                depth = 0
                while True:
                    tk = self.peek(i)
                    if tk.is_eof:
                        return False
                    if tk.is_punct("<"):
                        depth += 1
                    elif tk.is_punct(">"):
                        depth -= 1
                        if depth == 0:
                            i += 1
                            break
                    i += 1
        return self.peek(i).is_punct("{") or self.peek(i).is_punct(":") or self.peek(i).is_punct(";")

    # -- namespaces ------------------------------------------------------------------

    def _parse_namespace(self) -> None:
        kw = self.expect("namespace")
        if self.at_plain_ident() and self.peek(1).is_punct("="):
            # namespace alias: namespace A = B::C;
            alias = self.expect_ident()
            self.expect("=")
            parts: list[str] = []
            self.accept("::")
            parts.append(self.expect_ident().text)
            while self.accept("::"):
                parts.append(self.expect_ident().text)
            target = self.binder.resolve_scope_path(parts[:-1])
            resolved = None
            if isinstance(target, Namespace):
                resolved = Binder.find_in_namespace(target, parts[-1])
            elif len(parts) == 1:
                resolved = self.binder.lookup(parts[0])
            if isinstance(resolved, Namespace):
                self.binder.current_namespace.aliases[alias.text] = resolved
            else:
                self.sink.warn(f"namespace alias target not found: {'::'.join(parts)}", kw.location)
            self.expect(";")
            return
        name_tok = self.expect_ident() if self.at_plain_ident() else None
        name = name_tok.text if name_tok else "<anon>"
        loc = name_tok.location if name_tok else kw.location
        parent = self.binder.current_namespace
        ns = next((n for n in parent.namespaces if n.name == name), None)
        if ns is None:
            ns = Namespace(name, loc, parent)
            parent.namespaces.append(ns)
            if self.register:
                self.tree.register_namespace(ns)
            ns.position.header = SourceRange(kw.location, loc)
        open_tok = self.expect("{")
        body_begin = open_tok.location
        self.binder.enter_namespace(ns)
        try:
            while not self.at("}"):
                if self.at_eof:
                    raise CppError("unterminated namespace", kw.location)
                self.parse_declaration()
        finally:
            self.binder.exit_namespace()
        close = self.expect("}")
        ns.position.body = SourceRange(body_begin, close.location)
        if name == "<anon>":
            # anonymous namespace members are visible in the parent
            parent.using_namespaces.append(ns)

    def _parse_using(self) -> None:
        self.expect("using")
        if self.accept("namespace"):
            parts = [self.expect_ident().text]
            while self.accept("::"):
                parts.append(self.expect_ident().text)
            ns = self.binder.resolve_scope_path(parts)
            if isinstance(ns, Namespace):
                self.binder.current_namespace.using_namespaces.append(ns)
            else:
                self.sink.warn(f"using namespace target not found: {'::'.join(parts)}")
            self.expect(";")
            return
        # using-declaration: using std::cout;
        self.accept("::")
        parts = [self.expect_ident().text]
        while self.accept("::"):
            parts.append(self.expect_ident().text)
        self.expect(";")
        if len(parts) < 2:
            return
        binding = self.binder.lookup_qualified(parts[:-1], parts[-1])
        if binding is not None:
            self.binder.current_namespace.using_decls[parts[-1]] = binding

    def _parse_linkage_block(self) -> None:
        self.expect("extern")
        lang_tok = self.advance()  # the string literal
        lang = lang_tok.text.strip('"')
        saved = self.linkage
        self.linkage = lang
        try:
            if self.at("{"):
                self.advance()
                while not self.at("}"):
                    if self.at_eof:
                        raise CppError("unterminated linkage block", lang_tok.location)
                    self.parse_declaration()
                self.expect("}")
            else:
                self.parse_declaration()
        finally:
            self.linkage = saved

    # -- typedefs / enums ------------------------------------------------------------

    def _parse_typedef(self) -> None:
        self.expect("typedef")
        base = self.parse_type_specifier()
        while True:
            d = self.parse_declarator(base)
            td = Typedef(d.name, d.name_location or self.loc(), self.binder.current_scope, d.type or base)
            self._attach_typedef(td)
            if not self.accept(","):
                break
        self.expect(";")

    def _attach_typedef(self, td: Typedef) -> None:
        scope = self.binder.current_scope
        if isinstance(scope, Class):
            scope.inner_typedefs.append(td)
        else:
            scope.typedefs.append(td)
        if self.register:
            self.tree.register_typedef(td)

    def _parse_enum(self, access: Access = Access.NA) -> Enum:
        kw = self.expect("enum")
        name = self.expect_ident().text if self.at_plain_ident() else "<anon>"
        loc = self.loc()
        e = Enum(name, kw.location, self.binder.current_scope)
        e.access = access
        self.expect("{")
        next_value = 0
        while not self.at("}"):
            en = self.expect_ident()
            value = next_value
            if self.accept("="):
                toks: list[Token] = []
                while not self.at_any(",", "}"):
                    toks.append(self.advance())
                try:
                    value = int(tokens_to_text(toks), 0)
                except ValueError:
                    value = next_value
            e.enumerators.append((en.text, value))
            next_value = value + 1
            if not self.accept(","):
                break
        self.expect("}")
        # optional declarators after the enum body (rare) — skip to ";"
        if not self.at(";"):
            self.skip_to_semicolon()
        else:
            self.expect(";")
        scope = self.binder.current_scope
        if isinstance(scope, Class):
            scope.inner_enums.append(e)
        else:
            scope.enums.append(e)
        if self.register:
            self.tree.register_enum(e)
        return e

    # -- classes ------------------------------------------------------------------------

    def parse_class_definition(
        self,
        existing: Optional[Class] = None,
        attach_to_scope: bool = True,
    ) -> Class:
        """Parse ``class-key name [: bases] { members } ``.

        ``existing`` redirects the parse into a pre-created class — how
        the instantiation engine fills in ``Stack<int>`` from the class
        template's token slice (the class keeps its instantiation name).
        """
        key_tok = self.advance()
        kind = _CLASS_KEYS[key_tok.text]
        name_tok = self.expect_ident() if self.at_plain_ident() else None
        name = name_tok.text if name_tok else "<anon>"
        loc = name_tok.location if name_tok else key_tok.location
        # skip a template-id suffix on the name (specialization headers)
        if self.at("<"):
            self.try_parse_template_args()
        if self.at(";") and existing is None:
            # forward declaration (the ";" stays for the caller)
            prior = self._find_class_in_scope(name)
            if prior is not None:
                return prior
            cls = Class(name, loc, self.binder.current_scope, kind)
            self._attach_class(cls, attach_to_scope)
            return cls
        if existing is not None:
            cls = existing
            cls.kind = kind
        else:
            prior = self._find_class_in_scope(name)
            if prior is not None and not prior.defined:
                cls = prior
                cls.location = loc
            else:
                cls = Class(name, loc, self.binder.current_scope, kind)
                self._attach_class(cls, attach_to_scope)
        cls.position.header = SourceRange(key_tok.location, loc)
        if self.at(":"):
            self.advance()
            self._parse_base_clause(cls)
        open_tok = self.expect("{")
        cls.defined = True
        default_access = Access.PRIVATE if kind is ClassKind.CLASS else Access.PUBLIC
        self.binder.enter_class(cls)
        pending_bodies: list[tuple[Routine, int]] = []
        try:
            self._parse_member_list(cls, default_access, pending_bodies)
        finally:
            self.binder.exit_class()
        close = self.expect("}")
        cls.position.body = SourceRange(open_tok.location, close.location)
        cls.is_abstract = any(r.virtuality is Virtuality.PURE for r in cls.routines)
        # Delayed member body parsing (members may reference later members).
        self._handle_pending_bodies(cls, pending_bodies)
        return cls

    def _find_class_in_scope(self, name: str) -> Optional[Class]:
        scope = self.binder.current_scope
        if isinstance(scope, Class):
            return next((c for c in scope.inner_classes if c.name == name), None)
        return next((c for c in scope.classes if c.name == name), None)

    def _attach_class(self, cls: Class, attach_to_scope: bool) -> None:
        if attach_to_scope:
            scope = self.binder.current_scope
            if isinstance(scope, Class):
                scope.inner_classes.append(cls)
            else:
                scope.classes.append(cls)
        self._reg_class(cls)

    def _parse_base_clause(self, cls: Class) -> None:
        while True:
            access = Access.PRIVATE if cls.kind is ClassKind.CLASS else Access.PUBLIC
            virtual = False
            while True:
                if self.accept("virtual"):
                    virtual = True
                elif self.at_any("public", "protected", "private"):
                    access = Access(
                        {"public": "pub", "protected": "prot", "private": "priv"}[self.advance().text]
                    )
                else:
                    break
            base_type = self.parse_type_specifier()
            base_cls = base_type.class_decl()
            if base_cls is not None:
                cls.add_base(base_cls, access, virtual)
            elif base_type.is_dependent:
                pass  # dependent base in a template pattern: resolved at instantiation
            else:
                self.sink.warn(f"unknown base class {base_type.spelling()!r}", self.loc())
            if not self.accept(","):
                break

    def _parse_member_list(
        self, cls: Class, access: Access, pending_bodies: list[tuple[Routine, int]]
    ) -> None:
        current = access
        while not self.at("}"):
            if self.at_eof:
                raise CppError("unterminated class body", cls.location)
            if self.at_any("public", "protected", "private"):
                word = self.advance().text
                self.expect(":")
                current = Access({"public": "pub", "protected": "prot", "private": "priv"}[word])
                continue
            start = self.pos
            try:
                self._parse_member_declaration(cls, current, pending_bodies)
            except TooManyErrors:
                raise
            except CppError as exc:
                if self.sink.fatal_errors:
                    raise
                # member-level recovery: record, resynchronise at the next
                # ";" inside the class (balanced bodies skipped), so one
                # broken member does not take out the rest of the class
                self.sink.soft_error(exc.message, exc.location)
                if self.pos == start and not self.at_eof:
                    self.advance()
                self.skip_to_semicolon()

    def _parse_member_declaration(
        self, cls: Class, access: Access, pending_bodies: list[tuple[Routine, int]]
    ) -> None:
        t = self.cur
        if t.is_punct(";"):
            self.advance()
            return
        if t.is_ident("friend"):
            self._parse_friend(cls)
            return
        if t.is_ident("typedef"):
            mark_len = len(cls.inner_typedefs)
            self._parse_typedef()
            for td in cls.inner_typedefs[mark_len:]:
                td.access = access
            return
        if t.is_ident("enum"):
            self._parse_enum(access)
            return
        if t.is_ident("using"):
            self.skip_to_semicolon()
            return
        if t.is_ident("template"):
            self.parse_template_declaration(member_access=access)
            return
        if t.kind is TokenKind.IDENT and t.text in _CLASS_KEYS and self._is_class_definition():
            inner = self.parse_class_definition()
            inner.access = access
            self._parse_post_class_declarators(inner, access)
            return
        self._parse_member_func_or_field(cls, access, pending_bodies)

    def _parse_member_func_or_field(
        self, cls: Class, access: Access, pending_bodies: list[tuple[Routine, int]]
    ) -> None:
        start_tok = self.cur
        specs = self._parse_decl_spec_flags()
        # constructor / destructor / conversion have no decl-specifier type
        if self._at_ctor_name(cls) or self.at("~") or self.at_ident("operator"):
            base: Type = self.types.void
            d = self.parse_declarator(base)
            if not d.is_function and not d.is_destructor:
                raise CppError("expected member function declarator", start_tok.location)
            r = self._make_member_routine(cls, d, specs, access, start_tok, ctor_like=True)
            if not self._finish_member_routine(r, d, pending_bodies, start_tok):
                self.expect(";")
            return
        base = self.parse_type_specifier()
        while True:
            d = self.parse_declarator(base)
            if d.is_function:
                r = self._make_member_routine(cls, d, specs, access, start_tok, ctor_like=False)
                done = self._finish_member_routine(r, d, pending_bodies, start_tok)
                if done:
                    return
            else:
                self._make_field(cls, d, specs, access, base)
            if self.accept(","):
                continue
            break
        # bit-field / initialiser tails
        if self.at(":") or self.at("="):
            self.skip_to_semicolon()
            return
        self.expect(";")

    def _at_ctor_name(self, cls: Class) -> bool:
        if not self.at_plain_ident():
            return False
        raw = cls.name.split("<")[0]
        if self.cur.text != raw:
            return False
        j = 1
        if self.peek(j).is_punct("<"):
            depth = 0
            while True:
                tk = self.peek(j)
                if tk.is_eof:
                    return False
                if tk.is_punct("<"):
                    depth += 1
                elif tk.is_punct(">"):
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        return self.peek(j).is_punct("(")

    def _at_out_of_line_ctor_like(self) -> bool:
        """True at ``Name[<...>]::Name(`` or ``Name[<...>]::~Name`` — an
        out-of-line constructor/destructor declarator (no return type)."""
        if not self.at_plain_ident():
            return False
        name = self.cur.text
        i = 1
        if self.peek(i).is_punct("<"):
            depth = 0
            while True:
                tk = self.peek(i)
                if tk.is_eof:
                    return False
                if tk.is_punct("<"):
                    depth += 1
                elif tk.is_punct(">"):
                    depth -= 1
                    if depth == 0:
                        i += 1
                        break
                i += 1
        if not self.peek(i).is_punct("::"):
            return False
        i += 1
        if self.peek(i).is_punct("~"):
            return self.peek(i + 1).kind is TokenKind.IDENT and self.peek(i + 1).text == name
        return (
            self.peek(i).kind is TokenKind.IDENT
            and self.peek(i).text == name
            and self.peek(i + 1).is_punct("(")
        )

    def _parse_decl_spec_flags(self) -> DeclSpecs:
        specs = DeclSpecs()
        while True:
            if self.accept("static"):
                specs.storage = "static"
            elif self.accept("extern"):
                specs.storage = "extern"
            elif self.accept("virtual"):
                specs.is_virtual = True
            elif self.accept("inline"):
                specs.is_inline = True
            elif self.accept("explicit"):
                specs.is_explicit = True
            elif self.accept("mutable"):
                specs.is_mutable = True
            elif self.accept("register") or self.accept("auto"):
                pass
            else:
                return specs

    def _make_member_routine(
        self,
        cls: Class,
        d: Declarator,
        specs: DeclSpecs,
        access: Access,
        start_tok: Token,
        ctor_like: bool,
    ) -> Routine:
        raw = cls.name.split("<")[0]
        if d.is_destructor:
            kind = RoutineKind.DESTRUCTOR
            name = "~" + raw
        elif d.is_conversion:
            kind = RoutineKind.CONVERSION
            name = d.name
        elif d.is_operator:
            kind = RoutineKind.OPERATOR
            name = d.name
        elif ctor_like and d.name == raw:
            kind = RoutineKind.CONSTRUCTOR
            name = cls.name  # ctor of Stack<int> is named Stack<int>
        else:
            kind = RoutineKind.MEMBER
            name = d.name
        sig = d.type if isinstance(d.type, FunctionType) else self.types.function(
            self.types.void, [p.type for p in d.parameters], d.ellipsis, d.const
        )
        if kind is RoutineKind.CONSTRUCTOR:
            sig = self.types.function(
                self.types.class_type(cls), [p.type for p in d.parameters], d.ellipsis
            )
        # merge with a prior declaration (definition following decl)
        existing = self._match_declared_routine(cls, name, d)
        if existing is not None:
            r = existing
        else:
            r = Routine(name, d.name_location or start_tok.location, cls, sig, kind)
            cls.routines.append(r)
            self._reg_routine(r)
        r.signature = sig
        r.parameters = _merge_params(r.parameters, d.parameters)
        r.access = access
        r.linkage = self.linkage
        r.is_inline = r.is_inline or specs.is_inline
        r.is_explicit = specs.is_explicit
        r.is_const = d.const
        r.is_static_member = specs.storage == "static"
        r.storage = "NA"
        if specs.is_virtual:
            r.virtuality = Virtuality.VIRTUAL
        else:
            r.virtuality = self._inherited_virtuality(cls, name, r.virtuality)
        r.position.header = SourceRange(start_tok.location, self.peek(-1).location if self.pos > 0 else start_tok.location)
        return r

    def _inherited_virtuality(self, cls: Class, name: str, default: Virtuality) -> Virtuality:
        """An override of a virtual base method is itself virtual."""
        if default is not Virtuality.NO:
            return default
        for base, _, _ in cls.bases:
            for r in base.find_routines(name):
                if r.virtuality is not Virtuality.NO:
                    return Virtuality.VIRTUAL
        return default

    def _match_declared_routine(self, cls: Class, name: str, d: Declarator) -> Optional[Routine]:
        for r in cls.routines:
            if r.name != name:
                continue
            if (
                len(r.parameters) == len(d.parameters)
                and r.is_const == d.const
                and _same_param_types(r.parameters, d.parameters)
            ):
                return r
        return None

    def _finish_member_routine(
        self,
        r: Routine,
        d: Declarator,
        pending_bodies: list[tuple[Routine, int]],
        start_tok: Token,
    ) -> bool:
        """Handle what follows a member function declarator.  Returns True
        when the declaration is fully terminated (body or pure-specifier
        consumed its own ending); False when the caller still owns the
        ``,``/``;`` that follows a plain declaration."""
        if self.accept("="):
            if self.cur.kind is TokenKind.NUMBER and self.cur.text == "0":
                self.advance()
                r.virtuality = Virtuality.PURE
                self.expect(";")
            else:
                self.skip_to_semicolon()
            return True
        if self.at(":") or self.at("{"):
            # inline definition: capture the slice, parse after class end
            body_start = self.pos
            if self.at(":"):
                # ctor initialiser list: skip to the "{"
                while not self.at("{"):
                    if self.at_eof:
                        raise CppError("malformed constructor initialiser", start_tok.location)
                    if self.at("("):
                        self.skip_balanced("(")
                    else:
                        self.advance()
            close_idx = self.skip_balanced("{")
            r.body_tokens = (body_start, close_idx + 1)
            r.position.body = SourceRange(
                self.tokens[body_start].location, self.tokens[close_idx].location
            )
            pending_bodies.append((r, body_start))
            self.accept(";")  # tolerate a stray semicolon after the body
            return True
        return False

    def _handle_pending_bodies(self, cls: Class, pending: list[tuple[Routine, int]]) -> None:
        """Parse the delayed inline member bodies — immediately for
        ordinary classes, deferred to the engine for template patterns
        and used-mode instantiations."""
        if not self.register:
            return  # pattern parse: bodies stay as token slices
        for r, start in pending:
            if self.engine is not None and cls.is_instantiation:
                self.engine.defer_inline_body(r, cls)
            else:
                self.parse_function_body_at(r, start)

    def _make_field(
        self, cls: Class, d: Declarator, specs: DeclSpecs, access: Access, base: Type
    ) -> None:
        f = Field(
            d.name,
            d.name_location or self.loc(),
            cls,
            d.type or base,
            is_static=specs.storage == "static",
            is_mutable=specs.is_mutable,
        )
        f.access = access
        cls.fields.append(f)

    def _parse_friend(self, cls: Class) -> None:
        self.expect("friend")
        if self.cur.text in _CLASS_KEYS:
            self.advance()
            nm = self.expect_ident()
            binding = self.binder.lookup(nm.text)
            if isinstance(binding, Class):
                cls.friend_classes.append(binding)
            else:
                # forward-declares the class at namespace scope
                friend = Class(nm.text, nm.location, self.binder.current_namespace)
                self.binder.current_namespace.classes.append(friend)
                self._reg_class(friend)
                cls.friend_classes.append(friend)
            if self.at("<"):
                self.try_parse_template_args()
            self.expect(";")
            return
        # friend function: declares a namespace-scope function
        base = self.parse_type_specifier()
        d = self.parse_declarator(base)
        ns = self.binder.current_namespace
        existing = [r for r in ns.routines if r.name == d.name and len(r.parameters) == len(d.parameters)]
        if existing:
            r = existing[0]
        else:
            r = self._routine_from_declarator(d, DeclSpecs(), ns)
        cls.friend_routines.append(r)
        if self.at("{"):
            start = self.pos
            self.skip_balanced("{")
            r.position.body = SourceRange(self.tokens[start].location, self.peek(-1).location)
            self.parse_function_body_at(r, start)
        else:
            self.expect(";")

    def _parse_post_class_declarators(self, cls: Class, access: Access = Access.NA) -> None:
        """Variable declarators after a class definition: ``class X {} x;``."""
        if self.accept(";"):
            return
        base = self.types.class_type(cls)
        while True:
            d = self.parse_declarator(base)
            if d.name:
                v = Variable(d.name, d.name_location or self.loc(), self.binder.current_namespace, d.type or base)
                self.binder.current_namespace.variables.append(v)
                if self.register:
                    self.tree.register_variable(v)
            if not self.accept(","):
                break
        self.expect(";")

    # -- simple (non-class) declarations ------------------------------------------------

    def _parse_simple_declaration(self) -> None:
        start_tok = self.cur
        specs = self._parse_decl_spec_flags()
        if self._at_out_of_line_ctor_like():
            d = self.parse_declarator(self.types.void)
            self._out_of_line_member(d, specs, start_tok)
            return
        base = self.parse_type_specifier()
        while True:
            d = self.parse_declarator(base)
            if d.is_function:
                r = self._declare_or_define_function(d, specs, start_tok)
                if r is not None:
                    return  # body consumed; declaration complete
            elif d.qualifier:
                # out-of-line static data member definition: int C::count = 0;
                cls = self._resolve_qualifier_class(d.qualifier)
                if cls is not None:
                    for f in cls.fields:
                        if f.name == d.name:
                            f.flags = getattr(f, "flags", {})
                            f.flags["defined"] = True  # type: ignore[attr-defined]
            else:
                self._declare_variable(d, specs, base)
            if self.accept(","):
                continue
            break
        if self.at("="):
            self.skip_to_semicolon()
            return
        self.expect(";")

    def _declare_variable(self, d: Declarator, specs: DeclSpecs, base: Type) -> None:
        ns = self.binder.current_namespace
        existing = next((v for v in ns.variables if v.name == d.name), None)
        if existing is None and d.name:
            v = Variable(d.name, d.name_location or self.loc(), ns, d.type or base)
            v.storage = specs.storage
            ns.variables.append(v)
            if self.register:
                self.tree.register_variable(v)

    def _routine_from_declarator(
        self, d: Declarator, specs: DeclSpecs, scope
    ) -> Routine:
        kind = RoutineKind.OPERATOR if d.is_operator else RoutineKind.FUNCTION
        sig = d.type if isinstance(d.type, FunctionType) else self.types.function(
            self.types.void, [p.type for p in d.parameters], d.ellipsis
        )
        r = Routine(d.name, d.name_location or self.loc(), scope, sig, kind)
        r.parameters = d.parameters
        r.linkage = self.linkage
        r.storage = specs.storage if specs.storage != "NA" else "NA"
        r.is_inline = specs.is_inline
        if isinstance(scope, Namespace):
            scope.routines.append(r)
        self._reg_routine(r)
        return r

    def _declare_or_define_function(
        self, d: Declarator, specs: DeclSpecs, start_tok: Token
    ) -> Optional[Routine]:
        """Namespace-scope function declarator; returns the routine when a
        body was parsed (terminating the declaration)."""
        if d.qualifier:
            return self._out_of_line_member(d, specs, start_tok)
        ns = self.binder.current_namespace
        existing = [
            r for r in ns.routines
            if r.name == d.name
            and len(r.parameters) == len(d.parameters)
            and _same_param_types(r.parameters, d.parameters)
        ]
        r = existing[0] if existing else self._routine_from_declarator(d, specs, ns)
        r.parameters = d.parameters or r.parameters
        if isinstance(d.type, FunctionType):
            r.signature = d.type
        r.position.header = SourceRange(start_tok.location, self.peek(-1).location)
        if self.at("{"):
            start = self.pos
            close_idx = self.skip_balanced("{")
            r.position.body = SourceRange(
                self.tokens[start].location, self.tokens[close_idx].location
            )
            self.parse_function_body_at(r, start)
            return r
        return None

    def _out_of_line_member(
        self, d: Declarator, specs: DeclSpecs, start_tok: Token
    ) -> Optional[Routine]:
        """``ReturnType Class::member(...) { ... }`` for a non-template
        class (the template case goes through parse_template_declaration)."""
        cls = self._resolve_qualifier_class(d.qualifier)
        if cls is None:
            self.sink.warn(
                f"cannot resolve member qualifier for {d.name!r}", start_tok.location
            )
            if self.at("{"):
                self.skip_balanced("{")
            else:
                self.skip_to_semicolon()
            return None
        target = self._match_declared_routine_loose(cls, d)
        if target is None:
            # definition without in-class declaration: declare it now
            saved = self.binder.class_stack
            self.binder.class_stack = self.binder.class_stack + [cls]
            try:
                target = self._make_member_routine(cls, d, specs, Access.PUBLIC, start_tok, ctor_like=True)
            finally:
                self.binder.class_stack = saved
        target.location = d.name_location or start_tok.location
        target.position.header = SourceRange(start_tok.location, self.peek(-1).location)
        target.parameters = _merge_params(target.parameters, d.parameters) or target.parameters
        if self.at(":") or self.at("{"):
            body_start = self.pos
            while not self.at("{"):
                if self.at("("):
                    self.skip_balanced("(")
                else:
                    self.advance()
            close_idx = self.skip_balanced("{")
            target.position.body = SourceRange(
                self.tokens[body_start].location, self.tokens[close_idx].location
            )
            self.parse_function_body_at(target, body_start)
            return target
        self.expect(";")
        return target

    def _resolve_qualifier_class(
        self, qualifier: list[tuple[str, Optional[list[Type]]]]
    ) -> Optional[Class]:
        node = None
        for i, (name, args) in enumerate(qualifier):
            if i == 0:
                binding = self.binder.lookup(name)
            else:
                if isinstance(node, Namespace):
                    binding = Binder.find_in_namespace(node, name)
                elif isinstance(node, Class):
                    binding = Binder.find_in_class(node, name)
                else:
                    return None
            if isinstance(binding, list):
                templates = [t for t in binding if isinstance(t, Template)]
                if templates and args is not None and not any(a.is_dependent for a in args):
                    assert self.engine is not None
                    binding = self.engine.instantiate_class(templates[0], args, self.loc())
                else:
                    return None
            if isinstance(binding, (Namespace, Class)):
                node = binding
            elif isinstance(binding, Typedef):
                node = binding.underlying.class_decl()
            else:
                return None
        return node if isinstance(node, Class) else None

    def _match_declared_routine_loose(self, cls: Class, d: Declarator) -> Optional[Routine]:
        name = d.name
        if d.is_destructor:
            return cls.destructor()
        if name == cls.name.split("<")[0]:
            cands = cls.constructors()
        else:
            cands = [r for r in cls.routines if r.name == name]
        exact = [
            r for r in cands
            if len(r.parameters) == len(d.parameters) and r.is_const == d.const
        ]
        if exact:
            return exact[0]
        loose = [r for r in cands if len(r.parameters) == len(d.parameters)]
        return loose[0] if loose else (cands[0] if cands else None)

    # -- function bodies --------------------------------------------------------------------

    def parse_function_body_at(self, r: Routine, token_index: int) -> None:
        """Parse the body slice starting at ``token_index`` (at ``:`` for a
        ctor initialiser list, else at ``{``) into routine ``r``."""
        sub = Parser(self.tokens, self.tree, self.binder, self.sink, self.engine, self.register)
        sub.pos = token_index
        sub.linkage = self.linkage
        sub._parse_body_into(r)

    def _parse_body_into(self, r: Routine) -> None:
        saved_routine = self.binder.current_routine
        saved_blocks = self.binder.block_scopes
        self.binder.current_routine = r
        self.binder.block_scopes = []
        self.binder.push_block()
        try:
            for p in r.parameters:
                if p.name:
                    self.binder.declare_local(p.name, p.type, p.location or r.location)
            if r.kind is RoutineKind.CONSTRUCTOR and self.at(":"):
                self._parse_ctor_initialisers(r)
            self.parse_compound_statement()
            r.defined = True
        finally:
            close_loc = self.peek(-1).location if self.pos > 0 else r.location
            scope = self.binder.pop_block()
            # by-value class parameters die at function exit (reference
            # and pointer parameters own nothing — no lifetime ends)
            from repro.cpp.stmtparse import _owned_class

            self._record_scope_destructors(
                {k: v for k, v in scope.items() if _owned_class(v.type) is not None},
                close_loc,
            )
            self.binder.current_routine = saved_routine
            self.binder.block_scopes = saved_blocks

    def _parse_ctor_initialisers(self, r: Routine) -> None:
        """``: member(expr), Base(expr)`` — each initialiser of class type
        records a constructor call (lifetime handling)."""
        self.expect(":")
        cls = r.parent_class
        while True:
            nm = self.expect_ident()
            args: list = []
            if self.at("("):
                args = self._parse_call_args()
            target_type: Optional[Type] = None
            if cls is not None:
                member = cls.find_member(nm.text)
                if isinstance(member, Field):
                    target_type = member.type
                else:
                    for base, _, _ in cls.bases:
                        if base.name.split("<")[0] == nm.text or base.name == nm.text:
                            target_type = self.types.class_type(base)
                            break
            if target_type is not None:
                self._record_ctor(target_type, args, nm.location)
            if not self.accept(","):
                break

    # -- templates -----------------------------------------------------------------------------

    def parse_template_declaration(self, member_access: Access = Access.NA) -> None:
        """Everything starting with the ``template`` keyword."""
        kw_idx = self.pos
        kw = self.expect("template")
        self._template_kw_idx = kw_idx
        if not self.at("<"):
            # explicit instantiation: template class Stack<int>;
            self._parse_explicit_instantiation(kw)
            return
        params, params_end = self._parse_template_params()
        if not params:
            # template<> — explicit specialization
            self._parse_explicit_specialization(kw)
            return
        bindings: dict[str, Type] = {}
        for i, p in enumerate(params):
            if p.kind == "type":
                bindings[p.name] = self.types.template_param(p.name, i)
            else:
                bindings[p.name] = self.types.nontype_arg(p.name, dependent=True)
        if self.cur.text in _CLASS_KEYS and self._is_class_definition():
            self._parse_class_template(kw, params, params_end, bindings, member_access)
            return
        self._parse_function_template(kw, params, params_end, bindings, member_access)

    def _parse_template_params(self) -> tuple[list[TemplateParameter], SourceLocation]:
        self.expect("<")
        params: list[TemplateParameter] = []
        if self.at(">"):
            end = self.advance().location
            return params, end
        while True:
            if self.at_any("class", "typename"):
                self.advance()
                name = self.expect_ident().text if self.at_plain_ident() else f"<T{len(params)}>"
                default = None
                if self.accept("="):
                    default = self._collect_template_default()
                params.append(TemplateParameter("type", name, default))
            elif self.at("template"):
                # template template parameter: template<class> class C
                self.advance()
                self.skip_balanced("<")
                self.accept("class") or self.accept("typename")
                name = self.expect_ident().text if self.at_plain_ident() else f"<TT{len(params)}>"
                params.append(TemplateParameter("template", name))
            else:
                ptype = self.parse_type_specifier()
                ptype = self.parse_ptr_operators(ptype)
                name = self.expect_ident().text if self.at_plain_ident() else f"<N{len(params)}>"
                default = None
                if self.accept("="):
                    default = self._collect_template_default()
                params.append(TemplateParameter("nontype", name, default, ptype))
            if self.accept(","):
                continue
            end = self.expect(">").location
            return params, end

    def _collect_template_default(self) -> str:
        toks: list[Token] = []
        depth = 0
        while not self.at_eof:
            c = self.cur
            if depth == 0 and (c.is_punct(",") or c.is_punct(">")):
                break
            if c.text in ("(", "[", "<"):
                depth += 1
            elif c.text in (")", "]") or (c.is_punct(">") and depth > 0):
                depth -= 1
            toks.append(self.advance())
        return tokens_to_text(toks)

    def _parse_class_template(
        self,
        kw: Token,
        params: list[TemplateParameter],
        params_end: SourceLocation,
        bindings: dict[str, Type],
        member_access: Access,
    ) -> None:
        key_idx = self.pos
        key_tok = self.cur
        # peek the name
        name_tok = self.peek(1)
        name = name_tok.text if name_tok.kind is TokenKind.IDENT else "<anon>"
        # partial specialization? name followed by <
        is_partial = self.peek(2).is_punct("<")
        te = Template(name, name_tok.location, self.binder.current_scope, TemplateKind.CLASS)
        te.parameters = params
        te.access = member_access
        spec_args: list[Type] = []
        if is_partial:
            # parse the pattern args non-destructively
            mark = self.mark()
            self.advance()  # class key
            self.advance()  # name
            self.binder.push_tparams(bindings)
            try:
                spec_args = self.parse_template_args()
            except TooManyErrors:
                raise
            except CppError:
                spec_args = []
            finally:
                self.binder.pop_tparams()
                self.rewind(mark)
        # capture the full slice: class-key .. closing ";"
        end_idx = self._skip_class_definition_tokens()
        te.decl_tokens = (key_idx, end_idx)
        te.position.header = SourceRange(kw.location, params_end)
        body = _find_body_range(self.tokens, key_idx, end_idx)
        if body is not None:
            te.position.body = body
        te.text = _template_text(self.tokens, self._template_kw_idx, end_idx)
        # dependent-mode pattern parse (for member shapes)
        pattern = self._parse_pattern_class(key_idx, bindings)
        te.pattern = pattern  # type: ignore[attr-defined]
        scope = self.binder.current_scope
        if is_partial:
            primary = self._find_primary_template(name)
            te.spec_args = spec_args
            if primary is not None:
                te.primary = primary
                primary.specializations.append(te)
        if isinstance(scope, Namespace):
            scope.templates.append(te)
        else:
            scope_ns = self.binder.current_namespace
            scope_ns.templates.append(te)
        if self.register:
            self.tree.register_template(te)

    def _find_primary_template(self, name: str) -> Optional[Template]:
        b = self.binder.lookup(name)
        if isinstance(b, list):
            for t in b:
                if isinstance(t, Template) and t.kind is TemplateKind.CLASS and not t.is_specialization:
                    return t
        return None

    def _skip_class_definition_tokens(self) -> int:
        """From the class-key, skip the whole definition through ``;``;
        returns the index one past the ``;``."""
        self.advance()  # class-key
        if self.at_plain_ident():
            self.advance()
        if self.at("<"):
            self.skip_balanced("<")
        if self.at(":"):
            while not self.at("{") and not self.at_eof:
                if self.at("<"):
                    self.skip_balanced("<")
                else:
                    self.advance()
        if self.at("{"):
            self.skip_balanced("{")
        self.expect(";")
        return self.pos

    def _parse_pattern_class(self, key_idx: int, bindings: dict[str, Type]) -> Optional[Class]:
        """Parse the class template body in dependent mode to learn member
        shapes.  The pattern is linked nowhere in the IL registries."""
        sub = Parser(self.tokens, self.tree, self.binder, DiagnosticSink(fatal_errors=False), self.engine, register=False)
        sub.pos = key_idx
        sub.linkage = self.linkage
        self.binder.push_tparams(bindings)
        try:
            pattern = sub.parse_class_definition(attach_to_scope=False)
            # remove the pattern from the registries the helper reached
            if pattern in self.tree.all_classes:
                self.tree.all_classes.remove(pattern)
            return pattern
        except TooManyErrors:
            raise
        except CppError:
            return None
        finally:
            self.binder.pop_tparams()

    def _parse_function_template(
        self,
        kw: Token,
        params: list[TemplateParameter],
        params_end: SourceLocation,
        bindings: dict[str, Type],
        member_access: Access,
    ) -> None:
        """A function template, member-function template, or static data
        member template, out-of-line or free."""
        sig_idx = self.pos
        # dependent-mode parse of the signature
        self.binder.push_tparams(bindings)
        try:
            specs = self._parse_decl_spec_flags()
            if self._at_out_of_line_ctor_like():
                base: Type = self.types.void
            else:
                base = self.parse_type_specifier()
            d = self.parse_declarator(base)
        finally:
            self.binder.pop_tparams()
        loc = d.name_location or kw.location
        if d.qualifier:
            owner = self._find_qualifier_class_template(d.qualifier)
        else:
            owner = None
        if d.is_function:
            if owner is not None:
                kind = TemplateKind.MEMBER_FUNCTION
                pattern = getattr(owner, "pattern", None)
                if pattern is not None:
                    for r in pattern.routines:
                        if r.name == d.name and r.is_static_member:
                            kind = TemplateKind.STATIC_MEMBER
                            break
            else:
                kind = TemplateKind.FUNCTION
        else:
            kind = TemplateKind.STATIC_MEMBER if owner is not None else TemplateKind.FUNCTION
        te = Template(d.name, loc, self.binder.current_scope, kind)
        te.parameters = params
        te.access = member_access
        te.owner_class_template = owner
        te.sig_declarator = d  # type: ignore[attr-defined]
        te.sig_specs = specs  # type: ignore[attr-defined]
        te.sig_index = sig_idx  # type: ignore[attr-defined]
        te.position.header = SourceRange(kw.location, params_end)
        # capture through the body / ";"
        if self.at(":"):
            while not self.at("{") and not self.at_eof:
                if self.at("("):
                    self.skip_balanced("(")
                else:
                    self.advance()
        if self.at("{"):
            body_start_tok = self.cur
            close_idx = self.skip_balanced("{")
            te.position.body = SourceRange(body_start_tok.location, self.tokens[close_idx].location)
            te.decl_tokens = (sig_idx, self.pos)
        elif self.at("="):
            # static data member template definition: ... = init;
            self.skip_to_semicolon()
            te.decl_tokens = (sig_idx, self.pos)
        else:
            self.expect(";")
            te.decl_tokens = (sig_idx, self.pos)
        te.text = _template_text(self.tokens, self._template_kw_idx, self.pos)
        scope = self.binder.current_scope
        if isinstance(scope, Namespace):
            scope.templates.append(te)
        else:
            self.binder.current_namespace.templates.append(te)
        if owner is not None:
            owner.specializations  # noqa: B018 — touch to ensure attr exists
        if self.register:
            self.tree.register_template(te)

    def _find_qualifier_class_template(
        self, qualifier: list[tuple[str, Optional[list[Type]]]]
    ) -> Optional[Template]:
        name = qualifier[-1][0]
        b = self.binder.lookup(name)
        if isinstance(b, list):
            for t in b:
                if isinstance(t, Template) and t.kind is TemplateKind.CLASS and not t.is_specialization:
                    return t
        return None

    def _parse_explicit_specialization(self, kw: Token) -> None:
        """``template<> class Stack<char> { ... };`` or a function spec.

        Explicit specializations are ordinary entities, not templates: we
        do *not* register a te item.  Entities they produce therefore have
        no recoverable originating template — the paper's documented
        limitation (Section 3.1)."""
        if self.cur.text in _CLASS_KEYS:
            key_tok = self.cur
            name_tok = self.peek(1)
            # parse the specialization args
            mark = self.mark()
            self.advance()
            self.advance()
            args: list[Type] = []
            if self.at("<"):
                try:
                    args = self.parse_template_args()
                except TooManyErrors:
                    raise
                except CppError:
                    args = []
            self.rewind(mark)
            primary = self._find_primary_template(name_tok.text)
            spec_name = name_tok.text + "<" + ", ".join(a.spelling() for a in args) + ">"
            cls = Class(spec_name, name_tok.location, self.binder.current_scope)
            cls.is_instantiation = True
            cls.is_specialization = True
            cls.template_args = args
            cls.template_of = primary  # ground truth only; analyzer must fail to match
            self._attach_class(cls, attach_to_scope=True)
            self.parse_class_definition(existing=cls)
            if primary is not None and self.engine is not None:
                self.engine.register_explicit_specialization(primary, args, cls)
            self.accept(";")
            return
        # function specialization: template<> void f<int>(...) {...}
        specs = self._parse_decl_spec_flags()
        base = self.parse_type_specifier()
        d = self.parse_declarator(base)
        r = self._routine_from_declarator(d, specs, self.binder.current_namespace)
        r.is_specialization = True
        r.is_instantiation = True
        if self.at("{"):
            start = self.pos
            self.skip_balanced("{")
            r.position.body = SourceRange(self.tokens[start].location, self.peek(-1).location)
            self.parse_function_body_at(r, start)
        else:
            self.expect(";")

    def _parse_explicit_instantiation(self, kw: Token) -> None:
        """``template class Stack<int>;`` — instantiate everything."""
        assert self.engine is not None
        if self.cur.text in _CLASS_KEYS:
            self.advance()
            name_tok = self.expect_ident()
            args = self.parse_template_args() if self.at("<") else []
            b = self.binder.lookup(name_tok.text)
            template = None
            if isinstance(b, list):
                for t in b:
                    if isinstance(t, Template) and t.kind is TemplateKind.CLASS and not t.is_specialization:
                        template = t
                        break
            if template is None:
                self.sink.warn(f"unknown template {name_tok.text!r}", name_tok.location)
            else:
                cls = self.engine.instantiate_class(template, args, name_tok.location)
                self.engine.instantiate_all_members(cls)
            self.expect(";")
            return
        # explicit function instantiation: template void f<int>(...);
        base = self.parse_type_specifier()
        d = self.parse_declarator(base)
        explicit_args = getattr(d, "qualifier_args", None)
        b = self.binder.lookup(d.name)
        if isinstance(b, list):
            for t in b:
                if isinstance(t, Template) and t.kind in (TemplateKind.FUNCTION, TemplateKind.STATIC_MEMBER):
                    self.engine.instantiate_function_template(
                        t, [p.type for p in d.parameters], explicit_args, d.name_location or kw.location
                    )
                    break
        self.expect(";")


def _merge_params(old: list[Parameter], new: list[Parameter]) -> list[Parameter]:
    """A definition's parameter list inherits the declaration's default
    arguments (defaults appear only on the declaration in C++)."""
    if len(old) != len(new):
        return new
    for po, pn in zip(old, new):
        if pn.default_text is None and po.default_text is not None:
            pn.default_text = po.default_text
    return new


def _same_param_types(a, b) -> bool:
    """Parameter lists denote the same overload (by type spelling)."""
    return all(
        pa.type.spelling() == pb.type.spelling() for pa, pb in zip(a, b)
    )


def _find_body_range(tokens: list[Token], start: int, end: int):
    """Locate the outermost { ... } within a token slice."""
    depth = 0
    open_loc = None
    close_loc = None
    for i in range(start, min(end, len(tokens))):
        t = tokens[i]
        if t.is_punct("{"):
            if depth == 0:
                open_loc = t.location
            depth += 1
        elif t.is_punct("}"):
            depth -= 1
            if depth == 0:
                close_loc = t.location
    if open_loc is not None and close_loc is not None:
        return SourceRange(open_loc, close_loc)
    return None


def _template_text(tokens: list[Token], kw_idx: int, end: int, limit: int = 2000) -> str:
    """PDB ``ttext``: the full template declaration text, from the
    ``template`` keyword through the end of the captured slice."""
    text = tokens_to_text(tokens[kw_idx:end]).strip()
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text
