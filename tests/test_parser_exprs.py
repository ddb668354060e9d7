"""Expression/statement parser tests: call extraction, lifetimes."""


from repro.cpp.il import RoutineKind
from tests.util import compile_source


def calls_of(tree, name):
    r = tree.find_routine(name)
    assert r is not None, f"routine {name} not found"
    return r.calls


def callee_names(tree, name):
    return [c.callee.name for c in calls_of(tree, name)]


class TestPlainCalls:
    def test_direct_call(self):
        tree = compile_source("int f() { return 1; }\nint g() { return f(); }")
        assert callee_names(tree, "g") == ["f"]

    def test_call_location(self):
        tree = compile_source("int f() { return 1; }\nint g() {\n  return f();\n}")
        call = calls_of(tree, "g")[0]
        assert call.location.line == 3

    def test_nested_calls(self):
        tree = compile_source(
            "int a() { return 1; }\nint b(int x) { return x; }\nint c() { return b(a()); }"
        )
        assert sorted(callee_names(tree, "c")) == ["a", "b"]

    def test_call_in_condition(self):
        tree = compile_source(
            "bool check() { return true; }\nvoid f() { if (check()) { } }"
        )
        assert callee_names(tree, "f") == ["check"]

    def test_call_in_loop(self):
        tree = compile_source(
            "int step() { return 1; }\nvoid f() { for (int i = 0; i < 3; i++) step(); }"
        )
        assert callee_names(tree, "f") == ["step"]

    def test_call_in_while(self):
        tree = compile_source(
            "bool more() { return false; }\nvoid f() { while (more()) { } }"
        )
        assert callee_names(tree, "f") == ["more"]

    def test_duplicate_callsite_locations_deduped(self):
        tree = compile_source("int f() { return 1; }\nint g() { return f() + f(); }")
        # two distinct locations: both recorded
        assert len(calls_of(tree, "g")) == 2

    def test_recursive_call(self):
        tree = compile_source("int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }")
        assert callee_names(tree, "fact") == ["fact"]

    def test_overload_resolution_by_arity(self):
        tree = compile_source(
            "void f(int) { }\nvoid f(int, int) { }\nvoid g() { f(1, 2); }"
        )
        call = calls_of(tree, "g")[0]
        assert len(call.callee.parameters) == 2

    def test_overload_resolution_prefers_type_match(self):
        tree = compile_source(
            "class C {};\nvoid f(C c) { }\nvoid f(int x) { }\n"
            "void g() { C c; f(c); }"
        )
        picked = [c.callee for c in calls_of(tree, "g") if c.callee.name == "f"]
        assert picked and picked[0].parameters[0].type.spelling() == "C"

    def test_default_args_allow_fewer(self):
        tree = compile_source("void f(int a, int b = 2) { }\nvoid g() { f(1); }")
        assert callee_names(tree, "g") == ["f"]


class TestMemberCalls:
    SRC = (
        "class C { public:\n"
        "  void m() { }\n"
        "  int get() const { return 0; }\n"
        "};\n"
    )

    def test_dot_call(self):
        tree = compile_source(self.SRC + "void f() { C c; c.m(); }")
        assert "m" in callee_names(tree, "f")

    def test_arrow_call(self):
        tree = compile_source(self.SRC + "void f(C* p) { p->m(); }")
        assert "m" in callee_names(tree, "f")

    def test_chained_member_access(self):
        tree = compile_source(
            "class Inner { public: int v() { return 1; } };\n"
            "class Outer { public: Inner inner; };\n"
            "int f() { Outer o; return o.inner.v(); }"
        )
        assert "v" in callee_names(tree, "f")

    def test_implicit_this_call(self):
        tree = compile_source(
            "class C { public: void a() { b(); } void b() { } };"
        )
        a = tree.find_routine("C::a")
        assert [c.callee.name for c in a.calls] == ["b"]

    def test_method_returning_object_chains(self):
        tree = compile_source(
            "class C { public: C& self() { return *this; } void done() { } };\n"
            "void f() { C c; c.self().done(); }"
        )
        names = callee_names(tree, "f")
        assert "self" in names and "done" in names

    def test_virtual_flag_on_call(self):
        tree = compile_source(
            "class B { public: virtual void v(); void nv(); };\n"
            "void f(B* b) { b->v(); b->nv(); }"
        )
        flags = {c.callee.name: c.is_virtual for c in calls_of(tree, "f")}
        assert flags == {"v": True, "nv": False}

    def test_inherited_member_call(self):
        tree = compile_source(
            "class A { public: void base_m() { } };\n"
            "class B : public A { };\n"
            "void f() { B b; b.base_m(); }"
        )
        assert "base_m" in callee_names(tree, "f")

    def test_static_call_via_qualifier(self):
        tree = compile_source(
            "class C { public: static int s() { return 1; } };\n"
            "int f() { return C::s(); }"
        )
        assert "s" in callee_names(tree, "f")


class TestOperatorCalls:
    def test_member_binary_operator(self):
        tree = compile_source(
            "class V { public: V operator+(const V& o); };\n"
            "void f() { V a, b; V c = a + b; }"
        )
        assert "operator+" in callee_names(tree, "f")

    def test_subscript_operator(self):
        tree = compile_source(
            "class A { public: int& operator[](int i); };\n"
            "void f() { A a; a[0] = 1; }"
        )
        assert "operator[]" in callee_names(tree, "f")

    def test_call_operator(self):
        tree = compile_source(
            "class F { public: int operator()(int x) { return x; } };\n"
            "int g() { F f; return f(1); }"
        )
        assert "operator()" in callee_names(tree, "g")

    def test_free_operator(self):
        tree = compile_source(
            "class S { };\n"
            "S& operator<<(S& s, int v) { return s; }\n"
            "void f() { S s; s << 1 << 2; }"
        )
        shifts = [c for c in calls_of(tree, "f") if c.callee.name == "operator<<"]
        assert len(shifts) == 2

    def test_comparison_operator(self):
        tree = compile_source(
            "class K { public: bool operator<(const K& o) const; };\n"
            "bool f() { K a, b; return a < b; }"
        )
        assert "operator<" in callee_names(tree, "f")

    def test_assignment_operator(self):
        tree = compile_source(
            "class C { public: C& operator=(const C& o); };\n"
            "void f() { C a, b; a = b; }"
        )
        assert "operator=" in callee_names(tree, "f")

    def test_builtin_ops_record_nothing(self):
        tree = compile_source("int f() { int a = 1, b = 2; return a + b * 3; }")
        assert calls_of(tree, "f") == []


def call_sequence(tree, name):
    """The routine's recorded calls in order: (callee, line, column)."""
    return [
        (c.callee.name, c.location.line, c.location.column)
        for c in calls_of(tree, name)
    ]


class TestOperatorCallOrder:
    """Operator calls are recorded in evaluation order: both operands
    first (right operand included), then the operator, left to right
    within a precedence level.  ``rcall`` rows keep this order."""

    V = (
        "class V { public: V operator+(const V& o); V operator-(const V& o);"
        " V operator*(const V& o); V operator->*(int m);"
        " V operator<(const V& o); V operator==(const V& o); };\n"
    )

    def test_additive_around_multiplicative(self):
        tree = compile_source(self.V + "void f() { V a, b, c, d; V r = a + b * c - d; }")
        assert call_sequence(tree, "f") == [
            ("operator*", 2, 38), ("operator+", 2, 34), ("operator-", 2, 42),
        ]

    def test_two_products_summed(self):
        tree = compile_source(self.V + "void f() { V a, b, c, d; V r = a * b + c * d; }")
        assert call_sequence(tree, "f") == [
            ("operator*", 2, 34), ("operator*", 2, 42), ("operator+", 2, 38),
        ]

    def test_relational_binds_tighter_than_equality(self):
        tree = compile_source(self.V + "void f() { V a, b, c; V r = a < b == c; }")
        assert call_sequence(tree, "f") == [("operator<", 2, 31), ("operator==", 2, 35)]
        tree = compile_source(self.V + "void f() { V a, b, c; V r = a == b < c; }")
        assert call_sequence(tree, "f") == [("operator<", 2, 36), ("operator==", 2, 31)]

    def test_pointer_to_member_binds_tightest(self):
        tree = compile_source(self.V + "void f() { V a, b; int m; V r = a * b ->* m; }")
        assert call_sequence(tree, "f") == [("operator->*", 2, 39), ("operator*", 2, 35)]
        tree = compile_source(self.V + "void f() { V a, b; int m; V r = a ->* m * b; }")
        assert call_sequence(tree, "f") == [("operator->*", 2, 35), ("operator*", 2, 41)]

    def test_free_shift_chain_is_left_associative(self):
        tree = compile_source(
            "class S { };\n"
            "S& operator<<(S& s, int v) { return s; }\n"
            "void f() { S s; int x, y; s << x << y; }"
        )
        assert call_sequence(tree, "f") == [("operator<<", 3, 29), ("operator<<", 3, 34)]


class TestLifetimes:
    """Constructor/destructor call extraction — paper Section 3.1's
    'lifetime' handling."""

    CLS = (
        "class Obj { public:\n"
        "  Obj() { }\n"
        "  Obj(int x) { }\n"
        "  ~Obj() { }\n"
        "};\n"
    )

    def test_default_ctor_on_declaration(self):
        tree = compile_source(self.CLS + "void f() { Obj o; }")
        kinds = [c.callee.kind for c in calls_of(tree, "f")]
        assert RoutineKind.CONSTRUCTOR in kinds

    def test_ctor_overload_with_args(self):
        tree = compile_source(self.CLS + "void f() { Obj o(5); }")
        ctor_calls = [
            c.callee for c in calls_of(tree, "f")
            if c.callee.kind is RoutineKind.CONSTRUCTOR
        ]
        assert ctor_calls and len(ctor_calls[0].parameters) == 1

    def test_dtor_at_scope_end(self):
        tree = compile_source(self.CLS + "void f() {\n  Obj o;\n}")
        dtors = [
            c for c in calls_of(tree, "f") if c.callee.kind is RoutineKind.DESTRUCTOR
        ]
        assert len(dtors) == 1
        # CLS is 5 lines; the closing brace is 3 lines into f
        assert dtors[0].location.line == 5 + 3

    def test_dtor_reverse_order(self):
        tree = compile_source(self.CLS + "void f() { Obj a; Obj b; }")
        dtors = [
            c for c in calls_of(tree, "f") if c.callee.kind is RoutineKind.DESTRUCTOR
        ]
        assert len(dtors) == 2

    def test_inner_scope_dtor(self):
        tree = compile_source(self.CLS + "void f() {\n  {\n    Obj o;\n  }\n  int x;\n}")
        dtors = [
            c for c in calls_of(tree, "f") if c.callee.kind is RoutineKind.DESTRUCTOR
        ]
        assert dtors[0].location.line == 5 + 4  # inner closing brace

    def test_temporary_ctor(self):
        tree = compile_source(self.CLS + "void f() { throw Obj(); }")
        kinds = [c.callee.kind for c in calls_of(tree, "f")]
        assert RoutineKind.CONSTRUCTOR in kinds

    def test_new_records_ctor(self):
        tree = compile_source(self.CLS + "Obj* f() { return new Obj(3); }")
        ctors = [
            c.callee for c in calls_of(tree, "f")
            if c.callee.kind is RoutineKind.CONSTRUCTOR
        ]
        assert ctors and len(ctors[0].parameters) == 1

    def test_delete_records_dtor(self):
        tree = compile_source(self.CLS + "void f(Obj* p) { delete p; }")
        kinds = [c.callee.kind for c in calls_of(tree, "f")]
        assert kinds == [RoutineKind.DESTRUCTOR]

    def test_ctor_initialiser_list(self):
        tree = compile_source(
            self.CLS
            + "class Holder { public: Holder() : member(7) { } private: Obj member; };"
        )
        holder_ctor = tree.find_class("Holder").constructors()[0]
        assert any(
            c.callee.kind is RoutineKind.CONSTRUCTOR and len(c.callee.parameters) == 1
            for c in holder_ctor.calls
        )

    def test_base_initialiser(self):
        tree = compile_source(
            "class Base { public: Base(int x) { } };\n"
            "class Derived : public Base { public: Derived() : Base(1) { } };"
        )
        dctor = tree.find_class("Derived").constructors()[0]
        assert any(c.callee.parent.name == "Base" for c in dctor.calls)

    def test_no_dtor_no_call(self):
        tree = compile_source("class Plain { public: Plain() { } };\nvoid f() { Plain p; }")
        kinds = [c.callee.kind for c in calls_of(tree, "f")]
        assert RoutineKind.DESTRUCTOR not in kinds


class TestMiscExpressions:
    def test_cast_expressions_parse(self):
        tree = compile_source(
            "void f() { int x = (int) 3.5; double d = static_cast<double>(x); }"
        )
        assert tree.find_routine("f").defined

    def test_sizeof(self):
        tree = compile_source("int f() { return sizeof(int) + sizeof(double); }")
        assert tree.find_routine("f").defined

    def test_ternary(self):
        tree = compile_source("int f(int x) { return x > 0 ? x : -x; }")
        assert tree.find_routine("f").defined

    def test_comma_in_for(self):
        tree = compile_source("void f() { for (int i = 0, j = 9; i < j; i++, j--) { } }")
        assert tree.find_routine("f").defined

    def test_switch(self):
        tree = compile_source(
            "int f(int x) { switch (x) { case 1: return 1; case 2: return 2; default: return 0; } }"
        )
        assert tree.find_routine("f").defined

    def test_do_while(self):
        tree = compile_source("void f() { int i = 0; do { i++; } while (i < 3); }")
        assert tree.find_routine("f").defined

    def test_try_catch(self):
        tree = compile_source(
            "class E {};\nvoid f() { try { int x = 1; } catch (const E& e) { } catch (...) { } }"
        )
        assert tree.find_routine("f").defined

    def test_string_and_char_literals(self):
        tree = compile_source('void f() { const char* s = "hi"; char c = \'x\'; }')
        assert tree.find_routine("f").defined

    def test_condition_declaration(self):
        tree = compile_source("void f(int* p) { if (int v = *p) { v++; } }")
        assert tree.find_routine("f").defined

    def test_enumerator_reference(self):
        tree = compile_source("enum E { A, B };\nint f() { return A + B; }")
        assert tree.find_routine("f").defined

    def test_address_of_function(self):
        tree = compile_source(
            "int target() { return 0; }\nvoid f() { int (*p)(void) = &target; }"
        )
        assert tree.find_routine("f").defined


class TestAdvancedResolution:
    def test_smart_pointer_operator_arrow(self):
        tree = compile_source(
            "class Payload { public: void work() { } };\n"
            "class SmartPtr {\n"
            "public:\n"
            "    Payload* operator->() { return raw; }\n"
            "private:\n"
            "    Payload* raw;\n"
            "};\n"
            "void f() { SmartPtr p; p->work(); }\n"
        )
        f = tree.find_routine("f")
        names = {c.callee.name for c in f.calls}
        assert "work" in names
        assert "operator->" in names  # the smart-pointer hop is a call too

    def test_nontemplate_overload_preferred_over_template(self):
        tree = compile_source(
            "template <class T> T pick(T v) { return v; }\n"
            "int pick(int v) { return v + 1; }\n"
            "int f() { return pick(3); }\n"
        )
        f = tree.find_routine("f")
        picked = next(c.callee for c in f.calls if c.callee.name == "pick")
        assert not picked.is_instantiation  # exact non-template wins

    def test_conversion_operator_parses_in_condition(self):
        tree = compile_source(
            "class Flag { public: operator bool() const { return true; } };\n"
            "int f() { Flag x; if (x) { return 1; } return 0; }\n"
        )
        assert tree.find_routine("f").defined

    def test_reference_local_records_no_lifetime(self):
        from repro.cpp.il import RoutineKind

        tree = compile_source(
            "class Obj { public: Obj() { } ~Obj() { } };\n"
            "void f(Obj& source) { Obj& alias = source; }\n"
        )
        f = tree.find_routine("f")
        kinds = [c.callee.kind for c in f.calls]
        assert RoutineKind.DESTRUCTOR not in kinds
        assert RoutineKind.CONSTRUCTOR not in kinds

    def test_pointer_local_records_no_lifetime(self):
        from repro.cpp.il import RoutineKind

        tree = compile_source(
            "class Obj { public: Obj() { } ~Obj() { } };\n"
            "void f() { Obj* p = new Obj(); delete p; }\n"
        )
        f = tree.find_routine("f")
        kinds = [c.callee.kind for c in f.calls]
        # exactly one ctor (new) and one dtor (delete); no scope-end dtor
        assert kinds.count(RoutineKind.CONSTRUCTOR) == 1
        assert kinds.count(RoutineKind.DESTRUCTOR) == 1

    def test_member_call_on_returned_temporary(self):
        tree = compile_source(
            "class Builder {\n"
            "public:\n"
            "    Builder& step() { return *this; }\n"
            "    int finish() { return 0; }\n"
            "};\n"
            "Builder make() { Builder b; return b; }\n"
            "int f() { return make().step().finish(); }\n"
        )
        f = tree.find_routine("f")
        names = [c.callee.name for c in f.calls]
        assert names.count("step") == 1
        assert "finish" in names and "make" in names
