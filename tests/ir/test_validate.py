"""Tests for repro.ir.validate."""

import pytest

from repro.errors import IRError
from repro.ir.builder import ProgramBuilder
from repro.ir.validate import check, validate_program
from repro.lang import parse_program


def _issues(source):
    return validate_program(parse_program(source, validate=False))


class TestValidation:
    def test_valid_program_clean(self):
        assert _issues("class A { method m(p) { x = p; return x; } }") == []

    def test_undefined_variable(self):
        issues = _issues("class A { method m() { x = y; } }")
        assert any("'y' used but never defined" in i for i in issues)

    def test_undefined_store_base(self):
        issues = _issues("class A { field f; method m(p) { q.f = p; } }")
        assert any("'q'" in i for i in issues)

    def test_unknown_allocated_class(self):
        issues = _issues("class A { method m() { x = new Ghost; } }")
        assert any("unknown class Ghost" in i for i in issues)

    def test_unknown_superclass(self):
        issues = _issues("class A extends Ghost { }")
        assert any("unknown class Ghost" in i for i in issues)

    def test_static_call_unknown_method(self):
        issues = _issues("class A { method m() { call A.nope(); } }")
        assert any("unknown method A.nope" in i for i in issues)

    def test_static_call_to_instance_method(self):
        issues = _issues(
            "class A { method inst() { return; } method m() { call A.inst(); } }"
        )
        assert any("static call to instance method" in i for i in issues)

    def test_virtual_call_without_target(self):
        issues = _issues("class A { method m(p) { call p.ghost(); } }")
        assert any("no target anywhere" in i for i in issues)

    def test_arity_mismatch(self):
        issues = _issues(
            "class A { method f(a, b) { return; } method m(p) { call p.f(p); } }"
        )
        assert any("passes 1 args, expected 2" in i for i in issues)

    def test_condition_variable_checked(self):
        issues = _issues("class A { method m() { if (nonnull ghost) { } } }")
        assert any("'ghost'" in i for i in issues)

    def test_check_raises(self):
        prog = parse_program("class A { method m() { x = y; } }", validate=False)
        with pytest.raises(IRError):
            check(prog)

    def test_unsealed_statement_detected(self):
        pb = ProgramBuilder()
        mb = pb.cls("A").method("m")
        mb.new("x", "A")
        prog = pb.build()
        # Simulate a statement added after sealing.
        from repro.ir.stmts import NullStmt

        prog.method("A.m").body.stmts.append(NullStmt("x"))
        issues = validate_program(prog)
        assert any("unsealed" in i for i in issues)

    def test_duplicate_loop_labels(self):
        issues = _issues(
            "class A { method m() { loop L { } loop L { } } }"
        )
        assert any("duplicate loop label" in i for i in issues)

    def test_duplicate_parameter(self):
        issues = _issues("class Main { static method put(h, p, p) { h.f = p; } }")
        assert issues == ["Main.put: duplicate parameter 'p'"]

    def test_parameter_named_this_on_instance_method(self):
        issues = _issues("class A { field f; method m(this) { this.f = this; } }")
        assert issues == ["A.m: parameter 'this' shadows the receiver"]

    def test_parse_program_rejects_repeated_parameter(self):
        # The interpreter bound the last argument to 'p' while the
        # detector merged both, reporting @B as well as @A.
        with pytest.raises(IRError, match="Main.put: duplicate parameter 'p'"):
            parse_program(
                "entry Main.main;\n"
                "class Main {\n"
                "  static method main() {\n"
                "    h = new Holder @h;\n"
                "    loop L (*) {\n"
                "      b = new Item @B; a = new Item @A;\n"
                "      call Main.put(h, b, a) @put;\n"
                "    }\n"
                "  }\n"
                "  static method put(h, p, p) { h.f = p; }\n"
                "}\n"
                "class Holder { field f; } class Item { }\n"
            )

    def test_parameter_named_this_on_static_method_is_plain(self):
        assert _issues("class A { static method m(this) { x = this; } }") == []

    def test_entry_resolution(self):
        issues = _issues("entry A.ghost;\nclass A { }")
        assert any("entry method" in i for i in issues)

    def test_arity_issues_follow_class_order(self):
        issues = _issues(
            "class B { method f(a) { return; } }"
            "class A { method f(a, b) { return; } method m(p) { call p.f(); } }"
        )
        assert issues == [
            "A.m: call to B.f passes 0 args, expected 1",
            "A.m: call to A.f passes 0 args, expected 2",
        ]


def _chain(depth):
    """``K0 <- K1 <- ... <- K<depth-1>``."""
    return "class K0 { } " + " ".join(
        "class K%d extends K%d { }" % (i, i - 1) for i in range(1, depth)
    )


class TestExtendsCycles:
    """A cyclic ``extends`` chain is malformed input: every later walk up
    the hierarchy (dispatch, subclass queries) would never end."""

    def test_two_class_cycle_names_its_classes(self):
        issues = _issues("class A extends B { } class B extends A { }")
        assert issues == ["extends cycle: A extends B extends A"]

    def test_self_extension(self):
        assert _issues("class A extends A { }") == ["extends cycle: A extends A"]

    def test_every_cycle_reported_once(self):
        issues = _issues(
            "class D extends C { } class C extends E { } class E extends C { }"
            "class Q extends P { } class P extends Q { } class Z extends D { }"
        )
        assert issues == [
            "extends cycle: C extends E extends C",
            "extends cycle: P extends Q extends P",
        ]

    def test_deep_chain_without_cycle_is_clean(self):
        assert _issues(_chain(3000)) == []

    def test_cycle_closing_a_deep_chain(self):
        source = _chain(3000).replace("class K0 { }", "class K0 extends K2999 { }")
        (issue,) = _issues(source)
        assert issue.startswith("extends cycle: K0 extends K2999 extends K2998")
        assert issue.endswith("K1 extends K0")

    def test_parse_program_rejects_cycle(self):
        with pytest.raises(IRError, match="extends cycle: A extends B extends A"):
            parse_program(
                "entry Main.main;\n"
                "class Main { static method main() { a = new A @s; } }\n"
                "class A extends B { } class B extends A { }"
            )


class TestDefiniteAssignment:
    def test_one_arm_definition_flagged_after_join(self):
        issues = _issues(
            "class A { method m() { if (*) { x = null; } else { } y = x; } }"
        )
        assert any("may be unassigned" in i for i in issues)

    def test_both_arms_definition_clean(self):
        issues = _issues(
            "class A { method m() { if (*) { x = null; } "
            "else { x = null; } y = x; } }"
        )
        assert issues == []

    def test_loop_body_definition_not_definite_after_loop(self):
        # The loop may run zero times.
        issues = _issues(
            "class A { method m() { loop L (*) { x = null; } y = x; } }"
        )
        assert any("may be unassigned" in i for i in issues)

    def test_use_before_def_across_back_edge(self):
        # First iteration reads x before any assignment.
        issues = _issues(
            "class A { method m() { loop L (*) { y = x; x = null; } } }"
        )
        assert any("may be unassigned" in i for i in issues)

    def test_def_before_loop_survives_back_edge(self):
        issues = _issues(
            "class A { method m() { x = null; loop L (*) { y = x; x = y; } } }"
        )
        assert issues == []

    def test_condition_variable_checked_at_branch(self):
        issues = _issues(
            "class A { method m() { if (*) { g = null; } else { } "
            "if (nonnull g) { } } }"
        )
        assert any(
            "condition variable" in i and "may be unassigned" in i
            for i in issues
        )

    def test_loop_condition_checked_at_header(self):
        issues = _issues(
            "class A { method m() { loop L (nonnull x) { x = null; } } }"
        )
        assert any("condition variable" in i for i in issues)

    def test_never_defined_keeps_original_message(self):
        issues = _issues("class A { method m() { x = y; } }")
        assert any("'y' used but never defined" in i for i in issues)
        assert not any("may be unassigned" in i for i in issues)

    def test_unreachable_code_stays_flow_insensitive(self):
        # After return: 'x' is assigned *somewhere*, so the unreachable
        # use is tolerated; a never-defined variable is still reported.
        issues = _issues(
            "class A { method m() { x = null; return; y = x; z = ghost; } }"
        )
        assert not any("may be unassigned" in i for i in issues)
        assert any("'ghost' used but never defined" in i for i in issues)

    def test_params_and_this_definitely_assigned(self):
        issues = _issues(
            "class A { field f; method m(p) { this.f = p; return this; } }"
        )
        assert issues == []

    # The issue order is that of a forward pass over the method's CFG in
    # reverse post-order, then the unreachable blocks by creation order.

    def test_else_arm_issues_before_then_arm_issues(self):
        issues = _issues(
            "class A { method m() { if (*) { x = null; a = t; } "
            "else { b = e; } y = x; } }"
        )
        assert issues == [
            "A.m: source 'e' used but never defined (stmt <CopyStmt uid=6 b = e>)",
            "A.m: source 't' used but never defined (stmt <CopyStmt uid=4 a = t>)",
            "A.m: source 'x' may be unassigned on some path "
            "(stmt <CopyStmt uid=7 y = x>)",
        ]

    def test_loop_body_issues_after_the_code_that_follows_the_loop(self):
        issues = _issues(
            "class A { method m() { loop L (nonnull h) { a = inner; } "
            "b = after; } }"
        )
        assert issues == [
            "A.m: condition variable 'h' used but never defined "
            "(stmt <LoopStmt uid=1 loop L>)",
            "A.m: source 'after' used but never defined "
            "(stmt <CopyStmt uid=4 b = after>)",
            "A.m: source 'inner' used but never defined "
            "(stmt <CopyStmt uid=3 a = inner>)",
        ]

    def test_returning_then_arm_reported_after_the_rest_of_its_method(self):
        issues = _issues(
            "class A { method m() { if (*) { a = t; return; } "
            "else { b = e; } c = rest; } }"
        )
        assert issues == [
            "A.m: source 'e' used but never defined (stmt <CopyStmt uid=6 b = e>)",
            "A.m: source 'rest' used but never defined "
            "(stmt <CopyStmt uid=7 c = rest>)",
            "A.m: source 't' used but never defined (stmt <CopyStmt uid=3 a = t>)",
        ]

    def test_code_after_an_if_whose_arms_both_return_is_unreachable(self):
        # Reachable, 'y = x' would read an 'x' only one arm assigns; as
        # unreachable code it only needs 'x' assigned somewhere.
        issues = _issues(
            "class A { method m() { if (*) { x = null; return; } "
            "else { return; } y = x; z = dead; } }"
        )
        assert issues == [
            "A.m: source 'dead' used but never defined "
            "(stmt <CopyStmt uid=8 z = dead>)",
        ]

    def test_unreachable_code_last_in_block_creation_order(self):
        # Each 'if' makes its then, else and join blocks before either
        # arm's, so the outer else and join come before the inner if.
        issues = _issues(
            "class A { method m() { return; if (*) { a = t; "
            "if (*) { b = tt; } else { c = te; } d = tj; } "
            "else { e = el; } f = join; } }"
        )
        assert [issue.split("'")[1] for issue in issues] == [
            "t", "el", "join", "tt", "te", "tj"
        ]
        assert issues[1] == (
            "A.m: source 'el' used but never defined "
            "(stmt <CopyStmt uid=12 e = el>)"
        )
        issues = _issues(
            "class A { method m() { if (*) { return; a = t; "
            "if (*) { b = tt; } else { c = te; } d = tj; } else { } "
            "f = live; } }"
        )
        assert [issue.split("'")[1] for issue in issues] == [
            "live", "t", "tt", "te", "tj"
        ]
