"""Tests for the bytecode verifier and malformed-container rejection."""

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.bytecode import (
    assemble_program,
    check_container,
    load,
    verify_container,
)
from repro.bytecode.loader import disassemble_method, load_program
from repro.bytecode.opcodes import Instr
from repro.errors import IRError
from repro.lang import parse_program

from tests.conftest import FIGURE1_SOURCE


def _container(code, params=()):
    return {
        "version": 1,
        "entry": "A.m",
        "classes": [
            {
                "name": "A",
                "super": "",
                "library": False,
                "fields": ["f"],
                "methods": [
                    {
                        "name": "m",
                        "params": list(params),
                        "static": True,
                        "code": code,
                    }
                ],
            }
        ],
    }


class TestVerifier:
    def test_clean_container(self, figure1):
        assert verify_container(assemble_program(figure1)) == []

    def test_all_apps_verify(self):
        from repro.bench.apps import all_apps

        for app in all_apps():
            assert verify_container(assemble_program(app.program)) == [], app.name

    def test_bad_version(self):
        issues = verify_container({"version": 99})
        assert any("version" in i for i in issues)

    def test_unknown_opcode(self):
        issues = verify_container(_container([["fly"]]))
        assert any("unknown opcode" in i for i in issues)

    def test_wrong_arity(self):
        issues = verify_container(_container([["load"]]))
        assert any("operands" in i for i in issues)

    def test_stack_underflow(self):
        issues = verify_container(_container([["store", "x"]]))
        assert any("underflow" in i for i in issues)

    def test_residue_at_boundary(self):
        code = [["load", "p"], ["load", "p"], ["store", "x"]]
        issues = verify_container(_container(code, params=["p"]))
        assert any("statement boundary" in i for i in issues)

    def test_unclosed_block(self):
        issues = verify_container(_container([["loop", "L", "*", ""]]))
        assert any("unclosed block" in i for i in issues)

    def test_end_without_block(self):
        issues = verify_container(_container([["end"]]))
        assert any("end without" in i for i in issues)

    def test_else_outside_if(self):
        issues = verify_container(_container([["else"]]))
        assert any("else outside" in i for i in issues)

    def test_duplicate_else(self):
        code = [["if", "*", ""], ["else"], ["else"], ["end"]]
        issues = verify_container(_container(code))
        assert any("duplicate else" in i for i in issues)

    def test_bracket_on_nonempty_stack(self):
        code = [["load", "p"], ["if", "*", ""], ["end"], ["store", "x"]]
        issues = verify_container(_container(code, params=["p"]))
        assert any("non-empty stack" in i for i in issues)

    def test_unknown_class_in_new(self):
        issues = verify_container(_container([["new", "Ghost", 0, "s"], ["store", "x"]]))
        assert any("unknown class" in i for i in issues)

    def test_unknown_superclass(self):
        container = _container([["return"]])
        container["classes"][0]["super"] = "Ghost"
        issues = verify_container(container)
        assert any("extends unknown" in i for i in issues)

    def test_extends_cycle(self):
        container = _container([["return"]])
        container["classes"][0]["super"] = "B"
        container["classes"].append(
            {"name": "B", "super": "A", "library": False, "fields": [], "methods": []}
        )
        assert verify_container(container) == ["extends cycle: A extends B extends A"]

    def test_missing_entry(self):
        container = _container([["return"]])
        container["entry"] = "A.ghost"
        issues = verify_container(container)
        assert any("entry" in i for i in issues)

    def test_check_raises(self):
        with pytest.raises(IRError):
            check_container(_container([["end"]]))


class TestVerifierProperties:
    from hypothesis import HealthCheck, given, settings

    from tests.properties.strategies import loop_programs

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loop_programs())
    def test_assembled_random_programs_always_verify(self, source):
        from repro.lang import parse_program

        program = parse_program(source)
        assert verify_container(assemble_program(program)) == []


def _slot_paths(value, path=()):
    """The path of ``value`` and of every member and item inside it."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _slot_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _slot_paths(item, path + (index,))


def _replaced(container, path, value):
    """A deep copy of ``container`` with the slot at ``path`` replaced."""
    if not path:
        return value
    container = copy.deepcopy(container)
    part = container
    for key in path[:-1]:
        part = part[key]
    part[path[-1]] = value
    return container


#: Figure 1 as a container, decoded as ``load`` decodes a file.
_FIGURE1_CONTAINER = json.loads(
    json.dumps(assemble_program(parse_program(FIGURE1_SOURCE)))
)

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


class TestContainerShapes:
    """Every slot of a valid container (the container, each class, each
    method, their lists' items and each instruction's operands) replaced
    by a value of another JSON type makes ``load`` raise ``IRError``."""

    def test_the_container_loads(self, tmp_path):
        path = tmp_path / "prog.jbc"
        path.write_text(json.dumps(_FIGURE1_CONTAINER))
        assert load(str(path)).method("Main.main").loops()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(list(_slot_paths(_FIGURE1_CONTAINER))), _JSON_VALUES)
    def test_a_slot_of_another_type_is_invalid_bytecode(
        self, tmp_path_factory, path, value
    ):
        original = _FIGURE1_CONTAINER
        for key in path:
            original = original[key]
        assume(type(value) is not type(original))
        target = tmp_path_factory.mktemp("shape") / "prog.jbc"
        target.write_text(json.dumps(_replaced(_FIGURE1_CONTAINER, path, value)))
        with pytest.raises(IRError):
            load(str(target))


class TestLoadFile:
    """``load(path)`` verifies the container, then validates the program
    it loads to, as ``parse_program`` validates source."""

    def _write(self, tmp_path, container):
        path = tmp_path / "prog.jbc"
        path.write_text(json.dumps(container))
        return str(path)

    def test_rejects_what_the_verifier_rejects(self, tmp_path):
        container = _container([["return"]])
        container["classes"][0]["super"] = "Ghost"
        with pytest.raises(IRError, match="extends unknown Ghost"):
            load(self._write(tmp_path, container))

    def test_rejects_extends_cycle(self, tmp_path):
        container = _container([["return"]])
        container["classes"][0]["super"] = "A"
        with pytest.raises(IRError, match="extends cycle: A extends A"):
            load(self._write(tmp_path, container))

    def test_validates_the_loaded_program(self, tmp_path):
        """The verifier checks stack discipline, not def/use: the
        program-level validation catches a read of an unassigned local."""
        container = _container([["load", "ghost"], ["store", "x"], ["return"]])
        assert verify_container(container) == []
        with pytest.raises(IRError, match="'ghost' used but never defined"):
            load(self._write(tmp_path, container))


def _nested_loops(depth):
    """Code of ``depth`` loops ``L0`` ... nested in one another."""
    return [["loop", "L%d" % i, "*", ""] for i in range(depth)] + [
        ["end"]
    ] * depth


class TestNestingCap:
    """Loading, validation and the analyses recurse once per nesting
    level, so a container nested past the source parser's
    ``MAX_NESTING`` is invalid bytecode, as such source is a parse
    error, instead of a ``RecursionError`` deep in the loader."""

    def _load(self, tmp_path, depth):
        path = tmp_path / "deep.jbc"
        path.write_text(json.dumps(_container(_nested_loops(depth))))
        return load(str(path))

    def test_max_nesting_loads(self, tmp_path):
        from repro.lang.parser import MAX_NESTING

        program = self._load(tmp_path, MAX_NESTING)
        assert [loop.label for loop in program.method("A.m").loops()] == [
            "L%d" % i for i in range(MAX_NESTING)
        ]

    @pytest.mark.parametrize("depth", [201, 3000])
    def test_deeper_is_one_typed_issue(self, tmp_path, depth):
        from repro.lang.parser import MAX_NESTING

        assert depth > MAX_NESTING
        issue = "A.m[%d]: blocks nested more than %d deep" % (
            MAX_NESTING,
            MAX_NESTING,
        )
        assert verify_container(_container(_nested_loops(depth))) == [issue]
        with pytest.raises(IRError) as info:
            self._load(tmp_path, depth)
        assert str(info.value) == "invalid bytecode:\n  " + issue

    def test_each_block_opened_past_the_cap_is_named(self):
        from repro.lang.parser import MAX_NESTING

        code = _nested_loops(MAX_NESTING)
        inner = [["if", "*", ""], ["end"], ["loop", "X", "*", ""], ["end"]]
        code[MAX_NESTING:MAX_NESTING] = inner
        assert verify_container(_container(code)) == [
            "A.m[%d]: blocks nested more than %d deep" % (index, MAX_NESTING)
            for index in (MAX_NESTING, MAX_NESTING + 2)
        ]


class TestLoaderRejection:
    """The loader independently rejects what the verifier flags."""

    def test_loader_rejects_bad_version(self):
        with pytest.raises(IRError):
            load_program({"version": 99, "classes": []})

    def test_loader_rejects_underflow(self):
        with pytest.raises(IRError):
            disassemble_method([["store", "x"]])

    def test_loader_rejects_residue(self):
        with pytest.raises(IRError):
            disassemble_method([["load", "a"], ["load", "b"], ["store", "x"]])

    def test_loader_rejects_trailing_value(self):
        with pytest.raises(IRError):
            disassemble_method([["load", "a"]])

    def test_loader_rejects_unmatched_end(self):
        with pytest.raises(IRError):
            disassemble_method([["end"]])

    def test_loader_rejects_drop_of_non_call(self):
        with pytest.raises(IRError):
            disassemble_method([["load", "a"], ["drop"]])

    def test_instr_validation(self):
        with pytest.raises(ValueError):
            Instr("teleport")
        with pytest.raises(ValueError):
            Instr("load")  # missing operand
