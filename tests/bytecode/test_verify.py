"""Tests for the bytecode verifier and malformed-container rejection."""

import pytest

from repro.bytecode import assemble_program, check_container, verify_container
from repro.bytecode.loader import disassemble_method, load_program
from repro.bytecode.opcodes import Instr
from repro.errors import IRError


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


class TestLoadFile:
    """``load(path)`` verifies the container, then validates the program
    it loads to, as ``parse_program`` validates source."""

    def _write(self, tmp_path, container):
        import json

        path = tmp_path / "prog.jbc"
        path.write_text(json.dumps(container))
        return str(path)

    def test_rejects_what_the_verifier_rejects(self, tmp_path):
        from repro.bytecode import load

        container = _container([["return"]])
        container["classes"][0]["super"] = "Ghost"
        with pytest.raises(IRError, match="extends unknown Ghost"):
            load(self._write(tmp_path, container))

    def test_rejects_extends_cycle(self, tmp_path):
        from repro.bytecode import load

        container = _container([["return"]])
        container["classes"][0]["super"] = "A"
        with pytest.raises(IRError, match="extends cycle: A extends A"):
            load(self._write(tmp_path, container))

    def test_validates_the_loaded_program(self, tmp_path):
        """The verifier checks stack discipline, not def/use: the
        program-level validation catches a read of an unassigned local."""
        from repro.bytecode import load

        container = _container([["load", "ghost"], ["store", "x"], ["return"]])
        assert verify_container(container) == []
        with pytest.raises(IRError, match="'ghost' used but never defined"):
            load(self._write(tmp_path, container))


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
