"""Loader/disassembler: bytecode container -> structured IR.

Loading reconstructs the structured IR exactly, because the bytecode is
itself structured (bracketed blocks).  The loader runs a small abstract
stack to fold stack sequences back into three-address statements, and
rejects malformed code with :class:`repro.errors.IRError` — malformed
meaning anything the verifier would flag: stack underflow, residue at a
statement boundary, unbalanced blocks, or an unknown container version.
"""

from repro.bytecode import opcodes as op
from repro.bytecode.assemble import CONTAINER_VERSION
from repro.bytecode.verify import check_container
from repro.errors import IRError
from repro.ir.program import ClassDecl, Method, Program
from repro.ir.stmts import (
    Block,
    Cond,
    CopyStmt,
    IfStmt,
    InvokeStmt,
    LoadStmt,
    LoopStmt,
    NewStmt,
    NullStmt,
    ReturnStmt,
    StoreNullStmt,
    StoreStmt,
)
from repro.ir.types import OBJECT_CLASS, RefType
from repro.ir.validate import check


class _Value:
    """Symbolic operand-stack values used during disassembly."""

    VAR = "var"
    NULL = "null"
    NEW = "new"
    CALL = "call"

    __slots__ = ("kind", "payload")

    def __init__(self, kind, payload=None):
        self.kind = kind
        self.payload = payload


class _Disassembler:
    def __init__(self, code):
        self._code = [op.Instr.from_list(i) for i in code]
        self._pos = 0

    def run(self):
        block, terminator = self._block()
        if terminator is not None:
            raise IRError("unmatched %r at top level" % terminator)
        return block

    # -- block structure -----------------------------------------------------

    def _block(self):
        """Parse until END/ELSE/eof; returns (Block, terminator_or_None)."""
        stmts = []
        while self._pos < len(self._code):
            instr = self._code[self._pos]
            if instr.op in (op.END, op.ELSE):
                self._pos += 1
                return Block(stmts), instr.op
            stmts.append(self._statement())
        return Block(stmts), None

    def _cond(self, kind, var):
        if kind == Cond.NONDET:
            return Cond()
        return Cond(kind, var)

    def _statement(self):
        instr = self._code[self._pos]
        if instr.op == op.IF:
            self._pos += 1
            kind, var = instr.args
            then_block, term = self._block()
            else_block = Block()
            if term == op.ELSE:
                else_block, term = self._block()
            if term != op.END:
                raise IRError("if block not closed by end")
            return IfStmt(self._cond(kind, var or None), then_block, else_block)
        if instr.op == op.LOOP:
            self._pos += 1
            label, kind, var = instr.args
            body, term = self._block()
            if term != op.END:
                raise IRError("loop block not closed by end")
            return LoopStmt(label, body, self._cond(kind, var or None))
        return self._simple_statement()

    # -- straight-line reconstruction ----------------------------------------

    def _simple_statement(self):
        """Fold one stack sequence back into a three-address statement."""
        stack = []

        def pop(what):
            if not stack:
                raise IRError("operand stack underflow before %s" % what)
            return stack.pop()

        def as_var(value, what):
            if value.kind != _Value.VAR:
                raise IRError(
                    "%s requires a variable operand (three-address form)" % what
                )
            return value.payload

        while self._pos < len(self._code):
            instr = self._code[self._pos]
            self._pos += 1
            kind = instr.op
            if kind == op.LOAD:
                stack.append(_Value(_Value.VAR, instr.args[0]))
            elif kind == op.ACONST_NULL:
                stack.append(_Value(_Value.NULL))
            elif kind == op.NEW:
                class_name, dims, site = instr.args
                stack.append(_Value(_Value.NEW, (class_name, dims, site)))
            elif kind == op.GETFIELD:
                base = as_var(pop("getfield"), "getfield")
                stack.append(_Value(_Value.CALL, ("getfield", base, instr.args[0])))
            elif kind == op.STORE:
                value = pop("store")
                target = instr.args[0]
                return self._store_to(target, value, stack)
            elif kind == op.PUTFIELD:
                value = pop("putfield value")
                base = as_var(pop("putfield base"), "putfield")
                self._expect_empty(stack, "putfield")
                field = instr.args[0]
                if value.kind == _Value.NULL:
                    return StoreNullStmt(base, field)
                return StoreStmt(base, field, as_var(value, "putfield"))
            elif kind == op.INVOKE:
                name, argc, callsite = instr.args
                args = [as_var(pop("invoke arg"), "invoke") for _ in range(argc)]
                args.reverse()
                receiver = as_var(pop("invoke receiver"), "invoke")
                stack.append(
                    _Value(
                        _Value.CALL, ("invoke", receiver, None, name, args, callsite)
                    )
                )
            elif kind == op.INVOKESTATIC:
                cls, name, argc, callsite = instr.args
                args = [as_var(pop("invoke arg"), "invoke") for _ in range(argc)]
                args.reverse()
                stack.append(
                    _Value(_Value.CALL, ("invoke", None, cls, name, args, callsite))
                )
            elif kind == op.DROP:
                value = pop("drop")
                self._expect_empty(stack, "drop")
                if value.kind != _Value.CALL or value.payload[0] != "invoke":
                    raise IRError("drop is only valid after an invoke")
                return self._invoke_stmt(None, value.payload)
            elif kind == op.RETURN:
                self._expect_empty(stack, "return")
                return ReturnStmt()
            elif kind == op.RETURN_VAL:
                value = as_var(pop("return"), "return")
                self._expect_empty(stack, "return")
                return ReturnStmt(value)
            else:
                raise IRError("unexpected %r inside a statement" % instr)
        raise IRError("bytecode ends mid-statement (stack not empty)")

    @staticmethod
    def _expect_empty(stack, what):
        if stack:
            raise IRError("stack residue at %s boundary" % what)

    def _store_to(self, target, value, stack):
        self._expect_empty(stack, "store")
        if value.kind == _Value.VAR:
            return CopyStmt(target, value.payload)
        if value.kind == _Value.NULL:
            return NullStmt(target)
        if value.kind == _Value.NEW:
            class_name, dims, site = value.payload
            return NewStmt(target, RefType(class_name, dims), site)
        tag = value.payload[0]
        if tag == "getfield":
            _tag, base, field = value.payload
            return LoadStmt(target, base, field)
        if tag == "invoke":
            return self._invoke_stmt(target, value.payload)
        raise IRError("cannot store value %r" % tag)

    @staticmethod
    def _invoke_stmt(target, payload):
        _tag, receiver, static_class, name, args, callsite = payload
        return InvokeStmt(target, receiver, static_class, name, args, callsite)


def disassemble_method(code):
    """Instruction list -> structured Block."""
    return _Disassembler(code).run()


def load_program(container):
    """Container data -> sealed :class:`repro.ir.Program`."""
    version = container.get("version")
    if version != CONTAINER_VERSION:
        raise IRError(
            "unsupported container version %r (expected %d)"
            % (version, CONTAINER_VERSION)
        )
    program = Program()
    for cls_data in container.get("classes", ()):
        decl = ClassDecl(
            cls_data["name"],
            superclass=cls_data.get("super") or OBJECT_CLASS,
            is_library=bool(cls_data.get("library")),
        )
        for field in cls_data.get("fields", ()):
            decl.add_field(field)
        if decl.name == OBJECT_CLASS:
            program.classes[OBJECT_CLASS] = decl
        else:
            program.add_class(decl)
        for m in cls_data.get("methods", ()):
            method = Method(
                m["name"],
                m.get("params", ()),
                disassemble_method(m.get("code", ())),
                decl.name,
                is_static=bool(m.get("static")),
            )
            decl.add_method(method)
            program.seal_method(method)
    program.entry = container.get("entry") or None
    return program


def load(path):
    """Read a ``.jbc`` container file back into a validated program.

    The container is verified before it is loaded, and the program it
    loads to is validated as ``parse_program`` validates source, so a
    malformed file, one that is not JSON included, raises
    :class:`IRError` instead of reaching an analysis.
    """
    import json

    with open(path) as handle:
        try:
            container = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise IRError(
                "invalid bytecode:\n  not a JSON document: %s" % exc
            ) from None
    check_container(container)
    return check(load_program(container))
