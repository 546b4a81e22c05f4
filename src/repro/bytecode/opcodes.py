"""Instruction set of the repro bytecode format.

The original LeakChecker consumed Java bytecode through Soot; this
reproduction defines its own compact, stack-based, *structured* bytecode
(in the style of WebAssembly: control flow uses bracketed blocks rather
than arbitrary jumps, which keeps loading into the structured IR exact).

Value instructions operate on an operand stack; every source statement
compiles to a sequence that leaves the stack empty, so stack depth is
zero at statement boundaries — the property the verifier enforces.

=================  ========================================  =======
opcode             operands                                  stack
=================  ========================================  =======
``new``            class name, dims, site label              +1
``aconst_null``    —                                         +1
``load``           variable name                             +1
``store``          variable name                             -1
``getfield``       field name                                -1 +1
``putfield``       field name                                -2
``invoke``         method name, argc, callsite               -(argc+1) +1
``invokestatic``   class, method name, argc, callsite        -argc +1
``drop``           —                                         -1
``return_``        —                                         0
``return_val``     —                                         -1
``if_``            cond kind ('*'|'nonnull'|'null'), var     0
``else_``          —                                         0
``loop``           label, cond kind, cond var                0
``end``            —                                         0
=================  ========================================  =======
"""

NEW = "new"
ACONST_NULL = "aconst_null"
LOAD = "load"
STORE = "store"
GETFIELD = "getfield"
PUTFIELD = "putfield"
INVOKE = "invoke"
INVOKESTATIC = "invokestatic"
DROP = "drop"
RETURN = "return"
RETURN_VAL = "return_val"
IF = "if"
ELSE = "else"
LOOP = "loop"
END = "end"

#: opcode -> the type of each operand it carries: a count (``new``'s
#: array dimensions, an invoke's argument count) is an ``int``, every
#: other operand a name (``str``)
OPERANDS = {
    NEW: (str, int, str),
    ACONST_NULL: (),
    LOAD: (str,),
    STORE: (str,),
    GETFIELD: (str,),
    PUTFIELD: (str,),
    INVOKE: (str, int, str),
    INVOKESTATIC: (str, str, int, str),
    DROP: (),
    RETURN: (),
    RETURN_VAL: (),
    IF: (str, str),
    ELSE: (),
    LOOP: (str, str, str),
    END: (),
}

#: opcodes that open a structured block (closed by END)
BLOCK_OPENERS = frozenset({IF, LOOP})


class Instr:
    """One bytecode instruction: opcode plus operand tuple."""

    __slots__ = ("op", "args")

    def __init__(self, op, *args):
        if op not in OPERANDS:
            raise ValueError("unknown opcode %r" % op)
        types = OPERANDS[op]
        if len(args) != len(types):
            raise ValueError(
                "opcode %r takes %d operands, got %d" % (op, len(types), len(args))
            )
        for index, (arg, expected) in enumerate(zip(args, types)):
            if type(arg) is not expected:
                raise ValueError(
                    "operand %d of %r is %s, not %s"
                    % (index, op, type(arg).__name__, expected.__name__)
                )
        self.op = op
        self.args = tuple(args)

    def as_list(self):
        return [self.op, *self.args]

    @classmethod
    def from_list(cls, data):
        if not data:
            raise ValueError("empty instruction")
        return cls(data[0], *data[1:])

    def __eq__(self, other):
        return (
            isinstance(other, Instr)
            and self.op == other.op
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.op, self.args))

    def __repr__(self):
        if self.args:
            return "%s %s" % (self.op, " ".join(str(a) for a in self.args))
        return self.op
