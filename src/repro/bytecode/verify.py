"""Bytecode verifier: static well-formedness checks on containers.

The verifier mirrors what a managed runtime checks before execution:

* container version and schema shape;
* instruction operand arity and opcode validity;
* balanced structured blocks (``if``/``loop`` closed by ``end``, ``else``
  only inside an ``if``);
* operand-stack discipline: depth never goes negative, returns to zero at
  every statement boundary (three-address property), and block brackets
  occur only on an empty stack;
* referenced classes exist within the container (or are the implicit
  root), and no ``extends`` chain runs in a cycle.

``verify_container`` returns a list of human-readable issues;
``check_container`` raises :class:`repro.errors.IRError` when any exist.
The loader tolerates whatever the verifier accepts — that pairing is
covered by round-trip and property tests.
"""

from repro.bytecode import opcodes as op
from repro.bytecode.assemble import CONTAINER_VERSION
from repro.errors import IRError
from repro.ir.validate import cycle_issue, extends_cycles

#: stack effect (pop, push) per opcode; invokes computed dynamically
_EFFECTS = {
    op.NEW: (0, 1),
    op.ACONST_NULL: (0, 1),
    op.LOAD: (0, 1),
    op.STORE: (1, 0),
    op.GETFIELD: (1, 1),
    op.PUTFIELD: (2, 0),
    op.DROP: (1, 0),
    op.RETURN: (0, 0),
    op.RETURN_VAL: (1, 0),
}

#: opcodes that end a statement (stack must be empty after them)
_TERMINATORS = frozenset(
    {op.STORE, op.PUTFIELD, op.DROP, op.RETURN, op.RETURN_VAL}
)


def _verify_code(code, where, known_classes, issues):
    depth = 0
    blocks = []  # stack of 'if'/'loop'
    for index, raw in enumerate(code):
        label = "%s[%d]" % (where, index)
        try:
            instr = op.Instr.from_list(raw)
        except (ValueError, TypeError) as exc:
            issues.append("%s: %s" % (label, exc))
            continue
        kind = instr.op
        if kind in op.BLOCK_OPENERS or kind in (op.ELSE, op.END):
            if depth != 0:
                issues.append(
                    "%s: block bracket %r on non-empty stack" % (label, kind)
                )
                depth = 0
            if kind == op.IF:
                blocks.append([op.IF, False])
            elif kind == op.LOOP:
                blocks.append([op.LOOP, False])
            elif kind == op.ELSE:
                if not blocks or blocks[-1][0] != op.IF:
                    issues.append("%s: else outside an if block" % label)
                elif blocks[-1][1]:
                    issues.append("%s: duplicate else" % label)
                else:
                    blocks[-1][1] = True
            elif kind == op.END:
                if not blocks:
                    issues.append("%s: end without an open block" % label)
                else:
                    blocks.pop()
            continue
        if kind == op.INVOKE:
            argc = _as_int(instr.args[1], label, issues)
            pops, pushes = argc + 1, 1
        elif kind == op.INVOKESTATIC:
            argc = _as_int(instr.args[2], label, issues)
            pops, pushes = argc, 1
        else:
            pops, pushes = _EFFECTS[kind]
        if kind == op.NEW and instr.args[0] not in known_classes:
            issues.append(
                "%s: new of unknown class %r" % (label, instr.args[0])
            )
        depth -= pops
        if depth < 0:
            issues.append("%s: operand stack underflow" % label)
            depth = 0
        depth += pushes
        if kind in _TERMINATORS and depth != 0:
            issues.append(
                "%s: stack depth %d at statement boundary" % (label, depth)
            )
            depth = 0
    if blocks:
        issues.append("%s: %d unclosed block(s)" % (where, len(blocks)))
    if depth != 0:
        issues.append("%s: code ends with stack depth %d" % (where, depth))


def _as_int(value, label, issues):
    try:
        return int(value)
    except (TypeError, ValueError):
        issues.append("%s: non-integer argument count %r" % (label, value))
        return 0


def verify_container(container):
    """Return a list of issues found in a bytecode container."""
    issues = []
    if container.get("version") != CONTAINER_VERSION:
        issues.append(
            "unsupported container version %r" % container.get("version")
        )
        return issues
    classes = container.get("classes", ())
    known = {c.get("name") for c in classes} | {"Object"}
    superclass_of = {}
    for cls_data in classes:
        name = cls_data.get("name")
        if not name:
            issues.append("class without a name")
            continue
        if name in superclass_of:
            issues.append("duplicate class %s" % name)
        superclass = superclass_of[name] = cls_data.get("super")
        if superclass and superclass not in known:
            issues.append("class %s extends unknown %s" % (name, superclass))
        for m in cls_data.get("methods", ()):
            where = "%s.%s" % (name, m.get("name", "?"))
            _verify_code(m.get("code", ()), where, known, issues)
    issues.extend(cycle_issue(cycle) for cycle in extends_cycles(superclass_of))
    entry = container.get("entry")
    if entry:
        sigs = {
            "%s.%s" % (c["name"], m["name"])
            for c in classes
            for m in c.get("methods", ())
        }
        if entry not in sigs:
            issues.append("entry %s not found in container" % entry)
    return issues


def check_container(container):
    """Raise :class:`IRError` when the container is malformed."""
    issues = verify_container(container)
    if issues:
        raise IRError("invalid bytecode:\n  " + "\n  ".join(issues))
    return container
