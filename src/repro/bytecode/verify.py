"""Bytecode verifier: static well-formedness checks on containers.

The verifier mirrors what a managed runtime checks before execution:

* container version and schema shape: every slot of the container, its
  classes and their methods that is present has the JSON type the
  assembler writes (a slot may be absent);
* opcode validity, and the number and types of each instruction's
  operands;
* balanced structured blocks (``if``/``loop`` closed by ``end``, ``else``
  only inside an ``if``), nested no deeper than the source parser's
  ``MAX_NESTING``, since loading, validation and the analyses recurse
  once per level;
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
from repro.lang.parser import MAX_NESTING

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

#: The JSON type the assembler writes in each slot of a container, a
#: class and a method, a list's being ``[item type]``; a slot may be
#: absent, but a class and a method need a name
_METHOD_SHAPE = {"name": str, "params": [str], "static": bool, "code": [list]}
_CLASS_SHAPE = {
    "name": str,
    "super": str,
    "library": bool,
    "fields": [str],
    "methods": [_METHOD_SHAPE],
}
_CONTAINER_SHAPE = {"version": int, "entry": str, "classes": [_CLASS_SHAPE]}

_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _shape_issues(value, shape, where, issues):
    """An issue for each part of ``value`` whose JSON type is not the
    one ``shape`` gives; the other checks rely on those types."""
    expected = shape if isinstance(shape, type) else type(shape)
    if type(value) is not expected:
        issues.append(
            "%s is %s, not %s"
            % (where, _JSON_TYPES.get(type(value)), _JSON_TYPES[expected])
        )
    elif isinstance(shape, dict):
        if "name" in shape and "name" not in value:
            issues.append("%s has no name" % where)
        for slot, inner in shape.items():
            if slot in value:
                _shape_issues(value[slot], inner, "%s.%s" % (where, slot), issues)
    elif isinstance(shape, list):
        for index, item in enumerate(value):
            _shape_issues(item, shape[0], "%s[%d]" % (where, index), issues)


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
            if kind in op.BLOCK_OPENERS:
                if len(blocks) == MAX_NESTING:
                    issues.append(
                        "%s: blocks nested more than %d deep"
                        % (label, MAX_NESTING)
                    )
                blocks.append([kind, False])
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
            pops, pushes = instr.args[1] + 1, 1
        elif kind == op.INVOKESTATIC:
            pops, pushes = instr.args[2], 1
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


def verify_container(container):
    """Return a list of issues found in a bytecode container (any JSON
    value)."""
    issues = []
    _shape_issues(container, _CONTAINER_SHAPE, "container", issues)
    if issues:
        return issues
    if container.get("version") != CONTAINER_VERSION:
        issues.append(
            "unsupported container version %r" % container.get("version")
        )
        return issues
    classes = container.get("classes", ())
    known = {c["name"] for c in classes} | {"Object"}
    superclass_of = {}
    sigs = set()
    for cls_data in classes:
        name = cls_data["name"]
        if not name:
            issues.append("class without a name")
            continue
        if name in superclass_of:
            issues.append("duplicate class %s" % name)
        superclass = superclass_of[name] = cls_data.get("super")
        if superclass and superclass not in known:
            issues.append("class %s extends unknown %s" % (name, superclass))
        for m in cls_data.get("methods", ()):
            where = "%s.%s" % (name, m["name"])
            sigs.add(where)
            _verify_code(m.get("code", ()), where, known, issues)
    issues.extend(cycle_issue(cycle) for cycle in extends_cycles(superclass_of))
    entry = container.get("entry")
    if entry and entry not in sigs:
        issues.append("entry %s not found in container" % entry)
    return issues


def check_container(container):
    """Raise :class:`IRError` when the container is malformed."""
    issues = verify_container(container)
    if issues:
        raise IRError("invalid bytecode:\n  " + "\n  ".join(issues))
    return container
