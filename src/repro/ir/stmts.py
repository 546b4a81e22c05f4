"""Statements of the Jimple-like structured IR.

The IR mirrors the abstract syntax of the paper's while language (Figure 2)
extended with method calls and returns, which the paper models in its
implementation via CFL-reachability:

* ``b = new a``       -> :class:`NewStmt`
* ``b = c``           -> :class:`CopyStmt`
* ``b = null``        -> :class:`NullStmt`
* ``b = c.g``         -> :class:`LoadStmt`  (arrays use the ``elem`` field)
* ``c.g = b``         -> :class:`StoreStmt`
* ``s1; s2``          -> :class:`Block`
* ``if (*) s1 else s2`` -> :class:`IfStmt`
* ``while (*) do s``  -> :class:`LoopStmt` (labelled, so users can specify
  the loop to check)
* calls/returns       -> :class:`InvokeStmt` / :class:`ReturnStmt`

Each statement has a unique integer ``uid`` within its program, assigned by
the builder, and knows its enclosing method once attached.
"""

from repro.errors import IRError

#: Receiver variable name available in instance methods.
THIS_VAR = "this"


class Cond:
    """A branch condition.

    Static analyses treat every condition as nondeterministic (both branches
    feasible), matching the paper's abstract semantics.  The concrete
    interpreter evaluates ``nonnull``/``null`` tests for real and consults a
    schedule for ``*``.
    """

    NONDET = "*"
    NONNULL = "nonnull"
    NULL = "null"

    __slots__ = ("kind", "var")

    def __init__(self, kind=NONDET, var=None):
        if kind not in (Cond.NONDET, Cond.NONNULL, Cond.NULL):
            raise IRError("unknown condition kind %r" % kind)
        if kind != Cond.NONDET and not var:
            raise IRError("condition %r requires a variable" % kind)
        self.kind = kind
        self.var = var

    def __str__(self):
        if self.kind == Cond.NONDET:
            return "*"
        return "%s %s" % (self.kind, self.var)

    def __repr__(self):
        return "Cond(%s)" % self


class Stmt:
    """Base class of all IR statements."""

    __slots__ = ("uid", "method")

    def __init__(self):
        self.uid = None  # assigned when attached to a method
        self.method = None

    @property
    def is_simple(self):
        """True for straight-line statements (no nested blocks)."""
        return not isinstance(self, (Block, IfStmt, LoopStmt))

    def children(self):
        """Nested blocks, for structured traversal."""
        return ()

    def _describe(self):
        raise NotImplementedError

    def __repr__(self):
        return "<%s uid=%s %s>" % (type(self).__name__, self.uid, self._describe())


class NewStmt(Stmt):
    """``target = new Type`` — an allocation site.

    ``site`` is the allocation-site label, unique within the program; the
    static abstraction of heap objects in both the concrete and abstract
    semantics.
    """

    __slots__ = ("target", "type", "site")

    def __init__(self, target, ref_type, site):
        super().__init__()
        self.target = target
        self.type = ref_type
        self.site = site

    def _describe(self):
        return "%s = new %s @%s" % (self.target, self.type, self.site)


class CopyStmt(Stmt):
    """``target = source`` — a reference copy."""

    __slots__ = ("target", "source")

    def __init__(self, target, source):
        super().__init__()
        self.target = target
        self.source = source

    def _describe(self):
        return "%s = %s" % (self.target, self.source)


class NullStmt(Stmt):
    """``target = null``."""

    __slots__ = ("target",)

    def __init__(self, target):
        super().__init__()
        self.target = target

    def _describe(self):
        return "%s = null" % self.target


class LoadStmt(Stmt):
    """``target = base.field`` — a heap read (load effect source)."""

    __slots__ = ("target", "base", "field")

    def __init__(self, target, base, field):
        super().__init__()
        self.target = target
        self.base = base
        self.field = field

    def _describe(self):
        return "%s = %s.%s" % (self.target, self.base, self.field)


class StoreStmt(Stmt):
    """``base.field = source`` — a heap write (store effect source)."""

    __slots__ = ("base", "field", "source")

    def __init__(self, base, field, source):
        super().__init__()
        self.base = base
        self.field = field
        self.source = source

    def _describe(self):
        return "%s.%s = %s" % (self.base, self.field, self.source)


class StoreNullStmt(Stmt):
    """``base.field = null`` — a destructive update removing a reference.

    The abstract semantics performs no strong updates (Section 2, precision
    discussion), so static analyses ignore this statement; the concrete
    interpreter removes the reference for real.  The gap between the two is
    the paper's documented source of destructive-update false positives.
    """

    __slots__ = ("base", "field")

    def __init__(self, base, field):
        super().__init__()
        self.base = base
        self.field = field

    def _describe(self):
        return "%s.%s = null" % (self.base, self.field)


class InvokeStmt(Stmt):
    """A method call, virtual or static.

    Virtual calls carry a receiver ``base`` and dispatch on its run-time
    type (concrete semantics) or class-hierarchy approximation (static
    analyses).  Static calls name the declaring class instead.  ``callsite``
    labels the call for context sensitivity (the open parenthesis of the
    CFL-reachability formulation).
    """

    __slots__ = ("target", "base", "static_class", "method_name", "args", "callsite")

    def __init__(self, target, base, static_class, method_name, args, callsite):
        super().__init__()
        if (base is None) == (static_class is None):
            raise IRError(
                "invoke of %s must have exactly one of receiver/static class"
                % method_name
            )
        self.target = target
        self.base = base
        self.static_class = static_class
        self.method_name = method_name
        self.args = list(args)
        self.callsite = callsite

    @property
    def is_static(self):
        return self.base is None

    def _describe(self):
        recv = self.base if self.base is not None else self.static_class
        lhs = "%s = " % self.target if self.target else ""
        return "%scall %s.%s(%s) @%s" % (
            lhs,
            recv,
            self.method_name,
            ", ".join(self.args),
            self.callsite,
        )


class ReturnStmt(Stmt):
    """``return [var]``."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        super().__init__()
        self.value = value

    def _describe(self):
        return "return %s" % (self.value or "")


class Block(Stmt):
    """A statement sequence ``s1; s2; ...``."""

    __slots__ = ("stmts",)

    def __init__(self, stmts=None):
        super().__init__()
        self.stmts = list(stmts or [])

    def children(self):
        return tuple(self.stmts)

    def _describe(self):
        return "%d stmts" % len(self.stmts)


class IfStmt(Stmt):
    """``if (cond) then_block else else_block``."""

    __slots__ = ("cond", "then_block", "else_block")

    def __init__(self, cond, then_block, else_block):
        super().__init__()
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block

    def children(self):
        return (self.then_block, self.else_block)

    def _describe(self):
        return "if (%s)" % self.cond


class LoopStmt(Stmt):
    """``while (cond) do body`` with a user-visible label.

    Labels let users name the loop to check (a ``RegionSpec`` such as
    ``"Main.main:L1"``), the central input of LeakChecker.
    """

    __slots__ = ("label", "cond", "body")

    def __init__(self, label, body, cond=None):
        super().__init__()
        self.label = label
        self.cond = cond or Cond()
        self.body = body

    def children(self):
        return (self.body,)

    def _describe(self):
        return "loop %s" % self.label


def walk(stmt):
    """Yield ``stmt`` and every statement nested inside it, pre-order."""
    stack = [stmt]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(s.children()))


def simple_statements(stmt):
    """Yield only the straight-line statements nested in ``stmt``."""
    for s in walk(stmt):
        if s.is_simple:
            yield s
