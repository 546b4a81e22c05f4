"""Program, class, method and allocation-site models for the IR."""

from repro.errors import IRError, ResolutionError
from repro.ir.stmts import COMPOUND_STMTS, Block, LoopStmt, NewStmt, walk
from repro.ir.types import OBJECT_CLASS


class FieldDecl:
    """A declared instance field."""

    __slots__ = ("name", "declaring_class")

    def __init__(self, name, declaring_class):
        self.name = name
        self.declaring_class = declaring_class

    def __repr__(self):
        return "FieldDecl(%s.%s)" % (self.declaring_class, self.name)


class Method:
    """A method: parameters plus a structured body.

    ``sig`` is the globally unique signature ``Class.name``.  Instance
    methods implicitly bind ``this``; static methods do not.  ``simple``
    is the tuple of the body's simple statements in pre-order, recorded
    when the program seals the method; it is empty until then.
    """

    __slots__ = (
        "name",
        "params",
        "body",
        "declaring_class",
        "is_static",
        "simple",
        "_loops_by_label",
    )

    def __init__(self, name, params, body, declaring_class, is_static=False):
        self.name = name
        self.params = list(params)
        self.body = body if body is not None else Block()
        self.declaring_class = declaring_class
        self.is_static = is_static
        #: the body's simple statements in pre-order, recorded by
        #: ``Program.seal_method`` so the call graph, the PAG and context
        #: enumeration iterate a tuple instead of walking the body; the
        #: optimizer records it again after deleting statements
        self.simple = ()
        #: (body, label -> first loop of that label), built by find_loop
        self._loops_by_label = (None, {})

    @property
    def sig(self):
        return "%s.%s" % (self.declaring_class, self.name)

    @property
    def simple_count(self):
        """Number of simple statements in the body (Table 1's Stmts)."""
        return len(self.simple)

    def statements(self):
        """All statements in the body, pre-order (including blocks)."""
        return walk(self.body)

    def loops(self):
        """All loop statements in the body."""
        return [s for s in self.statements() if isinstance(s, LoopStmt)]

    def find_loop(self, label):
        """The first loop labelled ``label``, in pre-order.

        Looked up in a label -> loop map built by one walk of the body,
        so resolving every loop of a method costs one walk, not one per
        loop.  The map is rebuilt when the body is replaced or lacks the
        label; the optimizer rewrites statements inside a body but keeps
        every loop, so a map built before it ran stays correct.
        """
        body, loops = self._loops_by_label
        if body is not self.body or label not in loops:
            loops = {}
            for loop in self.loops():
                loops.setdefault(loop.label, loop)
            self._loops_by_label = (self.body, loops)
        try:
            return loops[label]
        except KeyError:
            raise ResolutionError(
                "no loop %r in method %s" % (label, self.sig)
            ) from None

    def __repr__(self):
        return "Method(%s)" % self.sig


class ClassDecl:
    """A class: name, superclass, fields, methods and a library flag.

    ``is_library`` marks standard-library models; the detector applies the
    stronger flows-in condition of Section 4 to loads in library code.
    """

    __slots__ = ("name", "superclass", "fields", "methods", "is_library")

    def __init__(self, name, superclass=OBJECT_CLASS, is_library=False):
        self.name = name
        self.superclass = superclass if name != OBJECT_CLASS else None
        self.fields = {}
        self.methods = {}
        self.is_library = is_library

    def add_field(self, name):
        if name in self.fields:
            raise IRError("duplicate field %s.%s" % (self.name, name))
        self.fields[name] = FieldDecl(name, self.name)
        return self.fields[name]

    def add_method(self, method):
        if method.name in self.methods:
            raise IRError("duplicate method %s.%s" % (self.name, method.name))
        self.methods[method.name] = method
        return method

    def __repr__(self):
        return "ClassDecl(%s)" % self.name


class AllocSite:
    """A static allocation site: the ``new`` expression that creates objects.

    Sites are the object abstraction of the analysis ("the words 'object'
    and 'allocation site' refer to a static abstraction of heap objects").
    """

    __slots__ = ("label", "type", "method_sig", "stmt")

    def __init__(self, label, ref_type, method_sig, stmt):
        self.label = label
        self.type = ref_type
        self.method_sig = method_sig
        self.stmt = stmt

    def __repr__(self):
        return "AllocSite(%s: new %s in %s)" % (self.label, self.type, self.method_sig)

    def __str__(self):
        return self.label


class Program:
    """A whole program: classes, an entry point, and an allocation-site index."""

    def __init__(self, entry=None):
        self.classes = {}
        self.entry = entry  # signature of the entry method, e.g. "Main.main"
        self._sites = {}
        self._uid_counter = 0
        self._ensure_object_class()

    def _ensure_object_class(self):
        if OBJECT_CLASS not in self.classes:
            self.classes[OBJECT_CLASS] = ClassDecl(OBJECT_CLASS)

    # -- construction ------------------------------------------------------

    def add_class(self, decl):
        if decl.name in self.classes:
            raise IRError("duplicate class %s" % decl.name)
        self.classes[decl.name] = decl
        return decl

    def seal_method(self, method):
        """Assign statement uids, register allocation sites and record
        the simple statements of a method, in pre-order."""
        simple = []
        for stmt in method.statements():
            if stmt.uid is None:
                stmt.uid = self._uid_counter
                self._uid_counter += 1
            stmt.method = method
            if isinstance(stmt, COMPOUND_STMTS):
                continue
            simple.append(stmt)
            if isinstance(stmt, NewStmt):
                if stmt.site in self._sites:
                    raise IRError("duplicate allocation site label %r" % stmt.site)
                self._sites[stmt.site] = AllocSite(
                    stmt.site, stmt.type, method.sig, stmt
                )
        method.simple = tuple(simple)

    # -- lookup ------------------------------------------------------------

    def cls(self, name):
        try:
            return self.classes[name]
        except KeyError:
            raise ResolutionError("unknown class %s" % name) from None

    def method(self, sig):
        """Look up a method by exact signature ``Class.name``."""
        class_name, _, meth_name = sig.rpartition(".")
        decl = self.cls(class_name)
        try:
            return decl.methods[meth_name]
        except KeyError:
            raise ResolutionError("unknown method %s" % sig) from None

    def entry_method(self):
        if not self.entry:
            raise ResolutionError("program has no entry point")
        return self.method(self.entry)

    def resolve_dispatch(self, class_name, method_name):
        """Find the method invoked on a receiver of dynamic type
        ``class_name``, walking up the superclass chain (virtual dispatch).
        """
        cur = class_name
        while cur is not None:
            decl = self.cls(cur)
            if method_name in decl.methods:
                return decl.methods[method_name]
            cur = decl.superclass
        raise ResolutionError(
            "no method %s found on %s or its superclasses" % (method_name, class_name)
        )

    def is_subclass(self, sub, sup):
        """True when ``sub`` equals or transitively extends ``sup``."""
        cur = sub
        while cur is not None:
            if cur == sup:
                return True
            cur = self.cls(cur).superclass
        return False

    def subclasses(self, name):
        """All classes equal to or transitively extending ``name``."""
        return [c for c in self.classes if self.is_subclass(c, name)]

    # -- iteration ---------------------------------------------------------

    def all_methods(self):
        for decl in self.classes.values():
            yield from decl.methods.values()

    def all_statements(self):
        for method in self.all_methods():
            yield from method.statements()

    def alloc_sites(self):
        return list(self._sites.values())

    def site(self, label):
        try:
            return self._sites[label]
        except KeyError:
            raise ResolutionError("unknown allocation site %r" % label) from None

    def statement_count(self):
        """Number of straight-line statements — the analog of Table 1's
        Jimple statement count (Stmts): the sum of the counts recorded
        when each method was sealed."""
        return sum(method.simple_count for method in self.all_methods())

    def is_library_method(self, method):
        return self.cls(method.declaring_class).is_library

    def __repr__(self):
        return "Program(%d classes, %d stmts)" % (
            len(self.classes),
            self.statement_count(),
        )
