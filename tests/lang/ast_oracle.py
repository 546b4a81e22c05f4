"""The two-pass frontend: the differential oracle of the one-pass parser.

It parses the tokens of the per-character lexer
(:mod:`tests.lang.lexer_oracle`) into an AST, one node class per
construct, then lowers that tree to the IR in a second walk
(``build(source)`` is ``lower(parse(source))``).  The production
parser, :func:`repro.lang.parser.parse`, builds the IR statements as it
reads them; ``tests/properties/test_frontend_differential.py`` checks
that both give the same IR, or raise the same error.
"""

from repro.errors import ParseError
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
from repro.lang.parser import MAX_NESTING

from tests.lang.lexer_oracle import EOF, IDENT, tokenize


# -- AST ---------------------------------------------------------------


class Node:
    __slots__ = ("line",)

    def __init__(self, line):
        self.line = line


class ProgramNode(Node):
    __slots__ = ("classes", "entry")

    def __init__(self, classes, entry, line=1):
        super().__init__(line)
        self.classes = classes
        self.entry = entry


class ClassNode(Node):
    __slots__ = ("name", "superclass", "is_library", "fields", "methods")

    def __init__(self, name, superclass, is_library, fields, methods, line):
        super().__init__(line)
        self.name = name
        self.superclass = superclass
        self.is_library = is_library
        self.fields = fields
        self.methods = methods


class MethodNode(Node):
    __slots__ = ("name", "params", "is_static", "body")

    def __init__(self, name, params, is_static, body, line):
        super().__init__(line)
        self.name = name
        self.params = params
        self.is_static = is_static
        self.body = body


class BlockNode(Node):
    __slots__ = ("stmts",)

    def __init__(self, stmts, line):
        super().__init__(line)
        self.stmts = stmts


class NewNode(Node):
    """``target = new Class[dims] [@site];``"""

    __slots__ = ("target", "class_name", "dims", "site")

    def __init__(self, target, class_name, dims, site, line):
        super().__init__(line)
        self.target = target
        self.class_name = class_name
        self.dims = dims
        self.site = site


class CopyNode(Node):
    __slots__ = ("target", "source")

    def __init__(self, target, source, line):
        super().__init__(line)
        self.target = target
        self.source = source


class NullAssignNode(Node):
    __slots__ = ("target",)

    def __init__(self, target, line):
        super().__init__(line)
        self.target = target


class LoadNode(Node):
    __slots__ = ("target", "base", "field")

    def __init__(self, target, base, field, line):
        super().__init__(line)
        self.target = target
        self.base = base
        self.field = field


class StoreNode(Node):
    __slots__ = ("base", "field", "source")

    def __init__(self, base, field, source, line):
        super().__init__(line)
        self.base = base
        self.field = field
        self.source = source


class StoreNullNode(Node):
    """``base.field = null;`` — destructive update."""

    __slots__ = ("base", "field")

    def __init__(self, base, field, line):
        super().__init__(line)
        self.base = base
        self.field = field


class CallNode(Node):
    """``[target =] call recv.name(args) [@site];``

    ``recv`` is a variable for virtual calls or a class name for static
    calls; which one is decided during lowering against declared classes.
    """

    __slots__ = ("target", "receiver", "method_name", "args", "site")

    def __init__(self, target, receiver, method_name, args, site, line):
        super().__init__(line)
        self.target = target
        self.receiver = receiver
        self.method_name = method_name
        self.args = args
        self.site = site


class ReturnNode(Node):
    __slots__ = ("value",)

    def __init__(self, value, line):
        super().__init__(line)
        self.value = value


class CondNode(Node):
    __slots__ = ("kind", "var")

    def __init__(self, kind, var, line):
        super().__init__(line)
        self.kind = kind
        self.var = var


class IfNode(Node):
    __slots__ = ("cond", "then_block", "else_block")

    def __init__(self, cond, then_block, else_block, line):
        super().__init__(line)
        self.cond = cond
        self.then_block = then_block
        self.else_block = else_block


class LoopNode(Node):
    __slots__ = ("label", "cond", "body")

    def __init__(self, label, cond, body, line):
        super().__init__(line)
        self.label = label
        self.cond = cond
        self.body = body


# -- parser ------------------------------------------------------------


class Parser:
    """Single-use parser over a token stream."""

    def __init__(self, source):
        self._tokens = tokenize(source)
        self._pos = 0
        self._depth = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self):
        return self._tokens[self._pos]

    def _error(self, message, tok=None):
        tok = tok or self._peek()
        raise ParseError(message, tok.line, tok.column)

    # Keywords and punctuation never lex as identifiers, so a token's
    # value alone tells them apart; EOF's value is the empty string.

    def _expect(self, value):
        tok = self._tokens[self._pos]
        if tok.value != value:
            self._error("expected %r, found %r" % (value, tok.value), tok)
        self._pos += 1
        return tok

    def _expect_ident(self, what="identifier"):
        tok = self._tokens[self._pos]
        if tok.kind != IDENT:
            self._error("expected %s, found %r" % (what, tok.value), tok)
        self._pos += 1
        return tok.value

    def _accept(self, value):
        if self._tokens[self._pos].value == value:
            self._pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse_program(self):
        classes = []
        entry = None
        entry_line = None
        while self._peek().kind != EOF:
            tok = self._peek()
            if tok.value == "entry":
                if entry is not None:
                    self._error(
                        "second entry declaration; the first is 'entry %s;' "
                        "on line %d" % (entry, entry_line)
                    )
                self._pos += 1
                first = self._expect_ident("entry class")
                self._expect(".")
                meth = self._expect_ident("entry method")
                entry = "%s.%s" % (first, meth)
                entry_line = tok.line
                self._expect(";")
            elif tok.value in ("library", "class"):
                classes.append(self._parse_class())
            else:
                self._error("expected class or entry declaration")
        return ProgramNode(classes, entry)

    def _parse_class(self):
        line = self._peek().line
        is_library = self._accept("library")
        self._expect("class")
        name = self._expect_ident("class name")
        superclass = None
        if self._accept("extends"):
            superclass = self._expect_ident("superclass name")
        self._expect("{")
        fields = []
        methods = []
        while not self._accept("}"):
            tok = self._peek()
            if tok.value == "field":
                self._pos += 1
                fields.append(self._expect_ident("field name"))
                self._expect(";")
            elif tok.value in ("method", "static"):
                methods.append(self._parse_method())
            else:
                self._error("expected field or method declaration")
        return ClassNode(name, superclass, is_library, fields, methods, line)

    def _parse_method(self):
        line = self._peek().line
        is_static = self._accept("static")
        self._expect("method")
        name = self._expect_ident("method name")
        self._expect("(")
        params = []
        if not self._accept(")"):
            params.append(self._expect_ident("parameter"))
            while self._accept(","):
                params.append(self._expect_ident("parameter"))
            self._expect(")")
        body = self._parse_block()
        return MethodNode(name, params, is_static, body, line)

    def _parse_block(self):
        line = self._peek().line
        self._expect("{")
        stmts = []
        while not self._accept("}"):
            stmts.append(self._parse_stmt())
        return BlockNode(stmts, line)

    def _parse_cond(self):
        tok = self._peek()
        if self._accept("*"):
            return CondNode("*", None, tok.line)
        if tok.value in ("nonnull", "null"):
            self._pos += 1
            var = self._expect_ident("condition variable")
            return CondNode(tok.value, var, tok.line)
        self._error("expected condition (* | nonnull x | null x)")

    def _parse_stmt(self):
        tok = self._peek()
        if tok.value in ("if", "loop", "while"):
            if self._depth == MAX_NESTING:
                self._error(
                    "statements nested more than %d deep" % MAX_NESTING, tok
                )
            self._depth += 1
            stmt = self._parse_if() if tok.value == "if" else self._parse_loop()
            self._depth -= 1
            return stmt
        stmt = self._parse_simple()
        self._expect(";")
        return stmt

    def _parse_if(self):
        line = self._expect("if").line
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        then_block = self._parse_block()
        else_block = BlockNode([], line)
        if self._accept("else"):
            else_block = self._parse_block()
        return IfNode(cond, then_block, else_block, line)

    def _parse_loop(self):
        tok = self._peek()  # 'loop' or 'while'
        self._pos += 1
        label = None
        if tok.value == "loop":
            label = self._expect_ident("loop label")
        cond = CondNode("*", None, tok.line)
        if self._accept("("):
            cond = self._parse_cond()
            self._expect(")")
        body = self._parse_block()
        return LoopNode(label, cond, body, tok.line)

    def _parse_optional_site(self):
        if self._accept("@"):
            return self._expect_ident("site label")
        return None

    def _parse_call(self, target, line):
        self._expect("call")
        receiver = self._expect_ident("call receiver")
        self._expect(".")
        method_name = self._expect_ident("method name")
        self._expect("(")
        args = []
        if not self._accept(")"):
            args.append(self._expect_ident("argument"))
            while self._accept(","):
                args.append(self._expect_ident("argument"))
            self._expect(")")
        site = self._parse_optional_site()
        return CallNode(target, receiver, method_name, args, site, line)

    def _parse_simple(self):
        tok = self._peek()
        line = tok.line
        if tok.value == "return":
            self._pos += 1
            value = None
            if self._peek().kind == IDENT:
                value = self._peek().value
                self._pos += 1
            return ReturnNode(value, line)
        if tok.value == "call":
            return self._parse_call(None, line)
        if tok.kind != IDENT:
            self._error("expected statement")
        first = tok.value
        self._pos += 1
        if self._accept("."):
            # store:  first.field = source
            field = self._expect_ident("field name")
            self._expect("=")
            if self._accept("null"):
                return StoreNullNode(first, field, line)
            source = self._expect_ident("source variable")
            return StoreNode(first, field, source, line)
        self._expect("=")
        rhs = self._peek()
        if rhs.value == "new":
            self._pos += 1
            class_name = self._expect_ident("class name")
            dims = 0
            while self._accept("[]"):
                dims += 1
            site = self._parse_optional_site()
            return NewNode(first, class_name, dims, site, line)
        if rhs.value == "null":
            self._pos += 1
            return NullAssignNode(first, line)
        if rhs.value == "call":
            return self._parse_call(first, line)
        source = self._expect_ident("right-hand side")
        if self._accept("."):
            field = self._expect_ident("field name")
            return LoadNode(first, source, field, line)
        return CopyNode(first, source, line)


def parse(source):
    """Parse while-language source text into an AST."""
    return Parser(source).parse_program()


# -- lowering ----------------------------------------------------------


class _Lowering:
    def __init__(self, ast):
        self._ast = ast
        self._class_names = {c.name for c in ast.classes} | {OBJECT_CLASS}
        self._site_counter = {}
        self._loop_counter = {}
        self._method_sig = None

    def _fresh(self, counters, hint):
        key = (self._method_sig, hint)
        n = counters.get(key, 0)
        counters[key] = n + 1
        suffix = "" if n == 0 else "_%d" % n
        # ':' instead of '.' so generated labels lex as single identifiers
        return "%s/%s%s" % (self._method_sig.replace(".", ":"), hint, suffix)

    def lower(self):
        program = Program()
        for cls_node in self._ast.classes:
            decl = ClassDecl(
                cls_node.name,
                superclass=cls_node.superclass or OBJECT_CLASS,
                is_library=cls_node.is_library,
            )
            for field_name in cls_node.fields:
                decl.add_field(field_name)
            program.add_class(decl)
        for cls_node in self._ast.classes:
            decl = program.cls(cls_node.name)
            for meth_node in cls_node.methods:
                self._method_sig = "%s.%s" % (cls_node.name, meth_node.name)
                method = Method(
                    meth_node.name,
                    meth_node.params,
                    self._lower_block(meth_node.body),
                    cls_node.name,
                    is_static=meth_node.is_static,
                )
                decl.add_method(method)
                program.seal_method(method)
        program.entry = self._ast.entry
        return program

    def _lower_block(self, block_node):
        return Block([self._lower_stmt(s) for s in block_node.stmts])

    def _lower_cond(self, cond_node):
        kind = {
            "*": Cond.NONDET,
            "nonnull": Cond.NONNULL,
            "null": Cond.NULL,
        }[cond_node.kind]
        return Cond(kind, cond_node.var)

    def _lower_stmt(self, node):
        if isinstance(node, NewNode):
            site = node.site or self._fresh(self._site_counter, node.class_name)
            return NewStmt(node.target, RefType(node.class_name, node.dims), site)
        if isinstance(node, CopyNode):
            return CopyStmt(node.target, node.source)
        if isinstance(node, NullAssignNode):
            return NullStmt(node.target)
        if isinstance(node, LoadNode):
            return LoadStmt(node.target, node.base, node.field)
        if isinstance(node, StoreNode):
            return StoreStmt(node.base, node.field, node.source)
        if isinstance(node, StoreNullNode):
            return StoreNullStmt(node.base, node.field)
        if isinstance(node, CallNode):
            site = node.site or self._fresh(
                self._site_counter, "call:" + node.method_name
            )
            if node.receiver in self._class_names:
                return InvokeStmt(
                    node.target, None, node.receiver, node.method_name, node.args, site
                )
            return InvokeStmt(
                node.target, node.receiver, None, node.method_name, node.args, site
            )
        if isinstance(node, ReturnNode):
            return ReturnStmt(node.value)
        if isinstance(node, IfNode):
            return IfStmt(
                self._lower_cond(node.cond),
                self._lower_block(node.then_block),
                self._lower_block(node.else_block),
            )
        if isinstance(node, LoopNode):
            label = node.label or self._fresh(self._loop_counter, "loop")
            return LoopStmt(label, self._lower_block(node.body), self._lower_cond(node.cond))
        raise ParseError("cannot lower AST node %r" % node, getattr(node, "line", None), 0)


def lower(ast):
    """Lower a parsed AST into a sealed :class:`repro.ir.Program`."""
    return _Lowering(ast).lower()


def build(source):
    """Parse and lower ``source``: the sealed, unvalidated IR program."""
    return lower(parse(source))
