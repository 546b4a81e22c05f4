"""Recursive-descent parser for the while language: source text in,
sealed IR :class:`~repro.ir.program.Program` out.

Grammar (EBNF, ``[...]`` optional, ``{...}`` repetition)::

    program   ::= { class_decl } [ entry_decl { class_decl } ]
    entry_decl::= "entry" qualified ";"
    class_decl::= ["library"] "class" IDENT ["extends" IDENT] "{" member* "}"
    member    ::= "field" IDENT ";" | method
    method    ::= ["static"] "method" IDENT "(" [params] ")" block
    block     ::= "{" stmt* "}"
    stmt      ::= simple ";" | if_stmt | loop_stmt
    simple    ::= IDENT "=" rhs | IDENT "." IDENT "=" IDENT
                | ["IDENT ="] "call" IDENT "." IDENT "(" [args] ")" ["@" IDENT]
                | "return" [IDENT]
    rhs       ::= "new" IDENT {"[]"} ["@" IDENT] | "null" | IDENT ["." IDENT]
    if_stmt   ::= "if" "(" cond ")" block ["else" block]
    loop_stmt ::= ("loop" IDENT | "while") ["(" cond ")"] block
    cond      ::= "*" | "nonnull" IDENT | "null" IDENT

Semicolons terminate simple statements; blocks need no trailing semicolon.

Each statement maps to one IR statement (Section 3), which the parser
builds as it reads it.  An unlabelled allocation, call or ``while`` gets a
generated label ``Class:method/Hint[_n]``, numbered per method and hint
in text order.
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
from repro.lang.lexer import NOT_IDENTIFIERS, position, tokenize

#: Deepest nesting of ``if``/``loop``/``while`` statements a program may
#: use.  The parser, validation and the analyses recurse over the same
#: nesting, and each handles this depth, also on a thread's stack as the
#: daemon runs them; past it the parser answers with a ``ParseError``
#: instead of exhausting the interpreter's recursion limit.
MAX_NESTING = 200


class Parser:
    """Single-use parser over the token texts of one source.

    ``parse_program`` returns each class as a ``(name, superclass,
    is_library, fields, methods)`` tuple, plus the entry; ``invokes``
    lists every call, each built as virtual until :func:`parse` knows
    all class names.
    """

    def __init__(self, source):
        self._source = source
        self._texts = tokenize(source)
        self._pos = 0
        self._depth = 0
        self._prefix = None  # "Class:method", the generated labels' stem
        self._counters = {}  # hint -> labels generated in this method
        self.invokes = []

    # -- token helpers -----------------------------------------------------

    def _peek(self):
        return self._texts[self._pos]

    def _error(self, message):
        """Raise ``message`` at the current token's line and column."""
        line, column = position(self._source, self._pos)
        raise ParseError(message, line, column)

    def _fail(self, pos, what):
        """Raise "expected ``what``" at token ``pos``."""
        self._pos = pos
        self._error("expected %s, found %r" % (what, self._texts[pos]))

    # Keywords and punctuation never lex as identifiers, so a token's
    # text alone tells them apart; EOF's text is the empty string.

    def _expect(self, value):
        if self._texts[self._pos] != value:
            self._fail(self._pos, repr(value))
        self._pos += 1

    def _expect_ident(self, what="identifier"):
        text = self._texts[self._pos]
        if text in NOT_IDENTIFIERS:
            self._fail(self._pos, what)
        self._pos += 1
        return text

    def _accept(self, value):
        if self._texts[self._pos] == value:
            self._pos += 1
            return True
        return False

    def _fresh(self, hint):
        # ``loop`` is a keyword, so no class or call hint shares its count.
        n = self._counters.get(hint, 0)
        self._counters[hint] = n + 1
        return "%s/%s%s" % (self._prefix, hint, "_%d" % n if n else "")

    # -- grammar -----------------------------------------------------------

    def parse_program(self):
        classes = []
        entry = None
        entry_index = None
        while self._peek():  # EOF's text is empty
            text = self._peek()
            if text == "entry":
                if entry is not None:
                    self._error(
                        "second entry declaration; the first is 'entry %s;' "
                        "on line %d"
                        % (entry, position(self._source, entry_index)[0])
                    )
                entry_index = self._pos
                self._pos += 1
                first = self._expect_ident("entry class")
                self._expect(".")
                meth = self._expect_ident("entry method")
                entry = "%s.%s" % (first, meth)
                self._expect(";")
            elif text in ("library", "class"):
                classes.append(self._parse_class())
            else:
                self._error("expected class or entry declaration")
        return classes, entry

    def _parse_class(self):
        is_library = self._accept("library")
        self._expect("class")
        name = self._expect_ident("class name")
        superclass = OBJECT_CLASS
        if self._accept("extends"):
            superclass = self._expect_ident("superclass name")
        self._expect("{")
        fields = []
        methods = []
        while not self._accept("}"):
            text = self._peek()
            if text == "field":
                self._pos += 1
                fields.append(self._expect_ident("field name"))
                self._expect(";")
            elif text in ("method", "static"):
                methods.append(self._parse_method(name))
            else:
                self._error("expected field or method declaration")
        return name, superclass, is_library, fields, methods

    def _parse_method(self, class_name):
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
        # ':' instead of '.' so generated labels lex as single identifiers
        self._prefix = "%s:%s" % (class_name, name)
        self._counters = {}
        body = self._parse_block()
        return Method(name, params, body, class_name, is_static=is_static)

    def _parse_block(self):
        self._expect("{")
        texts = self._texts
        stmts = []
        while texts[self._pos] != "}":
            stmts.append(self._parse_stmt())
        self._pos += 1
        return Block(stmts)

    def _parse_cond(self):
        text = self._peek()
        if self._accept("*"):
            return Cond()
        if text in ("nonnull", "null"):
            self._pos += 1
            return Cond(text, self._expect_ident("condition variable"))
        self._error("expected condition (* | nonnull x | null x)")

    def _parse_stmt(self):
        text = self._peek()
        if text in ("if", "loop", "while"):
            if self._depth == MAX_NESTING:
                self._error("statements nested more than %d deep" % MAX_NESTING)
            self._depth += 1
            stmt = self._parse_if() if text == "if" else self._parse_loop()
            self._depth -= 1
            return stmt
        stmt = self._parse_simple()
        self._expect(";")
        return stmt

    def _parse_if(self):
        self._expect("if")
        self._expect("(")
        cond = self._parse_cond()
        self._expect(")")
        then_block = self._parse_block()
        else_block = self._parse_block() if self._accept("else") else Block()
        return IfStmt(cond, then_block, else_block)

    def _parse_loop(self):
        text = self._peek()  # 'loop' or 'while'
        self._pos += 1
        if text == "loop":
            label = self._expect_ident("loop label")
        else:
            label = self._fresh("loop")
        cond = Cond()
        if self._accept("("):
            cond = self._parse_cond()
            self._expect(")")
        return LoopStmt(label, self._parse_block(), cond)

    def _parse_site(self, hint):
        if self._accept("@"):
            return self._expect_ident("site label")
        return self._fresh(hint)

    def _parse_call(self, target):
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
        site = self._parse_site("call:" + method_name)
        invoke = InvokeStmt(target, receiver, None, method_name, args, site)
        self.invokes.append(invoke)
        return invoke

    def _parse_simple(self):
        # Most statements are a few tokens of fixed shape, so they are
        # read by offset from the first, not through the token helpers;
        # each check stops at the token a helper would stop at, with its
        # message.  An offset is read only after every token before it
        # matched a non-empty text, so none runs past EOF.
        texts = self._texts
        pos = self._pos
        first = texts[pos]
        if first == "return":
            value = texts[pos + 1]
            if value in NOT_IDENTIFIERS:
                self._pos = pos + 1
                return ReturnStmt()
            self._pos = pos + 2
            return ReturnStmt(value)
        if first == "call":
            return self._parse_call(None)
        if first in NOT_IDENTIFIERS:
            self._error("expected statement")
        if texts[pos + 1] == ".":
            # store:  first.field = source
            field = texts[pos + 2]
            if field in NOT_IDENTIFIERS:
                self._fail(pos + 2, "field name")
            if texts[pos + 3] != "=":
                self._fail(pos + 3, "'='")
            source = texts[pos + 4]
            self._pos = pos + 5
            if source == "null":
                return StoreNullStmt(first, field)
            if source in NOT_IDENTIFIERS:
                self._fail(pos + 4, "source variable")
            return StoreStmt(first, field, source)
        if texts[pos + 1] != "=":
            self._fail(pos + 1, "'='")
        rhs = texts[pos + 2]
        if rhs == "new":
            self._pos = pos + 3
            class_name = self._expect_ident("class name")
            dims = 0
            while self._accept("[]"):
                dims += 1
            site = self._parse_site(class_name)
            return NewStmt(first, RefType(class_name, dims), site)
        if rhs == "null":
            self._pos = pos + 3
            return NullStmt(first)
        if rhs == "call":
            self._pos = pos + 2
            return self._parse_call(first)
        if rhs in NOT_IDENTIFIERS:
            self._fail(pos + 2, "right-hand side")
        if texts[pos + 3] == ".":
            field = texts[pos + 4]
            if field in NOT_IDENTIFIERS:
                self._fail(pos + 4, "field name")
            self._pos = pos + 5
            return LoadStmt(first, rhs, field)
        self._pos = pos + 3
        return CopyStmt(first, rhs)


def parse(source):
    """Parse while-language source text into a sealed, unvalidated program.

    A call ``R.m()`` is static when ``R`` names a declared class or
    ``Object``, also one declared later in the text.  Duplicate classes,
    fields, methods and allocation sites raise
    :class:`~repro.errors.IRError` only once the whole text has parsed,
    so a ``ParseError`` wins over them.  Every class and field is declared
    before the first method is sealed, and methods are sealed in class
    order, which also orders the statement uids and the site index.
    """
    parser = Parser(source)
    classes, entry = parser.parse_program()
    class_names = {cls[0] for cls in classes} | {OBJECT_CLASS}
    for invoke in parser.invokes:
        if invoke.base in class_names:
            invoke.base, invoke.static_class = None, invoke.base
    program = Program(entry)
    for name, superclass, is_library, fields, _ in classes:
        decl = ClassDecl(name, superclass, is_library)
        for field_name in fields:
            decl.add_field(field_name)
        program.add_class(decl)
    for name, _, _, _, methods in classes:
        decl = program.classes[name]
        for method in methods:
            decl.add_method(method)
            program.seal_method(method)
    return program
