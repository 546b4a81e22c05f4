"""Recursive-descent parser for the while language.

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
"""

from repro.errors import ParseError
from repro.lang import ast_nodes as A
from repro.lang.lexer import tokenize
from repro.lang.tokens import EOF, IDENT

#: Deepest nesting of ``if``/``loop``/``while`` statements a program may
#: use.  Lowering, validation and the analyses recurse over the same
#: nesting, and each handles this depth, also on a thread's stack as the
#: daemon runs them; past it the parser answers with a ``ParseError``
#: instead of exhausting the interpreter's recursion limit.
MAX_NESTING = 200


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
        return A.ProgramNode(classes, entry)

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
        return A.ClassNode(name, superclass, is_library, fields, methods, line)

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
        return A.MethodNode(name, params, is_static, body, line)

    def _parse_block(self):
        line = self._peek().line
        self._expect("{")
        stmts = []
        while not self._accept("}"):
            stmts.append(self._parse_stmt())
        return A.BlockNode(stmts, line)

    def _parse_cond(self):
        tok = self._peek()
        if self._accept("*"):
            return A.CondNode("*", None, tok.line)
        if tok.value in ("nonnull", "null"):
            self._pos += 1
            var = self._expect_ident("condition variable")
            return A.CondNode(tok.value, var, tok.line)
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
        else_block = A.BlockNode([], line)
        if self._accept("else"):
            else_block = self._parse_block()
        return A.IfNode(cond, then_block, else_block, line)

    def _parse_loop(self):
        tok = self._peek()  # 'loop' or 'while'
        self._pos += 1
        label = None
        if tok.value == "loop":
            label = self._expect_ident("loop label")
        cond = A.CondNode("*", None, tok.line)
        if self._accept("("):
            cond = self._parse_cond()
            self._expect(")")
        body = self._parse_block()
        return A.LoopNode(label, cond, body, tok.line)

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
        return A.CallNode(target, receiver, method_name, args, site, line)

    def _parse_simple(self):
        tok = self._peek()
        line = tok.line
        if tok.value == "return":
            self._pos += 1
            value = None
            if self._peek().kind == IDENT:
                value = self._peek().value
                self._pos += 1
            return A.ReturnNode(value, line)
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
                return A.StoreNullNode(first, field, line)
            source = self._expect_ident("source variable")
            return A.StoreNode(first, field, source, line)
        self._expect("=")
        rhs = self._peek()
        if rhs.value == "new":
            self._pos += 1
            class_name = self._expect_ident("class name")
            dims = 0
            while self._accept("[]"):
                dims += 1
            site = self._parse_optional_site()
            return A.NewNode(first, class_name, dims, site, line)
        if rhs.value == "null":
            self._pos += 1
            return A.NullAssignNode(first, line)
        if rhs.value == "call":
            return self._parse_call(first, line)
        source = self._expect_ident("right-hand side")
        if self._accept("."):
            field = self._expect_ident("field name")
            return A.LoadNode(first, source, field, line)
        return A.CopyNode(first, source, line)


def parse(source):
    """Parse while-language source text into an AST."""
    return Parser(source).parse_program()
