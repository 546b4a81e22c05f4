"""Recursive-descent parser for the while language.

Grammar (EBNF, ``[...]`` optional, ``{...}`` repetition)::

    program   ::= { entry_decl | class_decl }
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
from repro.lang.tokens import EOF, IDENT, KEYWORD, PUNCT

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

    def _peek(self, offset=0):
        return self._tokens[min(self._pos + offset, len(self._tokens) - 1)]

    def _advance(self):
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _error(self, message, tok=None):
        tok = tok or self._peek()
        raise ParseError(message, tok.line, tok.column)

    def _expect_punct(self, text):
        tok = self._advance()
        if not tok.is_punct(text):
            self._error("expected %r, found %r" % (text, tok.value), tok)
        return tok

    def _expect_kw(self, word):
        tok = self._advance()
        if not tok.is_kw(word):
            self._error("expected %r, found %r" % (word, tok.value), tok)
        return tok

    def _expect_ident(self, what="identifier"):
        tok = self._advance()
        if tok.kind != IDENT:
            self._error("expected %s, found %r" % (what, tok.value), tok)
        return tok.value

    def _accept_punct(self, text):
        if self._peek().is_punct(text):
            self._advance()
            return True
        return False

    def _accept_kw(self, word):
        if self._peek().is_kw(word):
            self._advance()
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse_program(self):
        classes = []
        entry = None
        while self._peek().kind != EOF:
            tok = self._peek()
            if tok.is_kw("entry"):
                self._advance()
                first = self._expect_ident("entry class")
                self._expect_punct(".")
                meth = self._expect_ident("entry method")
                entry = "%s.%s" % (first, meth)
                self._expect_punct(";")
            elif tok.is_kw("library") or tok.is_kw("class"):
                classes.append(self._parse_class())
            else:
                self._error("expected class or entry declaration")
        return A.ProgramNode(classes, entry)

    def _parse_class(self):
        line = self._peek().line
        is_library = self._accept_kw("library")
        self._expect_kw("class")
        name = self._expect_ident("class name")
        superclass = None
        if self._accept_kw("extends"):
            superclass = self._expect_ident("superclass name")
        self._expect_punct("{")
        fields = []
        methods = []
        while not self._accept_punct("}"):
            tok = self._peek()
            if tok.is_kw("field"):
                self._advance()
                fields.append(self._expect_ident("field name"))
                self._expect_punct(";")
            elif tok.is_kw("method") or tok.is_kw("static"):
                methods.append(self._parse_method())
            else:
                self._error("expected field or method declaration")
        return A.ClassNode(name, superclass, is_library, fields, methods, line)

    def _parse_method(self):
        line = self._peek().line
        is_static = self._accept_kw("static")
        self._expect_kw("method")
        name = self._expect_ident("method name")
        self._expect_punct("(")
        params = []
        if not self._accept_punct(")"):
            params.append(self._expect_ident("parameter"))
            while self._accept_punct(","):
                params.append(self._expect_ident("parameter"))
            self._expect_punct(")")
        body = self._parse_block()
        return A.MethodNode(name, params, is_static, body, line)

    def _parse_block(self):
        line = self._peek().line
        self._expect_punct("{")
        stmts = []
        while not self._accept_punct("}"):
            stmts.append(self._parse_stmt())
        return A.BlockNode(stmts, line)

    def _parse_cond(self):
        tok = self._peek()
        if self._accept_punct("*"):
            return A.CondNode("*", None, tok.line)
        if tok.is_kw("nonnull") or tok.is_kw("null"):
            self._advance()
            var = self._expect_ident("condition variable")
            return A.CondNode(tok.value, var, tok.line)
        self._error("expected condition (* | nonnull x | null x)")

    def _parse_stmt(self):
        tok = self._peek()
        if tok.is_kw("if") or tok.is_kw("loop") or tok.is_kw("while"):
            if self._depth == MAX_NESTING:
                self._error(
                    "statements nested more than %d deep" % MAX_NESTING, tok
                )
            self._depth += 1
            stmt = self._parse_if() if tok.is_kw("if") else self._parse_loop()
            self._depth -= 1
            return stmt
        stmt = self._parse_simple()
        self._expect_punct(";")
        return stmt

    def _parse_if(self):
        line = self._expect_kw("if").line
        self._expect_punct("(")
        cond = self._parse_cond()
        self._expect_punct(")")
        then_block = self._parse_block()
        else_block = A.BlockNode([], line)
        if self._accept_kw("else"):
            else_block = self._parse_block()
        return A.IfNode(cond, then_block, else_block, line)

    def _parse_loop(self):
        tok = self._advance()  # 'loop' or 'while'
        label = None
        if tok.is_kw("loop"):
            label = self._expect_ident("loop label")
        cond = A.CondNode("*", None, tok.line)
        if self._accept_punct("("):
            cond = self._parse_cond()
            self._expect_punct(")")
        body = self._parse_block()
        return A.LoopNode(label, cond, body, tok.line)

    def _parse_optional_site(self):
        if self._accept_punct("@"):
            return self._expect_ident("site label")
        return None

    def _parse_call(self, target, line):
        self._expect_kw("call")
        receiver = self._expect_ident("call receiver")
        self._expect_punct(".")
        method_name = self._expect_ident("method name")
        self._expect_punct("(")
        args = []
        if not self._accept_punct(")"):
            args.append(self._expect_ident("argument"))
            while self._accept_punct(","):
                args.append(self._expect_ident("argument"))
            self._expect_punct(")")
        site = self._parse_optional_site()
        return A.CallNode(target, receiver, method_name, args, site, line)

    def _parse_simple(self):
        tok = self._peek()
        line = tok.line
        if tok.is_kw("return"):
            self._advance()
            value = None
            if self._peek().kind == IDENT:
                value = self._advance().value
            return A.ReturnNode(value, line)
        if tok.is_kw("call"):
            return self._parse_call(None, line)
        if tok.kind != IDENT:
            self._error("expected statement")
        first = self._advance().value
        if self._accept_punct("."):
            # store:  first.field = source
            field = self._expect_ident("field name")
            self._expect_punct("=")
            if self._accept_kw("null"):
                return A.StoreNullNode(first, field, line)
            source = self._expect_ident("source variable")
            return A.StoreNode(first, field, source, line)
        self._expect_punct("=")
        rhs = self._peek()
        if rhs.is_kw("new"):
            self._advance()
            class_name = self._expect_ident("class name")
            dims = 0
            while self._accept_punct("[]"):
                dims += 1
            site = self._parse_optional_site()
            return A.NewNode(first, class_name, dims, site, line)
        if rhs.is_kw("null"):
            self._advance()
            return A.NullAssignNode(first, line)
        if rhs.is_kw("call"):
            return self._parse_call(first, line)
        source = self._expect_ident("right-hand side")
        if self._accept_punct("."):
            field = self._expect_ident("field name")
            return A.LoadNode(first, source, field, line)
        return A.CopyNode(first, source, line)


def parse(source):
    """Parse while-language source text into an AST."""
    return Parser(source).parse_program()
