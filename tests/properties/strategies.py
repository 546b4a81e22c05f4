"""Hypothesis strategies generating random while-language programs.

Programs have the canonical leak-detection shape: a preamble allocating
outside holder objects, then one labelled loop ``L`` whose body is a
random mix of allocations, copies, heap reads/writes, destructive updates
and nondeterministic branches.  All programs are valid by construction
(every use is definitely assigned: branch arms only contribute
variables assigned on both paths, loop-body definitions do not survive
the loop — matching the definite-assignment check in
:mod:`repro.ir.validate`).

Two optional extensions exercise the harder corners of the language:
``allow_threads`` adds thread-start statements (a ``Worker extends
Thread`` class whose ``run`` allocates and publishes through ``this``;
the concrete interpreter runs ``start()`` bodies inline), and
``allow_nested_loops`` nests additional labelled loops inside the
``L`` body, so scans see more than one candidate region per program.

:func:`dispatch_programs` has another shape: a random class hierarchy
whose methods call each other virtually and statically, for
differential-testing call-graph construction, and
:func:`control_flow_methods` writes one method of ``if``s, loops and
``return``s nested a few deep, for the structured walks checked against
a CFG.  :func:`copy_graph_programs` writes straight-line programs whose
copy graphs hold the shapes offline variable substitution meets; they
are not valid by construction and parse only unvalidated.
"""

from hypothesis import strategies as st

FIELDS = ("f", "g")
VARS = ("v0", "v1", "v2", "v3")
HOLDERS = ("h0", "h1")

_THREAD_CLASSES = """
class Thread { method start() { call this.run() @t_sr; } method run() { return; } }
class Worker extends Thread {
  field f;
  method run() { %s }
}
"""


class _Gen:
    """Stateful source-text generator driven by hypothesis choices."""

    def __init__(
        self,
        draw,
        allow_loads=True,
        allow_threads=False,
        allow_nested_loops=False,
        allow_unlabelled_loops=False,
    ):
        self._draw = draw
        self._site = 0
        self._loop = 0
        self.allow_loads = allow_loads
        self.allow_threads = allow_threads
        self.allow_nested_loops = allow_nested_loops
        self.allow_unlabelled_loops = allow_unlabelled_loops
        self.defined = set(HOLDERS)

    def fresh_site(self, prefix):
        self._site += 1
        return "%s%d" % (prefix, self._site)

    def fresh_loop_label(self):
        self._loop += 1
        return "N%d" % self._loop

    def pick_defined(self):
        return self._draw(st.sampled_from(sorted(self.defined)))

    def worker_run_body(self):
        """Body of ``Worker.run``: allocate, optionally publish via this."""
        site = self.fresh_site("tr")
        if self._draw(st.booleans()):
            return "x = new C @%s; this.f = x;" % site
        return "x = new C @%s;" % site

    def stmt(self, depth):
        choices = ["new", "copy", "store", "null", "store_null"]
        if self.allow_loads:
            choices.append("load")
        if self.allow_threads:
            choices.append("thread")
        if depth > 0:
            choices.append("if")
            if self.allow_nested_loops:
                choices.append("loop")
            if self.allow_unlabelled_loops:
                choices.append("while")
        kind = self._draw(st.sampled_from(choices))
        if kind == "new":
            var = self._draw(st.sampled_from(VARS))
            self.defined.add(var)
            return "%s = new C @%s;" % (var, self.fresh_site("in"))
        if kind == "copy":
            src = self.pick_defined()
            var = self._draw(st.sampled_from(VARS))
            self.defined.add(var)
            return "%s = %s;" % (var, src)
        if kind == "null":
            var = self._draw(st.sampled_from(VARS))
            self.defined.add(var)
            return "%s = null;" % var
        if kind == "store":
            base = self.pick_defined()
            src = self.pick_defined()
            field = self._draw(st.sampled_from(FIELDS))
            return "%s.%s = %s;" % (base, field, src)
        if kind == "store_null":
            base = self.pick_defined()
            field = self._draw(st.sampled_from(FIELDS))
            return "%s.%s = null;" % (base, field)
        if kind == "load":
            base = self.pick_defined()
            var = self._draw(st.sampled_from(VARS))
            field = self._draw(st.sampled_from(FIELDS))
            self.defined.add(var)
            return "%s = %s.%s;" % (var, base, field)
        if kind == "thread":
            var = self._draw(st.sampled_from(VARS))
            self.defined.add(var)
            return "%s = new Worker @%s; call %s.start() @%s;" % (
                var,
                self.fresh_site("ws"),
                var,
                self.fresh_site("wc"),
            )
        if kind in ("loop", "while"):
            # A loop body may run zero times: whatever it defines is not
            # definitely assigned after the loop, so restore the outer
            # defined-set (definite assignment, repro.ir.validate).
            before = set(self.defined)
            body = self.block(depth - 1)
            self.defined = before
            if kind == "while":
                # Unlabelled loop; the parser generates its label.
                return "while (*) { %s }" % body
            return "loop %s (*) { %s }" % (self.fresh_loop_label(), body)
        # if: only variables assigned on *both* arms are definitely
        # assigned after the join.
        before = set(self.defined)
        then_stmts = self.block(depth - 1)
        then_defined = self.defined
        self.defined = set(before)
        else_stmts = self.block(depth - 1)
        self.defined = then_defined & self.defined
        return "if (*) { %s } else { %s }" % (then_stmts, else_stmts)

    def block(self, depth):
        count = self._draw(st.integers(min_value=0, max_value=3))
        return " ".join(self.stmt(depth) for _ in range(count))


@st.composite
def loop_programs(
    draw,
    max_body_stmts=8,
    allow_loads=True,
    allow_threads=False,
    allow_nested_loops=False,
):
    """Source of a random program whose outermost loop has label ``L``.

    With ``allow_threads`` the loop body may start ``Worker`` threads
    (the interpreter runs their ``run`` bodies inline); with
    ``allow_nested_loops`` further labelled loops (``N1``, ``N2``, ...)
    nest inside ``L``, giving whole-program scans several candidate
    regions.
    """
    gen = _Gen(
        draw,
        allow_loads=allow_loads,
        allow_threads=allow_threads,
        allow_nested_loops=allow_nested_loops,
    )
    body = []
    count = draw(st.integers(min_value=1, max_value=max_body_stmts))
    for _ in range(count):
        body.append(gen.stmt(depth=2))
    thread_classes = ""
    if allow_threads:
        thread_classes = _THREAD_CLASSES % gen.worker_run_body()
    source = """
entry Main.main;
class Main {
  static method main() {
    h0 = new C @out0;
    h1 = new C @out1;
    h0.f = h1;
    loop L (*) {
      %s
    }
  }
}
class C { field f; field g; }
%s""" % ("\n      ".join(body), thread_classes)
    return source


@st.composite
def store_only_programs(draw, max_body_stmts=6):
    """Programs whose loop bodies contain no heap reads: every escaping
    site must be reported (no flows-in can exist)."""
    return draw(loop_programs(max_body_stmts=max_body_stmts, allow_loads=False))


@st.composite
def inference_programs(draw, max_body_stmts=6):
    """Programs exercising the region-inference pass: nested labelled
    and unlabelled (``while``) loops, with entry-point variation.

    Three axes vary: whether the main loop lives directly in ``main``
    or in a ``Driver.run`` helper invoked from it (the component-entry
    shape), whether an uncalled allocation-bearing ``Spare.stock``
    method exists (an entry the harness would drive), and the random
    loop-body mix.  Every labelled loop the program contains must show
    up in the inferred candidate catalog.
    """
    gen = _Gen(
        draw,
        allow_loads=True,
        allow_nested_loops=True,
        allow_unlabelled_loops=True,
    )
    body = []
    count = draw(st.integers(min_value=1, max_value=max_body_stmts))
    for _ in range(count):
        body.append(gen.stmt(depth=2))
    loop_text = "loop L (*) {\n      %s\n    }" % "\n      ".join(body)
    in_helper = draw(st.booleans())
    if in_helper:
        main_body = (
            "h0 = new C @out0; h1 = new C @out1; h0.f = h1; "
            "d = new Driver @drv; call d.run(h0, h1) @dc;"
        )
        helper = (
            "class Driver { method run(h0, h1) { %s } }" % loop_text
        )
    else:
        main_body = (
            "h0 = new C @out0; h1 = new C @out1; h0.f = h1; %s" % loop_text
        )
        helper = ""
    spare = ""
    if draw(st.booleans()):
        spare = (
            "class Spare { method stock() "
            "{ s = new C @sp1; t = new C @sp2; s.f = t; } }"
        )
    return """
entry Main.main;
class Main {
  static method main() {
    %s
  }
}
class C { field f; field g; }
%s
%s""" % (main_body, helper, spare)


@st.composite
def rich_loop_programs(draw, max_body_stmts=8):
    """Loop programs with every extension on — threads and nested
    labelled loops — for differential-testing the scan backends."""
    return draw(
        loop_programs(
            max_body_stmts=max_body_stmts,
            allow_threads=True,
            allow_nested_loops=True,
        )
    )


#: Per-resource loop-body shapes.  ``balanced``/``leaked`` are
#: branch-free (concrete behaviour is schedule-independent, so the
#: static verdict must match exactly); ``conditional`` releases on one
#: nondeterministic arm only (the static must-release intersection
#: reports it; concretely it leaks only on schedules taking the other
#: arm — a soundness-only case).
RESOURCE_SHAPES = ("balanced", "leaked", "conditional")


@st.composite
def resource_loop_programs(draw, max_resources=3):
    """Source of a program whose loop ``L`` acquires 1..N ``FileStream``
    resources, each held in its own local (singleton points-to, so the
    static must-release check has no receiver ambiguity) with an
    independently drawn shape.  Returns ``(source, shapes)`` where
    ``shapes`` maps the allocation-site label to its drawn shape; the
    library model (``library_source("filestream")``) is already
    prepended.
    """
    from repro.javalib import library_source

    count = draw(st.integers(min_value=1, max_value=max_resources))
    shapes = {}
    body = []
    for i in range(count):
        var = "r%d" % i
        site = "res%d" % i
        shape = draw(st.sampled_from(RESOURCE_SHAPES))
        shapes[site] = shape
        body.append("%s = new FileStream @%s;" % (var, site))
        body.append("call %s.open() @aq%d;" % (var, i))
        if draw(st.booleans()):
            body.append("d%d = call %s.read() @rd%d;" % (i, var, i))
        if shape == "balanced":
            body.append("call %s.close() @rl%d;" % (var, i))
        elif shape == "conditional":
            body.append(
                "if (*) { call %s.close() @rl%d; } else { }" % (var, i)
            )
    source = library_source("filestream") + """
entry Main.main;
class Main {
  static method main() {
    loop L (*) {
      %s
    }
  }
}
""" % "\n      ".join(body)
    return source, shapes


#: Virtual method names of :func:`dispatch_programs`; ``m<i>`` takes
#: ``i % 2`` parameters, whichever class declares it.
DISPATCH_NAMES = ("m0", "m1", "m2", "m3")

#: Static helpers of ``Main`` in :func:`dispatch_programs`.
DISPATCH_STATICS = ("s0", "s1")


@st.composite
def dispatch_programs(draw, max_classes=9, max_body_stmts=4):
    """Source of a random program with varied virtual dispatch.

    Up to ``max_classes`` classes, each optionally extending an earlier
    one, override random subsets of up to four method names; one class
    declares them all, so every virtual call has a target.  Class names
    are a random permutation, so declaration order, ``extends`` order
    and name order disagree.  Every body first assigns its receiver
    ``r`` a new object, then mixes allocations (which instantiate
    classes), virtual calls on ``r`` or ``this``, and static calls to
    ``Main``'s helpers, so call-graph construction meets invokes before
    and after the classes they dispatch to.
    """
    count = draw(st.integers(min_value=1, max_value=max_classes))
    names = draw(st.permutations(["K%d" % i for i in range(max_classes)]))
    classes = names[:count]
    methods = DISPATCH_NAMES[: draw(st.integers(1, len(DISPATCH_NAMES)))]
    full = draw(st.integers(0, count - 1))
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return "%s%d" % (prefix, counter[0])

    def call(receiver, name):
        args = "r" if DISPATCH_NAMES.index(name) % 2 else ""
        return "call %s.%s(%s) @%s;" % (receiver, name, args, fresh("c"))

    def body(instance):
        stmts = ["r = new %s @%s;" % (draw(st.sampled_from(classes)), fresh("s"))]
        kinds = ["new", "virtual", "static"] + (["this"] if instance else [])
        for _ in range(draw(st.integers(0, max_body_stmts))):
            kind = draw(st.sampled_from(kinds))
            if kind == "new":
                target = draw(st.sampled_from(["r", "o"]))
                cls = draw(st.sampled_from(classes))
                stmts.append("%s = new %s @%s;" % (target, cls, fresh("s")))
            elif kind == "static":
                helper = draw(st.sampled_from(DISPATCH_STATICS))
                stmts.append("call Main.%s() @%s;" % (helper, fresh("c")))
            else:
                receiver = "r" if kind == "virtual" else "this"
                stmts.append(call(receiver, draw(st.sampled_from(methods))))
        return " ".join(stmts)

    def method(name, instance=True):
        params = "p" if instance and DISPATCH_NAMES.index(name) % 2 else ""
        head = "method" if instance else "static method"
        return "%s %s(%s) { %s }" % (head, name, params, body(instance))

    decls = []
    for index, name in enumerate(classes):
        parent = None
        if index and draw(st.booleans()):
            parent = draw(st.sampled_from(classes[:index]))
        declared = methods if index == full else draw(
            st.lists(st.sampled_from(methods), unique=True)
        )
        decls.append(
            "class %s%s { %s }"
            % (
                name,
                " extends %s" % parent if parent else "",
                " ".join(method(m) for m in declared),
            )
        )
    statics = " ".join(
        method(name, instance=False) for name in ("main",) + DISPATCH_STATICS
    )
    return "entry Main.main;\nclass Main { %s }\n%s\n" % (
        statics,
        "\n".join(decls),
    )


#: The variables of :func:`control_flow_methods`; ``p`` is the
#: method's parameter, so it is assigned on entry.
_FLOW_VARS = ("p", "a", "b", "c")
_FLOW_STATEMENTS = ("null", "copy", "store", "call", "return", "return value")
_FLOW_NESTING = ("if", "if-else", "loop")


@st.composite
def control_flow_methods(draw, max_depth=4, max_stmts=4):
    """One method of ``if``s (with and without ``else``, on ``*`` or on
    a variable), loops and ``return``s nested up to ``max_depth`` deep,
    over a few variables.  Which arms fall through decides both the
    definite-assignment sets, the issue order and which loops are
    natural, and statement mutants of the corpus rarely put a
    ``return`` inside an arm."""
    labels = iter(range(1_000_000))

    def cond():
        kind = draw(st.sampled_from(("*", "*", "nonnull", "null")))
        if kind == "*":
            return kind
        return "%s %s" % (kind, draw(st.sampled_from(_FLOW_VARS)))

    def body(depth):
        stmts = []
        kinds = _FLOW_STATEMENTS + (_FLOW_NESTING if depth < max_depth else ())
        for _ in range(draw(st.integers(min_value=0, max_value=max_stmts))):
            kind = draw(st.sampled_from(kinds))
            v, w = draw(st.sampled_from(_FLOW_VARS)), draw(
                st.sampled_from(_FLOW_VARS)
            )
            if kind == "if":
                stmts.append("if (%s) { %s }" % (cond(), body(depth + 1)))
            elif kind == "if-else":
                stmts.append(
                    "if (%s) { %s } else { %s }"
                    % (cond(), body(depth + 1), body(depth + 1))
                )
            elif kind == "loop":
                stmts.append(
                    "loop L%d (%s) { %s }" % (next(labels), cond(), body(depth + 1))
                )
            elif kind == "return":
                stmts.append("return;")
            elif kind == "return value":
                stmts.append("return %s;" % v)
            elif kind == "null":
                stmts.append("%s = null;" % v)
            elif kind == "copy":
                stmts.append("%s = %s;" % (v, w))
            elif kind == "store":
                stmts.append("%s.f = %s;" % (v, w))
            else:
                stmts.append("call %s.m(%s) @c%d;" % (v, w, next(labels)))
        return " ".join(stmts)

    return "class A { field f; method m(p) { %s } }" % body(0)


#: Variables shared by the statements of :func:`copy_graph_programs`.
_COPY_VARS = tuple("v%d" % i for i in range(6))
_COPY_SHAPES = (
    "new",
    "box",
    "copy",
    "self-copy",
    "chain",
    "ring",
    "diamond",
    "new with a copy",
    "load with a copy",
    "store",
    "load",
    "call",
)
_COPY_HELPERS = """
  static method pass(p) { q = p; return q; }
  static method relay(p) { t = call Main.pass(p) @relay_pass; return t; }
  static method spin(p) { s = call Main.spin(p) @spin_self; return s; }
"""


@st.composite
def copy_graph_programs(draw, max_shapes=10):
    """Source of a straight-line ``Main.main`` built from copy-graph
    shapes: copy chains, rings with and without an entry, self-copies
    (``x = x``), diamonds, ``new`` and load targets that also have one
    copy inflow, heap stores and loads, and calls whose parameters and
    returns chain copies through ``Main.pass``, ``Main.relay``,
    ``Main.spin`` (its return and its call's target form a ring with no
    entry) and the instance methods of ``C``.

    Uses may precede definitions, so the program parses only with
    ``validate=False``.  Shapes use the shared variables ``v0``-``v5``
    or fresh ones, so a ring may have no inflow from outside it; half
    the heap accesses go through ``hub``, one object allocated first.
    """
    counter = iter(range(1, 1_000_000))

    def fresh(prefix):
        return "%s%d" % (prefix, next(counter))

    def var():
        if draw(st.integers(0, 3)) == 0:
            return fresh("w")
        return draw(st.sampled_from(_COPY_VARS))

    def base():
        # Half the heap accesses go through the hub, so loads meet
        # slots that stores filled.
        if draw(st.booleans()):
            return "hub"
        return draw(st.sampled_from(_COPY_VARS))

    def distinct(count):
        names = []
        while len(names) < count:
            name = var()
            if name not in names:
                names.append(name)
        return names

    stmts = []
    for _ in range(draw(st.integers(1, max_shapes))):
        kind = draw(st.sampled_from(_COPY_SHAPES))
        if kind == "new":
            stmts.append("%s = new C @%s;" % (var(), fresh("s")))
        elif kind == "box":
            stmts.append("%s = new Box @%s;" % (var(), fresh("b")))
        elif kind == "copy":
            stmts.append("%s = %s;" % (var(), var()))
        elif kind == "self-copy":
            name = var()
            stmts.append("%s = %s;" % (name, name))
        elif kind == "chain":
            names = distinct(draw(st.integers(2, 5)))
            stmts += ["%s = %s;" % (b, a) for a, b in zip(names, names[1:])]
        elif kind == "ring":
            names = distinct(draw(st.integers(2, 4)))
            stmts += [
                "%s = %s;" % (names[i], names[i - 1])
                for i in range(len(names))
            ]
            if draw(st.booleans()):
                stmts.append("%s = %s;" % (names[0], var()))
        elif kind == "diamond":
            a, b, c, d = distinct(4)
            stmts += ["%s = %s;" % pair for pair in ((b, a), (c, a), (d, b), (d, c))]
        elif kind == "new with a copy":
            target = var()
            stmts.append("%s = new C @%s;" % (target, fresh("s")))
            stmts.append("%s = %s;" % (target, var()))
        elif kind == "load with a copy":
            target = var()
            field = draw(st.sampled_from(FIELDS))
            stmts.append("%s = %s.%s;" % (target, base(), field))
            stmts.append("%s = %s;" % (target, var()))
        elif kind == "store":
            field = draw(st.sampled_from(FIELDS))
            stmts.append("%s.%s = %s;" % (base(), field, var()))
        elif kind == "load":
            field = draw(st.sampled_from(FIELDS))
            stmts.append("%s = %s.%s;" % (var(), base(), field))
        else:
            callee = draw(
                st.sampled_from(
                    ("Main.pass", "Main.relay", "Main.spin", "@id", "@self")
                )
            )
            site = fresh("c")
            if callee == "@id":
                call = "call %s.id(%s) @%s" % (var(), var(), site)
            elif callee == "@self":
                call = "call %s.self() @%s" % (var(), site)
            else:
                call = "call %s(%s) @%s" % (callee, var(), site)
            stmts.append("%s = %s;" % (var(), call))
    return """
entry Main.main;
class Main {
  static method main() {
    hub = new Box @hub;
    %s
  }%s}
class C {
  field f; field g;
  method id(p) { r = p; return r; }
  method self() { return this; }
}
class Box { field f; field g; }
""" % ("\n    ".join(stmts), _COPY_HELPERS)
