"""The stronger flows-in condition for standard-library code (Section 4).

Collection internals read their backing arrays for bookkeeping — e.g.
``HashMap.put`` reads entries to test whether a key already exists — and
treating those reads as genuine retrievals would hide leaks.  LeakChecker
therefore distinguishes application from library code: a load executed in
a *library* method produces a flows-in relationship only when the loaded
object is returned to application code.

``library_visible_values`` computes, for a program and PAG, the set of
variables in library methods whose values escape to application code
through return chains — the detector then keeps a library load only when
its target is in that set.
"""

from itertools import compress


def is_library_sig(program, method_sig):
    class_name = method_sig.rpartition(".")[0]
    return program.cls(class_name).is_library


def library_visible_values(program, pag):
    """``(method_sig, name)`` keys of the variables whose values may reach
    application code via copies and returns.

    Computed backwards over variable ids: seed with every variable of
    every application method, then propagate against assign edges.  A
    library-load target in the result set can flow into an application
    variable, satisfying the stronger condition ("the object is
    returned to the application code").
    """
    table = pag.var_table
    library = {}
    visible = bytearray(len(table))
    work = []
    for vid, (sig, _name) in enumerate(table):
        lib = library.get(sig)
        if lib is None:
            lib = library[sig] = is_library_sig(program, sig)
        if not lib:
            visible[vid] = 1
            work.append(vid)
    assigns_into = pag.assigns_into
    while work:
        for src, _cid, _code in assigns_into[work.pop()]:
            if not visible[src]:
                visible[src] = 1
                work.append(src)
    return set(compress(table, visible))
