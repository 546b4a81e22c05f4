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
its target is in that set.  It reads the PAG's copy-edge arrays, not the
CFL traversal's reverse adjacency, so a default check never builds that.
"""

from itertools import compress


def is_library_sig(program, method_sig):
    class_name = method_sig.rpartition(".")[0]
    return program.cls(class_name).is_library


def library_visible_values(program, pag):
    """``(method_sig, name)`` keys of the variables whose values may reach
    application code via copies and returns.

    Computed backwards over variable ids: every variable of every
    application method is visible, and a walk back from them over the
    copy edges (``copy_src``/``copy_dst``, returns and call bindings
    included) marks each library variable it reaches.  The walk only
    ever steps to a library source, so it indexes the edges whose source
    is a library variable, by destination, and no others.  A
    library-load target in the result set can flow into an application
    variable, satisfying the stronger condition ("the object is
    returned to the application code").
    """
    table = pag.var_table
    library = {}
    visible = bytearray(len(table))
    for vid, (sig, _name) in enumerate(table):
        lib = library.get(sig)
        if lib is None:
            lib = library[sig] = is_library_sig(program, sig)
        if not lib:
            visible[vid] = 1
    #: destination -> library sources of its copy edges
    sources = {}
    for src, dst in zip(pag.copy_src, pag.copy_dst):
        if not visible[src]:
            sources.setdefault(dst, []).append(src)
    work = [dst for dst in sources if visible[dst]]
    while work:
        for src in sources.get(work.pop(), ()):
            if not visible[src]:
                visible[src] = 1
                work.append(src)
    return set(compress(table, visible))
