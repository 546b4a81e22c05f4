"""Heap snapshots and retention queries over concrete traces.

The paper contrasts LeakChecker with dynamic heap-analysis tools that
"take heap snapshots and visualize the object graph to help users find
unnecessary references".  This module gives the concrete interpreter
that view: the concrete *retainers* of a leaking site should include
the redundant edge the static detector reported, which
``examples/dynamic_vs_static.py`` shows and the test suite checks on
Figure 1.
"""


class HeapSnapshot:
    """The object graph at the end of an execution."""

    def __init__(self, trace):
        self.trace = trace
        #: list of (base oid, field, target object) — final heap state;
        #: array element slots contribute one edge per retained element
        self.edges = []
        for obj in trace.objects:
            for field, value in obj.fields.items():
                if value is not None:
                    self.edges.append((obj.oid, field, value))
            if obj.elements:
                for value in obj.elements:
                    if value is not None:
                        self.edges.append((obj.oid, "elem", value))
        self._by_oid = {obj.oid: obj for obj in trace.objects}

    # -- queries -------------------------------------------------------------

    def object(self, oid):
        return self._by_oid[oid]

    def retainers_of(self, site_label):
        """(base_site, field) pairs that retain instances of a site in
        the final heap — the concrete counterpart of the detector's
        redundant reference edges."""
        found = set()
        for oid, field, target in self.edges:
            if target.site == site_label:
                found.add((self.object(oid).site, field))
        return found

    def __repr__(self):
        return "HeapSnapshot(%d objects, %d edges)" % (
            len(self._by_oid),
            len(self.edges),
        )


def snapshot(trace):
    """Build a :class:`HeapSnapshot` from an execution trace."""
    return HeapSnapshot(trace)
