"""Class-hierarchy queries shared by the call-graph builders."""


class ClassHierarchy:
    """A program's methods indexed by name."""

    def __init__(self, program):
        #: method name -> declarations of that name, in class order
        self._by_name = {}
        for decl in program.classes.values():
            for method_name, method in decl.methods.items():
                self._by_name.setdefault(method_name, []).append(method)

    def all_targets(self, method_name):
        """Every method named ``method_name`` anywhere in the hierarchy —
        the dispatch approximation used when the receiver type is unknown
        (our variables are untyped, as in the while language)."""
        return list(self._by_name.get(method_name, ()))
