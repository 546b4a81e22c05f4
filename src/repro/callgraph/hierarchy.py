"""Class-hierarchy queries shared by the call-graph builders."""


class ClassHierarchy:
    """Precomputed subclass/superclass relations of a program, and its
    methods indexed by name."""

    def __init__(self, program):
        self.program = program
        self._subclasses = {name: set() for name in program.classes}
        #: method name -> declarations of that name, in class order
        self._by_name = {}
        for name, decl in program.classes.items():
            cur = name
            while cur is not None:
                self._subclasses[cur].add(name)
                cur = program.cls(cur).superclass
            for method_name, method in decl.methods.items():
                self._by_name.setdefault(method_name, []).append(method)

    def subclasses_of(self, name):
        """All classes equal to or transitively extending ``name``."""
        return set(self._subclasses.get(name, ()))

    def dispatch_targets(self, receiver_class, method_name):
        """Methods that a virtual call ``recv.method_name()`` may invoke
        when the receiver's static type is ``receiver_class``: for every
        concrete subclass, the method found by walking up the chain.
        """
        targets = {}
        for sub in self.subclasses_of(receiver_class):
            cur = sub
            while cur is not None:
                decl = self.program.cls(cur)
                if method_name in decl.methods:
                    targets[decl.methods[method_name].sig] = decl.methods[method_name]
                    break
                cur = decl.superclass
        return list(targets.values())

    def all_targets(self, method_name):
        """Every method named ``method_name`` anywhere in the hierarchy —
        the dispatch approximation used when the receiver type is unknown
        (our variables are untyped, as in the while language)."""
        return list(self._by_name.get(method_name, ()))
