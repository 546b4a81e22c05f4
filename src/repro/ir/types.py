"""Reference types for the Jimple-like IR.

The analyses in this library are heap analyses: only reference types matter.
Primitive values (ints, booleans) never appear; loop/branch conditions are
nondeterministic, matching the while language of the paper's Section 3.
"""

from repro.errors import IRError

#: Pseudo-field used to model all array elements, following the paper's
#: treatment of arrays ("the reference edge from a34.elem ...").
ELEM_FIELD = "elem"

#: Name of the root class of the hierarchy.
OBJECT_CLASS = "Object"

#: Name of the thread class; instances whose ``start`` method is invoked are
#: treated as outside objects when thread modeling is enabled (Section 5.2,
#: Mikou case study).
THREAD_CLASS = "Thread"


class RefType:
    """A reference type: a class name, optionally an array of it.

    ``dims`` counts array dimensions; multi-dimensional arrays collapse onto
    the single ``elem`` pseudo-field per level, which is all the leak
    analysis needs.
    """

    __slots__ = ("class_name", "dims")

    def __init__(self, class_name, dims=0):
        if not class_name:
            raise IRError("empty class name in RefType")
        if dims < 0:
            raise IRError("negative array dimension count")
        self.class_name = class_name
        self.dims = dims

    @property
    def is_array(self):
        return self.dims > 0

    def element_type(self):
        """The type obtained by reading ``elem`` from an array of this type."""
        if not self.is_array:
            raise IRError("element_type() on non-array type %s" % self)
        return RefType(self.class_name, self.dims - 1)

    def __eq__(self, other):
        return (
            isinstance(other, RefType)
            and self.class_name == other.class_name
            and self.dims == other.dims
        )

    def __hash__(self):
        return hash((self.class_name, self.dims))

    def __repr__(self):
        return "RefType(%r)" % str(self)

    def __str__(self):
        return self.class_name + "[]" * self.dims
