"""Calling-context representation (call strings).

Contexts distinguish objects created by the same allocation site under
different call chains — the paper's context-sensitive allocation sites
(Table 1's ``LO``/``LS`` columns count these, e.g. SPECjbb2000's 5 sites
correspond to 21 context-sensitive sites).

A :class:`CallString` is a bounded sequence of call-site labels, most
recent last.  ``EMPTY`` is the context of code lexically inside the
checked loop itself.
"""


class CallString:
    """An immutable, bounded sequence of call-site labels."""

    __slots__ = ("sites", "k")

    DEFAULT_K = 8

    def __init__(self, sites=(), k=DEFAULT_K):
        sites = tuple(sites)
        if k is not None and len(sites) > k:
            sites = sites[-k:]
        self.sites = sites
        self.k = k

    def push(self, callsite):
        """Context after descending through ``callsite``."""
        return CallString(self.sites + (callsite,), self.k)

    def top(self):
        """The call site nearest the checked loop, or None when empty.

        This is what the SPECjbb case study calls the "top call sites":
        the calls made directly from the method enclosing the loop.
        """
        return self.sites[0] if self.sites else None

    @property
    def depth(self):
        return len(self.sites)

    def __eq__(self, other):
        return isinstance(other, CallString) and self.sites == other.sites

    def __hash__(self):
        return hash(self.sites)

    def __repr__(self):
        return "CallString(%s)" % " > ".join(self.sites)

    def __str__(self):
        return " > ".join(self.sites) if self.sites else "<in loop>"


EMPTY = CallString()

