"""Checkable regions: the user-specified loops and code regions.

LeakChecker is client-driven: the user names the loop (or repeatedly
executed code region) to check, and everything after that is automatic.
Both kinds of region the paper supports are addressed by **one
canonical string form**, parsed by :meth:`RegionSpec.parse` and used by
every CLI ``--region`` flag and API entry point alike:

* ``"Class.method:LABEL"`` — a labelled loop in a method ("the main
  event loop");
* ``"Class.method"`` — a whole method body treated as the body of an
  artificial loop, for component-based software where the real event
  loop is invisible (e.g. an Eclipse plugin's ``runCompare`` entry
  method).

Both forms resolve to one class, :class:`RegionSpec`.
"""

from repro.errors import ResolutionError
from repro.ir.stmts import InvokeStmt, NewStmt, walk


class Region:
    """Common interface of checkable regions."""

    def describe(self):  # pragma: no cover - interface
        raise NotImplementedError

    def method(self, program):  # pragma: no cover - interface
        raise NotImplementedError

    def body_statements(self, program):  # pragma: no cover - interface
        raise NotImplementedError

    def inside_new_stmts(self, program):
        """Allocation statements lexically inside one iteration."""
        return [
            s for s in self.body_statements(program) if isinstance(s, NewStmt)
        ]

    def inside_call_stmts(self, program):
        """Call statements lexically inside one iteration."""
        return [
            s for s in self.body_statements(program) if isinstance(s, InvokeStmt)
        ]


class RegionSpec(Region):
    """The one checkable-region specification.

    ``RegionSpec("Main.main", "L1")`` names the labelled loop ``L1`` in
    ``Main.main``; ``RegionSpec("CompareUI.runCompare")`` checks the
    whole method as if it were called from an (invisible) event loop.
    :meth:`parse` accepts the canonical string forms
    ``"Class.method:LABEL"`` and ``"Class.method"``; :meth:`text` is the
    inverse.
    """

    def __init__(self, method_sig, loop_label=None):
        self.method_sig = method_sig
        self.loop_label = loop_label

    @classmethod
    def parse(cls, text):
        """Parse the canonical region form.

        ``"Class.method:LABEL"`` yields a loop region;
        ``"Class.method"`` yields an artificial method region.  The
        syntax is validated here; whether the method (and loop) exist in
        a given program is checked by :func:`resolve_region`.
        """
        if not isinstance(text, str):
            raise ResolutionError(
                "region spec must be a string in the canonical form "
                "'Class.method:LABEL' (loop) or 'Class.method' (method "
                "region), got %r" % (text,)
            )
        sig, sep, label = text.partition(":")
        malformed = (
            not sig
            or "." not in sig
            or (sep and not label)
            or ":" in label
            or text != text.strip()
            or any(ch.isspace() for ch in text)
        )
        if malformed:
            raise ResolutionError(
                "malformed region spec %r: the canonical form is "
                "'Class.method:LABEL' for a loop or 'Class.method' for "
                "a method region" % text
            )
        return cls(sig, label if sep else None)

    @property
    def is_loop(self):
        """True when this spec names a labelled loop (not a whole method)."""
        return self.loop_label is not None

    def text(self):
        """The canonical string form — the inverse of :meth:`parse`."""
        if self.is_loop:
            return "%s:%s" % (self.method_sig, self.loop_label)
        return self.method_sig

    def describe(self):
        if self.is_loop:
            return "loop %s in %s" % (self.loop_label, self.method_sig)
        return "region %s (artificial loop)" % self.method_sig

    def method(self, program):
        return program.method(self.method_sig)

    def loop(self, program):
        if not self.is_loop:
            raise ResolutionError(
                "region %s is a whole-method region and has no loop"
                % self.method_sig
            )
        return self.method(program).find_loop(self.loop_label)

    def body_statements(self, program):
        if self.is_loop:
            return list(walk(self.loop(program).body))
        return list(walk(self.method(program).body))

    def key(self):
        return (self.method_sig, self.loop_label)

    def __eq__(self, other):
        return isinstance(other, RegionSpec) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_loop:
            return "RegionSpec(%s, %s)" % (self.method_sig, self.loop_label)
        return "RegionSpec(%s)" % self.method_sig


def resolve_region(program, spec_text):
    """Parse a canonical region spec string and resolve it in ``program``.

    ``Class.method:LABEL`` names a loop, ``Class.method`` a whole-method
    region; a missing method or loop raises
    :class:`~repro.errors.ResolutionError` whose message shows the
    canonical form.  Used by the CLI and the :class:`Analyzer` facade.
    """
    region = RegionSpec.parse(spec_text)
    try:
        region.method(program)  # raises ResolutionError when missing
        if region.is_loop:
            region.loop(program)
    except ResolutionError as exc:
        raise ResolutionError(
            "cannot resolve region %r: %s (canonical forms: "
            "'Class.method:LABEL' for a loop, 'Class.method' for a "
            "method region)" % (region.text(), exc)
        ) from None
    return region


def region_text(region):
    """The canonical spec string of a region: ``Class.method:LOOP`` for
    a loop, ``Class.method`` for an artificial method region — the
    inverse of :func:`resolve_region` and the key triage, baselines and
    leak diffing use."""
    if isinstance(region, RegionSpec):
        return region.text()
    if getattr(region, "loop_label", None) is not None:
        return "%s:%s" % (region.method_sig, region.loop_label)
    return region.method_sig


def candidate_loops(program):
    """All labelled loops in the program — a catalog helping users pick a
    region, in the spirit of the paper's future-work note on identifying
    suspicious loops.  Loop-free programs yield an empty catalog (a scan
    of such a program reports zero candidate regions rather than
    failing)."""
    specs = []
    for method in program.all_methods():
        for loop in method.loops():
            specs.append(RegionSpec(method.sig, loop.label))
    return specs
