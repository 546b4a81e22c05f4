"""Declarative registry of resource-typed library classes.

Heap leaks are one face of managed-language retention; the other is
*resources* — file handles, database connections, sockets — acquired in
a loop iteration and never released.  The same escape/flows machinery
that tracks "created but never retrieved" heap objects tracks "acquired
but never released" resources; what the detector needs on top is a
declaration of which classes are resources and which methods acquire or
release them.

This module is that declaration: a :class:`ResourceSpec` names a
library class, its acquire methods, its release methods, and the human
resource kind; :class:`ResourceModel` bundles a registry of specs and
answers classification queries for the pipeline stage
(:mod:`repro.core.pipeline.resources`), the formal type-and-effect
layer (:mod:`repro.core.typestate`), and the concrete resource oracle
(``tests/semantics/resource_oracle.py``).

The registry is keyed by **class name**, never by bare method name:
an application class with its own ``close()`` (e.g. the Mikou model's
``EmbedConnection``) does not accidentally become a resource.  Custom
registries (for project-specific resource wrappers) are plain dicts of
specs passed to :class:`ResourceModel`.
"""

ACQUIRE = "acquire"
RELEASE = "release"


class ResourceSpec:
    """One resource class: its acquire/release protocol."""

    __slots__ = ("class_name", "acquire_methods", "release_methods", "kind")

    def __init__(self, class_name, acquire_methods, release_methods, kind):
        self.class_name = class_name
        self.acquire_methods = frozenset(acquire_methods)
        self.release_methods = frozenset(release_methods)
        #: human-readable resource kind ("file", "connection", "socket")
        self.kind = kind

    def event_for(self, method_name):
        """``"acquire"``, ``"release"``, or ``None`` for a method name."""
        if method_name in self.acquire_methods:
            return ACQUIRE
        if method_name in self.release_methods:
            return RELEASE
        return None

    def __repr__(self):
        return "ResourceSpec(%s, +%s, -%s)" % (
            self.class_name,
            "/".join(sorted(self.acquire_methods)),
            "/".join(sorted(self.release_methods)),
        )


#: The default registry, mirroring the javalib resource models
#: (``library_source("filestream", "dbconnection", "socketchannel")``).
DEFAULT_RESOURCES = {
    "FileStream": ResourceSpec("FileStream", ("open",), ("close",), "file"),
    "DbConnection": ResourceSpec(
        "DbConnection", ("connect",), ("release", "close"), "connection"
    ),
    "SocketChannel": ResourceSpec(
        "SocketChannel", ("connect",), ("disconnect", "close"), "socket"
    ),
}


class ResourceModel:
    """A registry of resource specs with classification helpers.

    ``specs`` maps class name -> :class:`ResourceSpec`; the default is
    :data:`DEFAULT_RESOURCES`.  All lookups resolve through the class
    hierarchy when a ``program`` is supplied (a subclass of a resource
    class is a resource), and fall back to exact-name matching without
    one.
    """

    def __init__(self, specs=None):
        self.specs = dict(DEFAULT_RESOURCES if specs is None else specs)

    def spec_for(self, class_name, program=None):
        """The spec governing ``class_name`` (walking superclasses when
        ``program`` is given), or ``None``."""
        spec = self.specs.get(class_name)
        if spec is not None or program is None:
            return spec
        for registered, candidate in self.specs.items():
            try:
                if program.is_subclass(class_name, registered):
                    return candidate
            except Exception:
                continue
        return None

    def event_for(self, class_name, method_name, program=None):
        """Classify one invocation: ``"acquire"``, ``"release"``, or
        ``None``.  ``class_name=None`` (the intraprocedural formal
        layer, which has no class information for a site) matches the
        method name against *every* registered spec."""
        if class_name is not None:
            spec = self.spec_for(class_name, program)
            return spec.event_for(method_name) if spec else None
        for spec in self.specs.values():
            event = spec.event_for(method_name)
            if event is not None:
                return event
        return None

    def __repr__(self):
        return "ResourceModel(%s)" % ", ".join(sorted(self.specs))


def default_resource_model():
    """A fresh :class:`ResourceModel` over :data:`DEFAULT_RESOURCES`."""
    return ResourceModel()


__all__ = [
    "ACQUIRE",
    "RELEASE",
    "DEFAULT_RESOURCES",
    "ResourceModel",
    "ResourceSpec",
    "default_resource_model",
]
