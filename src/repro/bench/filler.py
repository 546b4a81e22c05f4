"""Reachable filler code scaling the application models.

The paper's subjects range from ~2k to ~26k reachable methods; the models
in :mod:`repro.bench.apps` embed the leak-relevant structure in a handful
of classes and use this generator to add *reachable but leak-neutral*
code, preserving Table 1's relative program sizes (the ``Mtds``/``Stmts``
shape) at a scale that runs in seconds.

Filler methods are static, uniquely named, contain no heap stores to
outside objects, and are called from outside the checked region, so they
inflate reachable-method and statement counts (and analysis time) without
perturbing leak results.
"""


def filler_source(prefix, classes=4, methods_per_class=6, stmts_per_method=6):
    """Generate filler classes plus a driver method ``<prefix>Filler0.run``.

    The driver transitively calls every generated method; application
    mains call it once, outside the checked loop.
    """
    parts = []
    for c in range(classes):
        cls_name = "%sFiller%d" % (prefix, c)
        lines = ["class %s {" % cls_name]
        for m in range(methods_per_class):
            lines.append("  static method m%d(x) {" % m)
            lines.append("    v0 = x;")
            for s in range(1, stmts_per_method):
                lines.append("    v%d = v%d;" % (s, s - 1))
            # chain to the next method/class so everything is reachable
            if m + 1 < methods_per_class:
                lines.append(
                    "    r = call %s.m%d(v%d) @%s_c%d_m%d;"
                    % (cls_name, m + 1, stmts_per_method - 1, prefix, c, m)
                )
            elif c + 1 < classes:
                lines.append(
                    "    r = call %sFiller%d.m0(v%d) @%s_c%d_next;"
                    % (prefix, c + 1, stmts_per_method - 1, prefix, c)
                )
            lines.append("    return x;")
            lines.append("  }")
        if c == 0:
            lines.append("  static method warmup(x) {")
            lines.append("    r = call %s.m0(x) @%s_run;" % (cls_name, prefix))
            lines.append("    return r;")
            lines.append("  }")
        lines.append("}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts)
