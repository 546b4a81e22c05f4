"""Frontend for the Java-like while language of the paper's Section 3.

``parse_program`` is the one-call entry point: source text in, sealed and
validated IR :class:`repro.ir.Program` out.
"""

from repro.ir.validate import check
from repro.lang import parser


def parse_program(source, validate=True):
    """Parse while-language source text to an IR program.

    When ``validate`` is true (the default), structural validation runs and
    malformed programs raise :class:`repro.errors.IRError`.
    """
    program = parser.parse(source)
    if validate:
        check(program)
    return program


__all__ = ["parse_program"]
