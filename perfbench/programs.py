"""Seeded benchmark inputs and their reference outputs.

Every input is a program from the repository's own corpus generators
(``repro.bench``) with one empty class appended.  The class name carries
the seed and a serial number, so each request is a program the system
has never seen (a new digest, a cold path) while the analysis work and
the canonical output stay exactly those of the base program.  The seed
also fixes the order in which each round visits the programs.
"""

import random

from repro.bench.apps import build_app, corpus_names, retention_names
from repro.bench.scale import build_scaled
from repro.bench.stress import stress_source
from repro.core import candidate_loops, resolve_region, scan_all_loops
from repro.lang import parse_program


class BaseProgram:
    """One base program: its source and the regions a request names.

    ``regions`` is a list of region spec strings, or ``None`` to scan
    every labelled loop (what ``POST /analyze`` does without a region).
    """

    def __init__(self, name, source, regions=None):
        self.name = name
        self.source = source
        self.regions = regions
        self.reference = None

    def specs(self, program):
        if self.regions is None:
            return None
        return [resolve_region(program, text) for text in self.regions]


def by_name(base):
    return base.name


def tagged(source, seed, serial):
    """``source`` plus an unreachable empty class unique to (seed, serial)."""
    return "%s\nclass BenchTag%d_%d { }\n" % (source, seed, serial)


def seeded_rounds(bases, seed):
    """An endless sequence of rounds; each round visits every base once,
    in an order drawn from ``seed``."""
    rng = random.Random(seed)
    while True:
        order = list(bases)
        rng.shuffle(order)
        yield order


def corpus_programs():
    """All thirteen corpus apps, each checked on the region its model names."""
    bases = []
    for name in corpus_names():
        app = build_app(name)
        bases.append(BaseProgram(name, app.source, [app.region.text()]))
    return bases


def loop_programs():
    """The corpus apps that have labelled loops, scanned whole."""
    bases = []
    for name in corpus_names():
        app = build_app(name)
        if candidate_loops(app.program):
            bases.append(BaseProgram(name, app.source))
    return bases


def large_programs():
    """Tiled programs 10x and 24x a corpus app, plus the points-to-dense
    stress program: the regime where call graph, PAG and summaries grow."""
    bases = [
        BaseProgram("%s-x10" % name, build_scaled(name, factor=10).source)
        for name in retention_names()
    ]
    bases.append(BaseProgram("stress", stress_source(), ["Main.main"]))
    big = build_scaled("memocache", factor=24)
    bases.append(
        BaseProgram("memocache-x24", big.source, [big.regions[0].text()])
    )
    return bases


def fleet_programs():
    """Four tiled retention apps, each sent as a batch of its own.

    Four, because a fleet worker keeps four adopted programs warm.  A
    fifth evicts one, and closing the shared-memory segment of an evicted
    program still in use raises ``BufferError`` in the worker, which
    fails that shard.
    """
    return [
        BaseProgram("%s-x6" % name, build_scaled(name, factor=6).source)
        for name in retention_names()[:4]
    ]


def scan(base, source):
    """A serial in-process scan of ``source`` as ``base`` asks for it."""
    program = parse_program(source)
    return scan_all_loops(program, specs=base.specs(program))


def compute_references(bases):
    """Store on each base its canonical scan JSON and its per-region
    leaking sites, from a serial scan of the untagged source."""
    for base in bases:
        result = scan(base, base.source)
        base.reference = {
            "canonical": result.to_json(canonical=True),
            "regions": {
                spec.text(): sorted(report.leaking_site_labels)
                for spec, report in result.entries
            },
        }
    return bases
