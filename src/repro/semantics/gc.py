"""Concrete heap-growth profiling: the severity signal behind leaks.

The paper's motivation is that a severe leak makes the memory footprint
grow with each occurrence of a frequent event: objects survive a GC that
should have reclaimed them.  This module measures exactly that on the
concrete interpreter: after every iteration of a chosen loop it runs a
mark phase from the active stack frames and records how many objects are
live — and, of those, how many are instances of each inside allocation
site.

A leaking site shows a positive growth slope (its live population rises
with the iteration count); an iteration-local or properly-shared site
stays flat.  The benchmark models are validated against this profile:
the statically reported true leaks must be exactly the growing sites.
"""

from repro.core.regions import resolve_region
from repro.errors import ResolutionError
from repro.semantics.interp import Interpreter


class GrowthProfile:
    """Live-object counts per iteration of one loop, named by its
    canonical region text ``Class.method:LABEL``."""

    def __init__(self, region, samples):
        self.region = region
        #: list of (iteration, total_live, {site: live_count})
        self.samples = samples

    @property
    def iterations(self):
        return [it for it, _total, _by in self.samples]

    def total_live(self):
        return [total for _it, total, _by in self.samples]

    def live_of(self, site_label):
        return [by.get(site_label, 0) for _it, _total, by in self.samples]

    def growth_of(self, site_label):
        """Net growth of a site's live population over the profiled run."""
        series = self.live_of(site_label)
        if not series:
            return 0
        return series[-1] - series[0]

    def growing_sites(self, min_growth=2):
        """Sites whose live population rose by at least ``min_growth`` —
        the concrete 'sustained leak' criterion."""
        sites = set()
        for _it, _total, by in self.samples:
            sites.update(by)
        return sorted(
            site for site in sites if self.growth_of(site) >= min_growth
        )

    def is_monotone(self, site_label):
        series = self.live_of(site_label)
        return all(a <= b for a, b in zip(series, series[1:]))

    def __repr__(self):
        return "GrowthProfile(%s, %d samples)" % (
            self.region,
            len(self.samples),
        )


def growth_profile(program, region, schedule=None, max_steps=500_000):
    """Execute ``program`` and profile live objects per iteration of the
    loop ``region`` names.

    ``region`` is the canonical loop text ``Class.method:LABEL``, parsed
    and resolved as every ``--region`` is; a bare label, a method region
    or a loop the program lacks raises
    :class:`~repro.errors.ResolutionError`.  Labels name loops within
    one method only, so a loop of another method that shares the label
    is not sampled, and iterations are numbered per loop.
    """
    spec = resolve_region(program, region)
    if not spec.is_loop:
        raise ResolutionError(
            "growth profiles need a loop region 'Class.method:LABEL', "
            "not the method region %r" % spec.text()
        )
    target = (spec.method_sig, spec.loop_label)
    samples = []

    def hook(method_sig, label, iteration, interp):
        if (method_sig, label) != target:
            return
        live = interp.live_objects()
        by_site = {}
        for obj in live:
            by_site[obj.site] = by_site.get(obj.site, 0) + 1
        samples.append((iteration, len(live), by_site))

    interp = Interpreter(
        program, schedule=schedule, max_steps=max_steps, iteration_hook=hook
    )
    interp.run()
    return GrowthProfile(spec.text(), samples)
