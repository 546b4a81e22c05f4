"""Growth gate: call-graph construction grows near-linearly.

The builders run on memocache tilings of 10, 20 and 40 copies
(:func:`repro.bench.scale.build_scaled`); the tiles are disjoint, so
the work a linear builder does doubles with each step.  Each size is
timed as the median of five runs with the collector off, the sizes
interleaved so a slow spell of a shared machine hits all of them alike.
The slope of log(time) against log(size) must stay at or below 1.3: a
builder that re-dispatches every pending call on every instantiation
shows about 2.8 here.
"""

import gc
import math
import statistics
import time

import pytest

from repro.bench.scale import build_scaled
from repro.callgraph.cha import build_cha
from repro.callgraph.rta import build_rta

FACTORS = (10, 20, 40)
RUNS = 5
MAX_SLOPE = 1.3


@pytest.fixture(scope="module")
def tilings():
    return [build_scaled("memocache", factor=f).program for f in FACTORS]


def _median_seconds(build, programs):
    """Per program, the median of ``RUNS`` timed builds."""
    times = [[] for _ in programs]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(RUNS):
            for program, samples in zip(programs, times):
                start = time.perf_counter()
                build(program)
                samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return [statistics.median(samples) for samples in times]


def _log_log_slope(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = statistics.fmean(lx)
    my = statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


@pytest.mark.parametrize("build", [build_rta, build_cha], ids=["rta", "cha"])
def test_callgraph_slope(build, tilings):
    seconds = _median_seconds(build, tilings)
    slope = _log_log_slope(FACTORS, seconds)
    assert slope <= MAX_SLOPE, "slope %.2f over x%s: %s ms" % (
        slope,
        "/x".join(map(str, FACTORS)),
        " / ".join("%.1f" % (s * 1000) for s in seconds),
    )
