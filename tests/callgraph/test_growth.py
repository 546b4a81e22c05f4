"""Growth gate: the frontend, call-graph construction, the points-to
layers, the region checks and canonicalization grow near-linearly.

Each layer runs on memocache tilings of 10, 20 and 40 copies
(:func:`repro.bench.scale.build_scaled`): ``parse_program`` (lex,
parse, lower, validate) on their sources, the call-graph builders on
their programs, the PAG build over a prebuilt RTA graph, ``solve_flat``
on a prebuilt PAG, library visibility on the same PAG,
``scan_all_loops`` on a fresh session that adopts that prebuilt
substrate (so only the region checks run), and
``ScanResult.to_json(canonical=True)`` on the finished scans.  The tiles
are disjoint, so the work a linear layer does doubles with each step.
Each size is timed as the median of five runs with the collector off,
the sizes interleaved so a slow spell of a shared machine hits all of
them alike.  The slope of log(time) against log(size) must stay at or
below 1.3: a builder that re-dispatches every pending call on every
instantiation shows about 2.8 here.
"""

import gc
import math
import statistics
import time

import pytest

from repro.bench.scale import build_scaled
from repro.callgraph.cha import build_cha
from repro.callgraph.rta import build_rta
from repro.core.config import DetectorConfig
from repro.core.libmodel import library_visible_values
from repro.core.pipeline.session import AnalysisSession, SharedArtifacts
from repro.core.scan import scan_all_loops
from repro.lang import parse_program
from repro.pta.kernel import solve_flat
from repro.pta.pag import PAG

FACTORS = (10, 20, 40)
RUNS = 5
MAX_SLOPE = 1.3


@pytest.fixture(scope="module")
def tilings():
    return [build_scaled("memocache", factor=f) for f in FACTORS]


@pytest.fixture(scope="module")
def pags(tilings):
    """Per tiling, its PAG over a prebuilt RTA graph."""
    return [PAG(app.program, build_rta(app.program)) for app in tilings]


@pytest.fixture(scope="module")
def substrates(pags):
    """Per tiling, its PAG with the whole-program solve and library
    visibility computed once."""
    return [
        (pag, solve_flat(pag), library_visible_values(pag.program, pag))
        for pag in pags
    ]


def _scan_regions(substrate):
    """``scan_all_loops`` on a fresh session whose shared artifacts adopt
    the prebuilt call graph, solve and library visibility."""
    pag, solved, visible = substrate
    config = DetectorConfig()
    shared = SharedArtifacts(pag.program, config, callgraph=pag.callgraph)
    shared.points_to.adopt_andersen(solved)
    shared._visible = visible
    session = AnalysisSession(pag.program, config, shared=shared)
    return scan_all_loops(pag.program, session=session)


def _median_seconds(build, apps):
    """Per tiling, the median of ``RUNS`` timed builds."""
    times = [[] for _ in apps]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(RUNS):
            for app, samples in zip(apps, times):
                start = time.perf_counter()
                build(app)
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


def _assert_slope(build, apps):
    seconds = _median_seconds(build, apps)
    slope = _log_log_slope(FACTORS, seconds)
    assert slope <= MAX_SLOPE, "slope %.2f over x%s: %s ms" % (
        slope,
        "/x".join(map(str, FACTORS)),
        " / ".join("%.1f" % (s * 1000) for s in seconds),
    )


@pytest.mark.parametrize("build", [build_rta, build_cha], ids=["rta", "cha"])
def test_callgraph_slope(build, tilings):
    _assert_slope(lambda app: build(app.program), tilings)


def test_parse_slope(tilings):
    _assert_slope(lambda app: parse_program(app.source), tilings)


def test_pag_slope(pags):
    _assert_slope(lambda pag: PAG(pag.program, pag.callgraph), pags)


def test_solve_slope(pags):
    _assert_slope(solve_flat, pags)


def test_visibility_slope(pags):
    _assert_slope(lambda pag: library_visible_values(pag.program, pag), pags)


def test_regions_slope(substrates):
    _assert_slope(_scan_regions, substrates)


def test_canonical_slope(substrates):
    scans = [_scan_regions(substrate) for substrate in substrates]
    _assert_slope(lambda scan: scan.to_json(canonical=True), scans)
