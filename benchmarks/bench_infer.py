"""Region-inference benchmarks: the cost of the candidate pass.

A cold inference pass reuses the session's call graph, so it costs one
statement sweep per method plus one walk of each loop-bearing method's
structured body.  ``bench_infer_candidates`` measures that raw pass on
a warmed session for every bench app.
"""

import pytest

from repro.bench.apps import app_names
from repro.core.infer import infer_candidates
from repro.core.pipeline.session import AnalysisSession


@pytest.mark.parametrize("name", app_names())
def test_bench_infer_candidates(benchmark, apps, name):
    """Raw inference pass on a warmed session (call graph cached)."""
    app = apps[name]
    session = AnalysisSession(app.program, app.config)
    callgraph = session.callgraph  # warm the cached artifact
    catalog = benchmark(infer_candidates, app.program, callgraph)
    assert catalog.candidates, name
