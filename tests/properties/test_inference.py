"""Properties of region inference and triage on random programs.

Two guarantees back ``scan --auto-regions``:

* **coverage** — the inferred candidate catalog is a superset of every
  labelled loop a user could hand-name (so switching from ``--region``
  to ``--auto-regions`` never silently drops a region), and the default
  selection checks all of them;
* **determinism** — the severity triage is byte-identical across scan
  backends (serial, thread, process) and across interpreter hash seeds
  (exercised via subprocess runs with different ``PYTHONHASHSEED``).
"""

import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline.session import AnalysisSession
from repro.core.infer import infer_candidates
from repro.core.regions import candidate_loops, region_text
from repro.core.scan import scan_all_loops
from repro.lang import parse_program

from tests.conftest import FIGURE1_SOURCE
from tests.properties.strategies import inference_programs

_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(source=inference_programs())
@_SETTINGS
def test_candidates_superset_of_labelled_loops(source):
    program = parse_program(source)
    session = AnalysisSession(program)
    catalog = infer_candidates(program, session.callgraph)
    texts = set(catalog.spec_texts())
    selected = {region_text(s) for s in catalog.selected_specs()}
    for spec in candidate_loops(program):
        assert region_text(spec) in texts
        assert region_text(spec) in selected


@given(source=inference_programs())
@_SETTINGS
def test_catalog_scores_deterministic(source):
    program = parse_program(source)
    session = AnalysisSession(program)
    first = infer_candidates(program, session.callgraph)
    second = infer_candidates(parse_program(source), AnalysisSession(
        parse_program(source)
    ).callgraph)
    assert first.spec_texts() == second.spec_texts()
    assert [c.score for c in first.candidates] == [
        c.score for c in second.candidates
    ]


@given(source=inference_programs(max_body_stmts=4))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_triage_identical_across_backends(source):
    program = parse_program(source)
    serial = scan_all_loops(program, auto_regions=True)
    fanned = scan_all_loops(
        parse_program(source), auto_regions=True, parallel=True, max_workers=2
    )
    assert serial.to_json(canonical=True) == fanned.to_json(canonical=True)
    assert [t.as_dict() for t in serial.triage()] == [
        t.as_dict() for t in fanned.triage()
    ]


def _triage_in_subprocess(source, hash_seed):
    """Canonical auto-regions scan JSON computed under a given seed."""
    script = (
        "import sys\n"
        "from repro.core.scan import scan_all_loops\n"
        "from repro.lang import parse_program\n"
        "source = sys.stdin.read()\n"
        "result = scan_all_loops(parse_program(source), auto_regions=True)\n"
        "sys.stdout.write(result.to_json(canonical=True))\n"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=source,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_triage_identical_across_hash_seeds():
    """Same program, different PYTHONHASHSEED: identical canonical
    triage output (subprocess per seed — set-iteration order must not
    leak into the ranking)."""
    outputs = [_triage_in_subprocess(FIGURE1_SOURCE, seed) for seed in (0, 1, 42)]
    assert outputs[0] == outputs[1] == outputs[2]
    assert '"triage"' in outputs[0]


def test_triage_identical_across_process_backend():
    """A fanned-out scan hydrates worker processes from a snapshot; its
    triage must still match the serial scan byte for byte."""
    program = parse_program(FIGURE1_SOURCE)
    serial = scan_all_loops(program, auto_regions=True)
    process = scan_all_loops(
        parse_program(FIGURE1_SOURCE),
        auto_regions=True,
        parallel=True,
        max_workers=2,
    )
    assert serial.to_json(canonical=True) == process.to_json(canonical=True)
