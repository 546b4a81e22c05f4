"""Canonical byte-identity of the flat kernel against the dict-solver oracle.

The flat kernel (:mod:`repro.pta.kernel`) is the one whole-program
points-to solver; the dict-of-sets solver in
:mod:`tests.pta.andersen_oracle` is its oracle.  Routing the facade's
solve through the oracle must be observationally invisible: the
canonical scan JSON (timings zeroed, volatile counters and kernel
observability dropped — see :mod:`repro.core.canonical`) is
byte-identical.  The flat kernel's JSON must stay so along every axis a
scan can take:

* execution path — serial, and fanned out over the daemon's process
  fleet;
* substrate temperature — cold, and warm on a session hydrated from the
  bytes the daemon's session pool keeps, with the flat snapshot
  round-tripping through them;
* every bench-suite app, and the points-to-refined call graph (the CI
  smoke runs this module).
"""

import pytest

from repro.bench.apps import build_app, corpus_names
from repro.callgraph import otf
from repro.core.detector import DetectorConfig
from repro.core.pipeline.session import AnalysisSession
from repro.core.scan import scan_all_loops
from repro.lang import parse_program
from tests.conftest import pooled_session, report_pairs
from repro.pta import queries
from repro.pta.kernel import solve_flat

from tests.pta.andersen_oracle import solve as oracle_solve

#: The whole-program solvers a scan can be routed through.
SOLVERS = {"flat": solve_flat, "oracle": oracle_solve}

_SOURCE = """
entry Main.main;
class Main {
  static method main() {
    reg = new Registry @reg;
    loop FILL (*) {
      item = new Item @fill_item;
      reg.slot = item;
      cur = reg.slot;
      cur.next = item;
    }
    loop DRAIN (*) {
      got = reg.slot;
      tmp = got.next;
      reg.slot = tmp;
    }
    loop IDLE (*) {
      scratch = new Item @idle_item;
    }
  }
}
class Registry { field slot; }
class Item { field next; }
"""


def _scan_json(kernel, monkeypatch, **kwargs):
    """Canonical scan JSON with the facade solving through ``kernel``."""
    monkeypatch.setattr(queries, "solve_flat", SOLVERS[kernel])
    result = scan_all_loops(parse_program(_SOURCE), DetectorConfig(), **kwargs)
    return result, result.to_json(canonical=True)


@pytest.fixture()
def reference(monkeypatch):
    """Serial canonical JSON solved by the oracle — the baseline."""
    with monkeypatch.context() as patch:
        _, text = _scan_json("oracle", patch)
    return text


class TestBackendIdentity:
    @pytest.mark.parametrize("kernel", ["flat"])
    def test_serial(self, kernel, monkeypatch, reference):
        _, text = _scan_json(kernel, monkeypatch)
        assert text == reference

    @pytest.mark.parametrize("kernel", ["flat"])
    def test_process_backend(self, kernel, monkeypatch, process_fleet):
        # The forked workers solve with the flat kernel; every region
        # equals the oracle's serial scan.
        oracle, _ = _scan_json("oracle", monkeypatch)
        assert process_fleet(_SOURCE) == report_pairs(oracle)


class TestCacheIdentity:
    """The session pool's path: a cold scan, its substrate as bytes, and
    a scan of a fresh parse on a session hydrated from them."""

    @pytest.mark.parametrize("kernel", ["flat"])
    def test_cold_and_warm_cache(self, kernel, monkeypatch, reference):
        cold = AnalysisSession(parse_program(_SOURCE), DetectorConfig())
        _, cold_text = _scan_json(kernel, monkeypatch, session=cold)
        warm = pooled_session(cold, parse_program(_SOURCE))
        # The hydrated session adopted the flat solution: no new solve.
        assert warm.points_to._andersen is not None
        _, warm_text = _scan_json(kernel, monkeypatch, session=warm)
        assert cold_text == reference
        assert warm_text == reference


class TestBenchAppIdentity:
    """Flat-vs-oracle byte identity on the full bench corpus (the
    paper's eight subjects plus the retention-idiom apps).

    This is the CI smoke target: ``pytest tests/core/test_kernel_identity.py
    -k bench``.  Every app in :func:`repro.bench.apps.corpus_names` must
    scan to identical canonical JSON under both solvers.
    """

    @pytest.mark.parametrize("name", corpus_names())
    def test_app_scans_identically_under_both_kernels(self, name, monkeypatch):
        model = build_app(name)
        config = model.config or DetectorConfig()

        flat = scan_all_loops(model.program, config).to_json(canonical=True)

        monkeypatch.setattr(queries, "solve_flat", oracle_solve)
        oracle = scan_all_loops(model.program, config).to_json(canonical=True)

        assert flat == oracle


class TestOtfIdentity:
    """The on-the-fly call graph re-solves points-to every round; its
    edge set must not depend on which solver answers."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_otf_edges_match_oracle(self, name, monkeypatch):
        program = build_app(name).program

        def edges():
            graph = otf.build_otf(program)
            return {
                (e.caller.sig, e.invoke.uid, e.callee.sig)
                for e in graph.edges
            }

        flat = edges()
        monkeypatch.setattr(otf, "solve_flat", oracle_solve)
        assert edges() == flat
