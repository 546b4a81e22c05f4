"""Unit tests for the digest-keyed session pool."""

import os

import pytest

from repro.core.config import DetectorConfig
from repro.core.regions import region_text, resolve_region
from repro.lang import parse_program
from repro.pta.queries import Deadline
from repro.server.pool import SessionPool

_LEAK = """
entry Main.main;
class Main {
  static method main() {
    c = new Cache @cache;
    loop L (*) {
      x = new Item @item;
      c.slot = x;
    }
  }
}
class Cache { field slot; }
class Item { }
"""

_OTHER = _LEAK.replace("@item", "@thing")

_TWO_LOOPS = _LEAK.replace(
    "    loop L (*) {",
    "    loop K (*) { y = new Item @kept; }\n    loop L (*) {",
)


def _no_sessions(monkeypatch):
    """Make building an analysis session in the pool an error."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pool built an AnalysisSession")

    monkeypatch.setattr("repro.server.pool.AnalysisSession", refuse)


class TestWarmServing:
    def test_cold_then_warm(self, monkeypatch):
        pool = SessionPool()
        program = parse_program(_LEAK)
        cold_result, cold_info = pool.analyze(program)
        assert cold_info["warm"] is False
        assert cold_result.leaking_sites() == ["item"]

        # A full repeat is answered from the stored scan: no session,
        # so no call graph and no points-to.
        _no_sessions(monkeypatch)
        warm_result, warm_info = pool.analyze(parse_program(_LEAK))
        assert warm_info["warm"] is True
        assert warm_info["program_digest"] == cold_info["program_digest"]
        assert warm_result.leaking_sites() == ["item"]
        assert warm_result is not cold_result

    def test_warm_result_identical_to_cold(self):
        pool = SessionPool()
        cold, _ = pool.analyze(parse_program(_LEAK))
        warm, _ = pool.analyze(parse_program(_LEAK))
        assert warm.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_entry_holds_the_scan_and_the_substrate(self):
        pool = SessionPool()
        program = parse_program(_LEAK)
        result, info = pool.analyze(program)
        entry = pool.handoff(program)
        assert entry.digest == info["program_digest"]
        assert entry.result is result
        assert isinstance(entry.substrate, bytes)

    def test_region_limited_request_does_not_store_snapshot(self):
        """A region-limited request stores the substrate, not the scan."""
        pool = SessionPool()
        program = parse_program(_LEAK)
        specs = [resolve_region(program, "Main.main:L")]
        _, info = pool.analyze(program, specs=specs)
        assert info["warm"] is False
        entry = pool.handoff(program)
        assert entry.result is None and entry.substrate is not None
        # The next full request checks on a session hydrated from the
        # substrate: warm, and now it stores the scan ...
        _, info2 = pool.analyze(parse_program(_LEAK))
        assert info2["warm"] is True
        assert entry.result is not None
        # ... which answers the third.
        _, info3 = pool.analyze(parse_program(_LEAK))
        assert info3["warm"] is True

    def test_region_limited_request_served_from_stored_snapshot(
        self, monkeypatch
    ):
        pool = SessionPool()
        program = parse_program(_TWO_LOOPS)
        full, _ = pool.analyze(program)
        _no_sessions(monkeypatch)
        specs = [resolve_region(program, "Main.main:L")]
        result, info = pool.analyze(parse_program(_TWO_LOOPS), specs=specs)
        assert info["warm"] is True
        assert [spec for spec, _ in result.entries] == specs
        assert result.leaking_sites() == ["item"]
        stored = {region_text(spec): report for spec, report in full.entries}
        assert result.entries[0][1] is stored["Main.main:L"]

    def test_uncovered_region_checks_on_the_substrate(self):
        pool = SessionPool()
        program = parse_program(_TWO_LOOPS)
        pool.analyze(program, specs=[resolve_region(program, "Main.main:K")])
        specs = [resolve_region(program, "Main.main:L")]
        result, info = pool.analyze(parse_program(_TWO_LOOPS), specs=specs)
        assert info["warm"] is True
        assert result.leaking_sites() == ["item"]
        assert pool.handoff(program).result is None

    def test_degraded_full_scan_is_not_stored(self):
        config = DetectorConfig(demand_driven=True)
        pool = SessionPool(config=config)
        program = parse_program(_LEAK)
        _, info = pool.analyze(program, deadline=Deadline.after_ms(0))
        assert info["warm"] is False
        assert pool.handoff(program).result is None
        result, info = pool.analyze(parse_program(_LEAK))
        assert info["warm"] is True
        assert pool.handoff(program).result is result


class TestConcurrentRequests:
    def test_one_cold_scan_per_program_and_identical_answers(self):
        """Threads racing full and region-limited requests for three
        programs through one pool: each program is scanned cold exactly
        once, every other request is warm, and every answer equals the
        serial one, so no request saw a half-filled entry."""
        import sys
        import threading

        from repro.core.scan import scan_all_loops

        sources = [_LEAK, _OTHER, _TWO_LOOPS]

        def request(source, limited):
            program = parse_program(source)
            if limited:
                return program, [resolve_region(program, "Main.main:L")]
            return program, None

        expected = {}
        for source in sources:
            for limited in (False, True):
                program, specs = request(source, limited)
                expected[source, limited] = scan_all_loops(
                    program, specs=specs
                ).to_json(canonical=True)
        pool = SessionPool(max_sessions=len(sources))
        failures = []
        calls = 6 * 12

        def churn(offset):
            try:
                for n in range(12):
                    source = sources[(offset + n) % len(sources)]
                    limited = n % 4 == 3
                    program, specs = request(source, limited)
                    result, _ = pool.analyze(program, specs=specs)
                    got = result.to_json(canonical=True)
                    assert got == expected[source, limited]
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=churn, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = pool.stats()
        assert stats["pool_misses"] == len(sources)
        assert stats["pool_hits"] == calls - len(sources)


class TestEviction:
    def test_lru_eviction_bounds_the_pool(self):
        pool = SessionPool(max_sessions=1)
        pool.analyze(parse_program(_LEAK))
        pool.analyze(parse_program(_OTHER))
        assert pool.evicted == 1
        assert pool.stats()["pool_sessions"] == 1
        # The first program was evicted: cold again.
        _, info = pool.analyze(parse_program(_LEAK))
        assert info["warm"] is False
        # The second took its place and got evicted in turn.
        _, other_info = pool.analyze(parse_program(_OTHER))
        assert other_info["warm"] is False
        assert pool.evicted == 3

    def test_recently_used_entry_survives(self):
        pool = SessionPool(max_sessions=2)
        pool.analyze(parse_program(_LEAK))
        pool.analyze(parse_program(_OTHER))
        pool.analyze(parse_program(_LEAK))  # refresh LRU position
        third = parse_program(_LEAK.replace("@item", "@third"))
        pool.analyze(third)  # evicts _OTHER, not _LEAK
        _, info = pool.analyze(parse_program(_LEAK))
        assert info["warm"] is True

    def test_max_sessions_validated(self):
        with pytest.raises(ValueError):
            SessionPool(max_sessions=0)


class TestConfig:
    def test_pool_config_respected(self):
        pool = SessionPool(config=DetectorConfig(pivot=False))
        program = parse_program(
            """
            entry Main.main;
            class Main { static method main() {
                h = new Holder @holder;
                loop L (*) {
                  a = new Node @a; b = new Node @b;
                  a.next = b; b.prev = a; h.slot = a;
                } } }
            class Holder { field slot; }
            class Node { field next; field prev; }
            """
        )
        result, _ = pool.analyze(program)
        assert result.leaking_sites() == ["a", "b"]

    def test_stats_shape(self):
        pool = SessionPool()
        stats = pool.stats()
        assert stats == {
            "pool_sessions": 0,
            "pool_warm": 0,
            "pool_hits": 0,
            "pool_misses": 0,
            "pool_evicted": 0,
        }


class TestFleetHandoff:
    def test_handoff_reuses_the_analyze_substrate(self, monkeypatch):
        """A program ``/analyze`` warmed hands its stored substrate to
        the fleet as is, and both endpoints share one entry."""
        pool = SessionPool()
        program = parse_program(_LEAK)
        pool.analyze(program)
        _no_sessions(monkeypatch)
        entry = pool.handoff(program)
        substrate = entry.substrate
        assert substrate is not None and entry.program_blob is not None
        assert pool.handoff(program) is entry
        assert entry.substrate is substrate
        assert pool.stats()["pool_sessions"] == 1

    def test_fleet_only_entry_keeps_the_substrate_alone(self, monkeypatch):
        """A program only the fleet has seen retains its substrate
        bytes and no scan; a later ``/analyze`` of it is warm."""
        pool = SessionPool()
        program = parse_program(_LEAK)
        entry = pool.handoff(program)
        assert entry.result is None
        assert entry.substrate is not None and entry.program_blob is not None
        result, info = pool.analyze(parse_program(_LEAK))
        assert info["warm"] is True
        assert result.leaking_sites() == ["item"]

    def test_concurrent_handoff_and_eviction_leak_no_segment(self):
        """Threads racing hand-offs of three programs through a
        one-slot pool evict each other's entries mid-fill; every
        hand-off still completes, the bound holds, and no shared-memory
        segment is ever created."""
        import sys
        import threading

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        sources = [_LEAK, _OTHER, _LEAK.replace("@cache", "@store")]
        before = segments()
        pool = SessionPool(max_sessions=1)
        failures = []

        def churn(offset):
            try:
                for n in range(12):
                    program = parse_program(sources[(offset + n) % 3])
                    entry = pool.handoff(program)
                    assert entry.program_blob is not None
                    assert entry.substrate is not None
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=churn, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert pool.stats()["pool_sessions"] == 1
        pool.close()
        assert segments() - before == set()
