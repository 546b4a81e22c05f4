"""Unit tests for the text-keyed session pool."""

import os

import pytest

from repro.core.config import DetectorConfig
from repro.core.regions import region_text
from repro.errors import ParseError, ResolutionError
from repro.lang import parse_program
from repro.server.pool import SessionPool, text_key

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
    """Make building an analysis session, or parsing, in the pool an
    error."""

    def refuse(*args, **kwargs):
        raise AssertionError("the pool built an AnalysisSession or parsed")

    monkeypatch.setattr("repro.server.pool.AnalysisSession", refuse)
    monkeypatch.setattr("repro.server.pool.parse_program", refuse)


def _entry(pool, source, javalib=False):
    return pool._entries[text_key(source, javalib)]


class TestWarmServing:
    def test_cold_then_warm(self, monkeypatch):
        pool = SessionPool()
        cold_result, cold_info = pool.analyze(_LEAK)
        assert cold_info["warm"] is False
        assert cold_result.leaking_sites() == ["item"]

        # A full repeat is answered from the stored scan: no parse and
        # no session, so no call graph and no points-to.
        _no_sessions(monkeypatch)
        warm_result, warm_info = pool.analyze(_LEAK)
        assert warm_info["warm"] is True
        assert warm_info["program_digest"] == cold_info["program_digest"]
        assert warm_result.leaking_sites() == ["item"]
        assert warm_result is not cold_result

    def test_warm_result_identical_to_cold(self):
        pool = SessionPool()
        cold, _ = pool.analyze(_LEAK)
        warm, _ = pool.analyze(_LEAK)
        assert warm.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_entry_holds_the_scan_and_the_substrate(self):
        pool = SessionPool()
        result, info = pool.analyze(_LEAK)
        entry = _entry(pool, _LEAK)
        assert entry.digest == info["program_digest"]
        assert entry.result is result
        assert isinstance(entry.substrate, bytes)

    def test_region_limited_request_does_not_store_snapshot(self):
        """A region-limited request stores the substrate, not the scan."""
        pool = SessionPool()
        _, info = pool.analyze(_LEAK, regions=["Main.main:L"])
        assert info["warm"] is False
        entry = _entry(pool, _LEAK)
        assert entry.result is None and entry.substrate is not None
        # The next full request checks on a session hydrated from the
        # substrate: warm, and now it stores the scan ...
        _, info2 = pool.analyze(_LEAK)
        assert info2["warm"] is True
        assert entry.result is not None
        # ... which answers the third.
        _, info3 = pool.analyze(_LEAK)
        assert info3["warm"] is True

    def test_region_limited_request_served_from_stored_snapshot(
        self, monkeypatch
    ):
        pool = SessionPool()
        full, _ = pool.analyze(_TWO_LOOPS)
        _no_sessions(monkeypatch)
        result, info = pool.analyze(_TWO_LOOPS, regions=["Main.main:L"])
        assert info["warm"] is True
        assert [region_text(spec) for spec, _ in result.entries] == [
            "Main.main:L"
        ]
        assert result.leaking_sites() == ["item"]
        stored = {region_text(spec): report for spec, report in full.entries}
        assert result.entries[0][1] is stored["Main.main:L"]

    def test_uncovered_region_checks_on_the_substrate(self):
        pool = SessionPool()
        pool.analyze(_TWO_LOOPS, regions=["Main.main:K"])
        result, info = pool.analyze(_TWO_LOOPS, regions=["Main.main:L"])
        assert info["warm"] is True
        assert result.leaking_sites() == ["item"]
        assert _entry(pool, _TWO_LOOPS).result is None

    def test_degraded_full_scan_is_not_stored(self):
        config = DetectorConfig(demand_driven=True)
        pool = SessionPool(config=config)
        _, info = pool.analyze(_LEAK, deadline_ms=0)
        assert info["warm"] is False
        assert info["degraded"] is True
        assert _entry(pool, _LEAK).result is None
        result, info = pool.analyze(_LEAK)
        assert info["warm"] is True
        assert info["degraded"] is False
        assert _entry(pool, _LEAK).result is result


class TestTextKey:
    def test_key_covers_the_javalib_flag(self):
        assert text_key(_LEAK, False) != text_key(_LEAK, True)
        assert text_key(_LEAK, False) == text_key(_LEAK, False)
        assert text_key(_LEAK, False) != text_key(_LEAK + " ", False)

    def test_lone_surrogates_have_a_key(self):
        assert text_key("\ud800", False) != text_key("\ud801", False)

    def test_same_program_different_text_takes_two_entries(self):
        """The key is the text, not the program: a whitespace edit is a
        new entry (and a cold scan) with the same program digest."""
        pool = SessionPool()
        _, first = pool.analyze(_LEAK)
        _, second = pool.analyze(_LEAK + "\n")
        assert second["warm"] is False
        assert first["program_digest"] == second["program_digest"]
        assert pool.stats()["pool_sessions"] == 2

    def test_failed_request_leaves_no_entry(self):
        """Text the pool knows nothing about that fails to parse or
        resolve takes no slot, so garbage cannot evict warm programs."""
        pool = SessionPool(max_sessions=1)
        pool.analyze(_LEAK)
        with pytest.raises(ParseError):
            pool.analyze("class {")
        with pytest.raises(ResolutionError):
            pool.analyze(_OTHER, regions=["Main.main:NOPE"])
        assert pool.stats()["pool_sessions"] == 1
        assert pool.evicted == 0
        _, info = pool.analyze(_LEAK)
        assert info["warm"] is True


class TestConcurrentRequests:
    def test_one_cold_scan_per_program_and_identical_answers(self):
        """Threads racing full and region-limited requests for three
        programs through one pool: each program is scanned cold exactly
        once, every other request is warm, and every answer equals the
        serial one, so no request saw a half-filled entry."""
        import sys
        import threading

        from repro.core.scan import scan_all_loops

        from repro.core.regions import resolve_region

        sources = [_LEAK, _OTHER, _TWO_LOOPS]

        def regions(limited):
            return ["Main.main:L"] if limited else None

        expected = {}
        for source in sources:
            for limited in (False, True):
                program = parse_program(source)
                specs = None
                if limited:
                    specs = [resolve_region(program, "Main.main:L")]
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
                    result, _ = pool.analyze(source, regions=regions(limited))
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
        pool.analyze(_LEAK)
        pool.analyze(_OTHER)
        assert pool.evicted == 1
        assert pool.stats()["pool_sessions"] == 1
        # The first program was evicted: cold again.
        _, info = pool.analyze(_LEAK)
        assert info["warm"] is False
        # The second took its place and got evicted in turn.
        _, other_info = pool.analyze(_OTHER)
        assert other_info["warm"] is False
        assert pool.evicted == 3

    def test_recently_used_entry_survives(self):
        pool = SessionPool(max_sessions=2)
        pool.analyze(_LEAK)
        pool.analyze(_OTHER)
        pool.analyze(_LEAK)  # refresh LRU position
        pool.analyze(_LEAK.replace("@item", "@third"))  # evicts _OTHER
        _, info = pool.analyze(_LEAK)
        assert info["warm"] is True

    def test_max_sessions_validated(self):
        with pytest.raises(ValueError):
            SessionPool(max_sessions=0)


class TestConfig:
    def test_pool_config_respected(self):
        pool = SessionPool(config=DetectorConfig(pivot=False))
        source = (
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
        result, _ = pool.analyze(source)
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
    """The fleet's hand-off to the pool: a text a worker ran is
    registered with its program digest, and takes one slot."""

    def test_handoff_reuses_the_analyze_substrate(self, monkeypatch):
        """Registering a text ``/analyze`` already warmed keeps its
        substrate and stored scan, and both endpoints share one
        entry."""
        pool = SessionPool()
        result, info = pool.analyze(_LEAK)
        entry = _entry(pool, _LEAK)
        substrate = entry.substrate
        _no_sessions(monkeypatch)
        pool.register(text_key(_LEAK, False), info["program_digest"])
        assert _entry(pool, _LEAK) is entry
        assert entry.substrate is substrate and entry.result is result
        assert pool.stats()["pool_sessions"] == 1
        _, warm = pool.analyze(_LEAK)
        assert warm["warm"] is True

    def test_fleet_only_entry_keeps_the_digest_alone(self):
        """A text only the fleet has run holds its digest, no scan and no
        substrate; the next request for it is scanned here and stored,
        and the one after is answered from the stored scan."""
        pool = SessionPool()
        digest = pool.analyze(_OTHER)[1]["program_digest"]
        pool.register(text_key(_LEAK, False), "d" * 64)
        entry = _entry(pool, _LEAK)
        assert entry.digest == "d" * 64
        assert entry.result is None and entry.substrate is None
        assert pool.seen(text_key(_LEAK, False))
        result, info = pool.analyze(_LEAK)
        assert info["warm"] is False
        assert result.leaking_sites() == ["item"]
        # The scan here recomputed the digest it reports.
        assert info["program_digest"] == entry.digest != "d" * 64
        assert info["program_digest"] != digest
        _, info = pool.analyze(_LEAK)
        assert info["warm"] is True

    def test_concurrent_handoff_and_eviction_leak_no_segment(self):
        """Threads racing registrations and requests for three texts
        through a one-slot pool evict each other's entries mid-fill;
        every call completes with the serial answer, the bound holds,
        and no shared-memory segment is ever created."""
        import sys
        import threading

        from repro.core.scan import scan_all_loops

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        sources = [_LEAK, _OTHER, _LEAK.replace("@cache", "@store")]
        expected = {
            source: scan_all_loops(parse_program(source)).to_json(
                canonical=True
            )
            for source in sources
        }
        before = segments()
        pool = SessionPool(max_sessions=1)
        failures = []

        def churn(offset):
            try:
                for n in range(12):
                    source = sources[(offset + n) % 3]
                    if n % 2:
                        pool.register(text_key(source, False), "d" * 64)
                        continue
                    result, _ = pool.analyze(source)
                    assert result.to_json(canonical=True) == expected[source]
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
