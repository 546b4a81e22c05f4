"""Unit tests for the digest-keyed session pool."""

import os

import pytest

from repro.core.config import DetectorConfig
from repro.core.regions import resolve_region
from repro.lang import parse_program
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


class TestWarmServing:
    def test_cold_then_warm(self):
        pool = SessionPool()
        program = parse_program(_LEAK)
        cold_result, cold_info = pool.analyze(program)
        assert cold_info["warm"] is False
        assert cold_result.leaking_sites() == ["item"]

        warm_result, warm_info = pool.analyze(parse_program(_LEAK))
        assert warm_info["warm"] is True
        assert warm_info["program_digest"] == cold_info["program_digest"]
        assert warm_result.leaking_sites() == ["item"]
        # The fast path: everything served, nothing re-checked, no
        # analysis substrate built.
        counters = warm_info["counters"]
        assert counters["incremental_fast_path"] == 1
        assert counters["incremental_served"] == 1
        assert counters["incremental_rechecked"] == 0
        assert counters["incremental_full_fallback"] == 0

    def test_warm_result_identical_to_cold(self):
        pool = SessionPool()
        cold, _ = pool.analyze(parse_program(_LEAK))
        warm, _ = pool.analyze(parse_program(_LEAK))
        assert warm.to_json(canonical=True) == cold.to_json(canonical=True)

    def test_region_limited_request_does_not_store_snapshot(self):
        pool = SessionPool()
        program = parse_program(_LEAK)
        specs = [resolve_region(program, "Main.main:L")]
        _, info = pool.analyze(program, specs=specs)
        assert info["warm"] is False
        assert pool.snapshot_for(info["program_digest"]) is None
        # The next full request is therefore a (correct) cold scan.
        _, info2 = pool.analyze(parse_program(_LEAK))
        assert info2["warm"] is False
        # ... and only now is the pool warm.
        _, info3 = pool.analyze(parse_program(_LEAK))
        assert info3["warm"] is True

    def test_region_limited_request_served_from_stored_snapshot(self):
        pool = SessionPool()
        program = parse_program(_LEAK)
        pool.analyze(program)
        specs = [resolve_region(program, "Main.main:L")]
        result, info = pool.analyze(parse_program(_LEAK), specs=specs)
        assert info["warm"] is True
        assert info["counters"]["incremental_served"] == 1
        assert result.leaking_sites() == ["item"]


class TestEviction:
    def test_lru_eviction_bounds_the_pool(self):
        pool = SessionPool(max_sessions=1)
        pool.analyze(parse_program(_LEAK))
        _, other_info = pool.analyze(parse_program(_OTHER))
        assert pool.evicted == 1
        assert pool.stats()["pool_sessions"] == 1
        # The first program was evicted: cold again.
        _, info = pool.analyze(parse_program(_LEAK))
        assert info["warm"] is False
        # The second took its place and got evicted in turn.
        assert pool.snapshot_for(other_info["program_digest"]) is None

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
    def test_handoff_reuses_the_analyze_substrate(self):
        """A program ``/analyze`` warmed is packed from its stored
        substrate, and both endpoints share one entry."""
        pool = SessionPool()
        program = parse_program(_LEAK)
        pool.analyze(program)
        entry = pool.handoff(program)
        assert entry.shared_snapshot is not None
        assert entry.packed is not None and entry.program_blob is not None
        assert pool.handoff(program) is entry
        assert pool.stats()["pool_sessions"] == 1

    @pytest.mark.parametrize("shm", [False, True], ids=["bytes", "shm"])
    def test_fleet_only_entry_keeps_the_packed_form_alone(self, shm):
        """A program only the fleet has seen retains one packed copy of
        its substrate — in a segment or as bytes — and no dict."""
        pool = SessionPool()
        entry = pool.handoff(parse_program(_LEAK), shm=shm)
        try:
            assert entry.shared_snapshot is None and entry.snapshot is None
            if shm and os.path.isdir("/dev/shm"):
                assert entry.shm is not None and entry.packed is None
            else:
                assert entry.shm is None and entry.packed is not None
        finally:
            pool.close()
        assert entry.shm is None

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs POSIX shared memory"
    )
    def test_concurrent_handoff_and_eviction_leak_no_segment(self):
        """Threads racing hand-offs of three programs through a
        one-slot pool evict each other's entries mid-fill; every
        segment is still unlinked exactly once the pool closes."""
        import sys
        import threading

        def segments():
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        sources = [_LEAK, _OTHER, _LEAK.replace("@cache", "@store")]
        before = segments()
        pool = SessionPool(max_sessions=1)
        failures = []

        def churn(offset):
            try:
                for n in range(12):
                    program = parse_program(sources[(offset + n) % 3])
                    entry = pool.handoff(program, shm=True)
                    assert entry.program_blob is not None
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
