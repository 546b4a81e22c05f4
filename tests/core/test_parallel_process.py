"""Tests for the fleet scan — the Coordinator's program tasks on forked
local workers, the path ``POST /analyze-batch`` takes for a never-seen
program — and its failure labelling: output identical to a serial scan,
failures naming their region, worker counts validated, no worker or
descriptor left behind."""

import pytest

from repro.core.detector import DetectorConfig
from repro.core.regions import RegionSpec, resolve_region
from repro.core.scan import scan_all_loops
from repro.errors import AnalysisError, RegionCheckError, ResolutionError
from repro.lang import parse_program
from repro.server.coordinator import Coordinator
from tests.conftest import report_pairs

_THREE_LOOPS = """
entry Main.main;
class Main {
  static method main() {
    h = new Holder @holder;
    loop A (*) {
      x = new Item @a_item;
      h.slot = x;
    }
    loop B (*) {
      y = new Item @b_item;
    }
    loop C (*) {
      z = new Item @c_item;
      h.slot = z;
    }
  }
}
class Holder { field slot; }
class Item { }
"""


def _program():
    return parse_program(_THREE_LOOPS)


class TestProcessBackend:
    def test_process_scan_matches_serial(self, process_fleet):
        config = DetectorConfig()
        serial = scan_all_loops(_program(), config)
        processed = process_fleet(_THREE_LOOPS, config=config)
        assert processed == report_pairs(serial)

    def test_process_entries_in_submission_order(self, process_fleet):
        result = process_fleet(_THREE_LOOPS)
        assert [region for region, _ in result] == [
            "Main.main:A", "Main.main:B", "Main.main:C"
        ]


class TestWorkerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(AnalysisError, match="--workers"):
            Coordinator(0)

    def test_negative_workers_rejected(self):
        with pytest.raises(AnalysisError, match="-3"):
            Coordinator(-3)

    def test_message_matches_cli_workers_validation(self):
        """The library-level rejection renders exactly like the CLI's
        ``serve --workers`` guard, so both paths exit 2 with the same
        text."""
        with pytest.raises(
            AnalysisError,
            match=r"--workers must be a positive worker count \(got 0\)",
        ):
            Coordinator(0)

    def test_invalid_workers_exit_2_via_cli(self, capsys):
        from repro.cli import main

        code = main(["serve", "--port", "0", "--workers", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers must be a positive worker count (got -1)" in err


_BAD = RegionSpec("Main.main", "NO_SUCH_LOOP")


@pytest.fixture
def failing_fleet(request, monkeypatch):
    """A one-worker forked fleet whose worker fails region B's check
    (the failpoint travels in the environment it inherits)."""
    monkeypatch.setenv("REPRO_FAILPOINTS", "raise:Main.main:B")
    coordinator = Coordinator(1)
    request.addfinalizer(coordinator.close)
    return coordinator


class TestFailureLabelling:
    def test_failure_names_region_process_backend(self, failing_fleet):
        with pytest.raises(RegionCheckError) as excinfo:
            failing_fleet.scan_program(_THREE_LOOPS)
        assert "Main.main:B" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)
        assert "injected failpoint" in str(excinfo.value)

    def test_process_failure_names_backend(self, failing_fleet):
        """A worker-side failure reports the fleet that ran it and the
        originating region."""
        with pytest.raises(RegionCheckError) as excinfo:
            failing_fleet.scan_program(_THREE_LOOPS)
        err = excinfo.value
        assert err.backend == "fleet"
        assert err.region_desc == "Main.main:B"
        assert "backend=fleet" in str(err)

    def test_unresolvable_region_is_a_typed_program_error(self, process_fleet):
        """A region the worker cannot resolve fails the program before
        any check, with the message resolving it here gives."""
        with pytest.raises(ResolutionError) as serial:
            resolve_region(_program(), _BAD.text())
        with pytest.raises(ResolutionError) as fleet:
            process_fleet(_THREE_LOOPS, [_BAD.text()])
        assert str(fleet.value) == str(serial.value)
        assert "NO_SUCH_LOOP" in str(fleet.value)

    def test_failure_names_region_serial_fallback(self):
        """The serial scan raises what a region check raises, and that
        error names the region too."""
        with pytest.raises(ResolutionError) as excinfo:
            scan_all_loops(_program(), specs=[_BAD])
        assert not isinstance(excinfo.value, RegionCheckError)
        assert "NO_SUCH_LOOP" in str(excinfo.value)


class TestRegionCheckErrorContext:
    def test_message_names_substrate(self):
        err = RegionCheckError(
            "Main.main:L1",
            "ValueError: boom",
            backend="fleet",
            substrate=("rta", "flat"),
        )
        text = str(err)
        assert "Main.main:L1" in text
        assert "backend=fleet" in text
        assert "substrate=('rta', 'flat')" in text


class TestSharedMemoryHygiene:
    def test_consecutive_scans_leave_tracker_and_shm_clean(self):
        """Two consecutive fleets leave nothing behind once closed: no
        child process, no open descriptor, no traceback on stderr — and,
        since the fleet hands programs over the wire, no shared-memory
        segment and no resource tracker either."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import os, sys\n"
            "from repro.server.coordinator import Coordinator\n"
            "def fds():\n"
            "    if not os.path.isdir('/proc/self/fd'):\n"
            "        return []\n"
            "    return sorted(os.listdir('/proc/self/fd'))\n"
            "source = sys.stdin.read()\n"
            "before = fds()\n"
            "for _ in range(2):\n"
            "    coordinator = Coordinator(2)\n"
            "    try:\n"
            "        coordinator.scan_program(source)\n"
            "    finally:\n"
            "        coordinator.close()\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "    print('child process left')\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "if fds() != before:\n"
            "    print('descriptors left: %s -> %s' % (before, fds()))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        before = segments()
        # communicate() reads stderr to EOF, which also waits for any
        # worker still holding a copy of the child's stderr.
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=_THREE_LOOPS,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert segments() - before == set()
