"""Tests for the fanned-out scan (``parallel=True``) and its failure
labelling.  The scan fans out over the fleet coordinator's process
transport; with one worker or one region it is the serial scan."""

import pytest

from repro.core.detector import DetectorConfig
from repro.core.regions import RegionSpec, candidate_loops, region_text
from repro.core.scan import scan_all_loops
from repro.errors import AnalysisError, RegionCheckError, ResolutionError
from repro.lang import parse_program

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
    def test_process_scan_matches_serial(self):
        config = DetectorConfig()
        serial = scan_all_loops(_program(), config)
        processed = scan_all_loops(
            _program(), config, parallel=True, max_workers=2
        )
        assert processed.to_json(canonical=True) == serial.to_json(canonical=True)

    def test_process_entries_in_submission_order(self):
        result = scan_all_loops(_program(), parallel=True, max_workers=2)
        assert [spec.loop_label for spec, _ in result.entries] == ["A", "B", "C"]


def _scan_with_workers(workers, specs=None):
    program = _program()
    return scan_all_loops(
        program,
        specs=candidate_loops(program) if specs is None else specs,
        parallel=True,
        max_workers=workers,
    )


class TestWorkerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(AnalysisError, match="--jobs"):
            _scan_with_workers(0)

    def test_negative_workers_rejected(self):
        with pytest.raises(AnalysisError, match="-3"):
            _scan_with_workers(-3)

    def test_message_matches_cli_jobs_validation(self):
        """The library-level rejection renders exactly like the CLI's
        ``--jobs`` guard, so both paths exit 2 with the same text."""
        with pytest.raises(
            AnalysisError,
            match=r"--jobs must be a positive worker count \(got 0\)",
        ):
            _scan_with_workers(0)

    def test_invalid_workers_exit_2_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "prog.lk"
        src.write_text(_THREE_LOOPS)
        code = main(["scan", str(src), "--parallel", "--jobs", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--jobs must be a positive worker count (got 0)" in err


_BAD = RegionSpec("Main.main", "NO_SUCH_LOOP")


class TestFailureLabelling:
    def test_failure_names_region_process_backend(self):
        specs = candidate_loops(_program()) + [_BAD]
        with pytest.raises(RegionCheckError) as excinfo:
            _scan_with_workers(2, specs)
        assert "NO_SUCH_LOOP" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)

    def test_process_failure_names_backend(self):
        """A worker-side failure reports the fleet that ran it and the
        originating region."""
        specs = candidate_loops(_program()) + [_BAD]
        with pytest.raises(RegionCheckError) as excinfo:
            _scan_with_workers(2, specs)
        err = excinfo.value
        assert err.backend == "fleet"
        assert err.region_desc == region_text(_BAD)
        assert "backend=fleet" in str(err)

    def test_failure_names_region_serial_fallback(self):
        """One worker is the serial scan: it raises what a serial scan
        raises, and that error names the region too."""
        with pytest.raises(ResolutionError) as excinfo:
            _scan_with_workers(1, [_BAD])
        assert not isinstance(excinfo.value, RegionCheckError)
        assert "NO_SUCH_LOOP" in str(excinfo.value)

    def test_region_check_error_pickles(self):
        import pickle

        err = RegionCheckError("Main.main:L", "ValueError: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.region_desc == "Main.main:L"
        assert "boom" in str(clone)

    def test_region_check_error_pickles_backend_fields(self):
        import pickle

        err = RegionCheckError(
            "Main.main:L", "ValueError: boom", backend="fleet"
        )
        clone = pickle.loads(pickle.dumps(err))
        assert clone.backend == "fleet"
        assert str(clone) == str(err)


class TestSharedMemoryHygiene:
    def test_consecutive_scans_leave_tracker_and_shm_clean(self):
        """Workers forked after the scan started the resource tracker
        share it; attaching must not unregister the parent's segment
        there, or the parent's unlink makes the tracker print KeyError
        tracebacks.  Every segment is unlinked when its scan ends."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import sys\n"
            "from repro.core.scan import scan_all_loops\n"
            "from repro.lang import parse_program\n"
            "source = sys.stdin.read()\n"
            "for _ in range(2):\n"
            "    scan_all_loops(\n"
            "        parse_program(source), parallel=True, max_workers=2\n"
            "    )\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

        def segments():
            if not os.path.isdir("/dev/shm"):
                return set()
            return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}

        before = segments()
        # communicate() reads stderr to EOF, which waits for the tracker
        # process too: it holds a copy of the child's stderr.
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=_THREE_LOOPS,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "resource_tracker" not in proc.stderr
        assert segments() - before == set()
