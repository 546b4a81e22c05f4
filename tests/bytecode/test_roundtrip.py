"""Round-trip tests: IR -> bytecode -> IR is the identity (up to
printing), on fixtures, on the eight benchmark apps, and on random
programs."""

from hypothesis import HealthCheck, given, settings

from repro.bytecode import assemble_program, dump, load, load_program
from repro.ir.printer import program_to_text
from repro.lang import parse_program
from tests.conftest import FIGURE1_SOURCE, SIMPLE_LEAK_SOURCE
from tests.properties.strategies import loop_programs


def _round_trip(program):
    return load_program(assemble_program(program))


class TestRoundTrip:
    def test_figure1(self, figure1):
        reloaded = _round_trip(figure1)
        assert program_to_text(reloaded) == program_to_text(figure1)

    def test_simple_leak(self, simple_leak):
        reloaded = _round_trip(simple_leak)
        assert program_to_text(reloaded) == program_to_text(simple_leak)

    def test_javalib(self):
        from repro.javalib import JAVALIB_SOURCE

        program = parse_program(JAVALIB_SOURCE + "\nclass App { }")
        reloaded = _round_trip(program)
        assert program_to_text(reloaded) == program_to_text(program)

    def test_entry_preserved(self, simple_leak):
        assert _round_trip(simple_leak).entry == "Main.main"

    def test_library_flag_preserved(self):
        program = parse_program("library class L { method m() { return; } }")
        assert _round_trip(program).cls("L").is_library

    def test_sites_preserved(self, figure1):
        reloaded = _round_trip(figure1)
        assert {s.label for s in reloaded.alloc_sites()} == {
            s.label for s in figure1.alloc_sites()
        }

    def test_all_benchmark_apps(self):
        from repro.bench.apps import all_apps

        for app in all_apps():
            reloaded = _round_trip(app.program)
            assert program_to_text(reloaded) == program_to_text(app.program), app.name

    def test_analysis_agrees_after_reload(self, figure1):
        """The leak report on the reloaded program is identical."""
        from repro.core import LeakChecker, RegionSpec

        reloaded = _round_trip(figure1)
        original = LeakChecker(figure1).check(RegionSpec("Main.main", "L1"))
        again = LeakChecker(reloaded).check(RegionSpec("Main.main", "L1"))
        assert original.leaking_site_labels == again.leaking_site_labels
        assert (
            original.findings[0].redundant_edges
            == again.findings[0].redundant_edges
        )

    def test_file_round_trip(self, tmp_path, simple_leak):
        path = tmp_path / "prog.jbc"
        dump(simple_leak, str(path))
        reloaded = load(str(path))
        assert program_to_text(reloaded) == program_to_text(simple_leak)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(loop_programs())
    def test_random_programs(self, source):
        program = parse_program(source)
        reloaded = _round_trip(program)
        assert program_to_text(reloaded) == program_to_text(program)
