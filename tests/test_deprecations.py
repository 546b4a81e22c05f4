"""The :class:`repro.Analyzer`/:func:`repro.analyze` facade, which
replaced the removed ``check_program``/``analyze_loop``/``detect_leaks``
entry points and the ``LoopSpec`` alias, answers without warnings."""

import warnings

import pytest

from repro import Analyzer, analyze, parse_program
from tests.conftest import SIMPLE_LEAK_SOURCE


@pytest.fixture
def program():
    return parse_program(SIMPLE_LEAK_SOURCE)


def _catch(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    deprecations = [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    return value, deprecations


class TestNewFacade:
    def test_analyze_scan_mode(self, program):
        result = analyze(program)
        assert result.total_findings() >= 1

    def test_analyzer_rejects_bad_region_type(self, program):
        with pytest.raises(TypeError):
            Analyzer(program).analyze(123)

    def test_no_warning_from_new_api(self, program):
        _report, caught = _catch(lambda: analyze(program, "Main.main:L"))
        assert caught == []
