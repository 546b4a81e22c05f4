"""Unit tests for the worker-count validator."""

import pytest

from repro.core.workers import validate_workers
from repro.errors import AnalysisError


class TestValidateWorkers:
    def test_positive_counts_pass_through(self):
        assert validate_workers(1) == 1
        assert validate_workers(16) == 16

    def test_none_means_auto(self):
        assert validate_workers(None) is None

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(
            AnalysisError, match=r"positive worker count \(got %d\)" % bad
        ):
            validate_workers(bad)

    def test_flag_name_appears_in_message(self):
        with pytest.raises(AnalysisError, match="--workers"):
            validate_workers(0)
