"""Unit tests for the worker-count validator and the shard planner."""

import pytest

from repro.core.pipeline.sharding import (
    MAX_SHARD_SIZE,
    auto_shard_size,
    plan_shards,
)
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


class TestShardPlanning:
    def test_contiguous_and_complete(self):
        specs = list(range(10))
        shards = plan_shards(specs, 3)
        assert [start for start, _ in shards] == [0, 3, 6, 9]
        flattened = [item for _, chunk in shards for item in chunk]
        assert flattened == specs

    def test_single_shard_when_size_covers_all(self):
        assert plan_shards([1, 2], 16) == [(0, [1, 2])]

    def test_empty_specs_plan_nothing(self):
        assert plan_shards([], 4) == []

    def test_auto_size_spreads_over_workers(self):
        # 32 specs on 4 workers -> 8 shards of 4 (2 shards per worker).
        assert auto_shard_size(32, 4) == 4

    def test_auto_size_clamps(self):
        assert auto_shard_size(1000, 1) == MAX_SHARD_SIZE
        assert auto_shard_size(1, 8) == 1
        assert auto_shard_size(0, 4) == 1
