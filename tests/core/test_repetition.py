"""Tests for the repetition driver."""

from __future__ import annotations

import pytest

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.core.preprocess import preprocess_collection
from repro.core.repetition import RepetitionEngine, join_with_target_recall, repetitions_for_recall
from repro.exact.naive import naive_join
from repro.evaluation.metrics import recall


class TestRepetitionsForRecall:
    def test_formula(self) -> None:
        # One run with 50% recall needs 4 runs for 90%: 1 - 0.5^4 = 0.9375.
        assert repetitions_for_recall(0.5, 0.9) == 4

    def test_higher_target_needs_more_runs(self) -> None:
        assert repetitions_for_recall(0.3, 0.99) > repetitions_for_recall(0.3, 0.9)

    def test_invalid_arguments(self) -> None:
        with pytest.raises(ValueError):
            repetitions_for_recall(0.0, 0.9)
        with pytest.raises(ValueError):
            repetitions_for_recall(0.5, 1.0)


class TestRepetitionEngine:
    def _driver(self, records, threshold=0.5, seed=1):
        config = CPSJoinConfig(seed=seed)
        engine = CPSJoin(threshold, config)
        collection = preprocess_collection(records, seed=seed)
        return RepetitionEngine(engine, collection)

    def test_run_fixed_counts_repetitions(self, uniform_dataset) -> None:
        driver = self._driver(uniform_dataset.records[:100])
        result = driver.run_fixed(3)
        assert result.stats.repetitions == 3

    def test_run_fixed_rejects_zero(self, uniform_dataset) -> None:
        driver = self._driver(uniform_dataset.records[:50])
        with pytest.raises(ValueError):
            driver.run_fixed(0)

    def test_run_until_recall_stops_when_target_met(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.5).pairs
        driver = self._driver(records)
        result = driver.run_until_recall(truth, target_recall=0.9, max_repetitions=30)
        assert recall(result.pairs, truth) >= 0.9
        assert result.stats.repetitions <= 30

    def test_run_until_recall_with_empty_truth(self, uniform_dataset) -> None:
        driver = self._driver(uniform_dataset.records[:60])
        result = driver.run_until_recall(set(), target_recall=0.9)
        assert result.stats.repetitions == 1

    def test_invalid_target_recall(self, uniform_dataset) -> None:
        driver = self._driver(uniform_dataset.records[:50])
        with pytest.raises(ValueError):
            driver.run_until_recall(set(), target_recall=0.0)


class TestJoinWithTargetRecall:
    def test_end_to_end(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.6).pairs
        result = join_with_target_recall(records, 0.6, truth, target_recall=0.9, config=CPSJoinConfig(seed=2))
        assert recall(result.pairs, truth) >= 0.9
        assert all(pair in truth for pair in result.pairs)
