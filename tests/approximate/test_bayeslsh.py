"""Tests for the BayesLSH-lite join baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.approximate.bayeslsh import (
    BayesianFilterStage,
    BayesLSHJoin,
    _posterior_above_threshold,
    bayeslsh_join,
)
from repro.backend import make_backend
from repro.core.preprocess import preprocess_collection
from repro.exact.naive import naive_join
from repro.evaluation.metrics import precision, recall
from repro.similarity.measures import jaccard_similarity


class TestPosterior:
    def test_all_bits_agree_high_posterior(self) -> None:
        assert _posterior_above_threshold(64, 64, 0.5) > 0.99

    def test_half_bits_agree_low_posterior_for_high_threshold(self) -> None:
        # 50% agreement corresponds to similarity ~0, so the posterior of
        # exceeding 0.8 must be tiny.
        assert _posterior_above_threshold(32, 64, 0.8) < 0.01

    def test_monotone_in_agreements(self) -> None:
        values = [_posterior_above_threshold(m, 64, 0.5) for m in range(0, 65, 8)]
        assert values == sorted(values)


def incremental_sketch_check(join: BayesLSHJoin, first_words, second_words) -> bool:
    """Oracle: compare sketches word by word, pruning once the posterior drops too low."""
    agreements = 0
    comparisons = 0
    for word_first, word_second in zip(first_words, second_words):
        comparisons += 64
        agreements += 64 - bin(int(word_first) ^ int(word_second)).count("1")
        posterior = _posterior_above_threshold(agreements, comparisons, join.threshold)
        if posterior < join.pruning_probability:
            return False
    return True


@pytest.fixture(scope="module")
def spread_collection():
    """Records whose pairwise Jaccard spans the whole range (a duplicate
    included), plus random ones."""
    rng = np.random.default_rng(8)
    base = list(range(1000, 1060))
    records = [tuple(base)]
    for replaced in range(0, 60, 2):
        fresh = rng.choice(np.arange(2000, 4000), size=replaced, replace=False).tolist()
        records.append(tuple(sorted(base[replaced:] + fresh)))
    for _ in range(30):
        records.append(tuple(sorted(rng.choice(5000, size=40, replace=False).tolist())))
    return preprocess_collection(records, seed=8)


class TestBayesianFilterParity:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("pruning_probability", [0.01, 0.025, 0.2, 0.6])
    def test_block_path_matches_incremental_oracle(
        self, spread_collection, threshold, pruning_probability
    ) -> None:
        join = BayesLSHJoin(threshold, pruning_probability=pruning_probability)
        stage = BayesianFilterStage(join, make_backend("numpy", spread_collection, threshold))
        firsts, seconds = np.triu_indices(spread_collection.num_records, k=1)
        kept = stage.filter_pairs(firsts, seconds)
        words = spread_collection.sketches.words
        expected = [
            (first, second)
            for first, second in zip(firsts.tolist(), seconds.tolist())
            if incremental_sketch_check(join, words[first], words[second])
        ]
        assert list(zip(kept[0].tolist(), kept[1].tolist())) == expected
        # Both outcomes occur, so the comparison is not vacuous.
        assert 0 < len(expected) < firsts.size


class TestBayesLSHJoin:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            BayesLSHJoin(0.0)
        with pytest.raises(ValueError):
            BayesLSHJoin(0.5, pruning_probability=0.0)
        with pytest.raises(ValueError):
            BayesLSHJoin(0.5, candidates="unknown")

    def test_tiny_example(self, tiny_records, tiny_truth_05) -> None:
        result = bayeslsh_join(tiny_records, 0.5, seed=1)
        assert result.pairs == tiny_truth_05

    def test_perfect_precision(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.6).pairs
        result = bayeslsh_join(records, 0.6, seed=2)
        assert precision(result.pairs, truth) == 1.0

    def test_reasonable_recall_with_lsh_candidates(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.7).pairs
        result = BayesLSHJoin(0.7, seed=3).join(records)
        # The default repetition count targets ~95% recall for pairs at the
        # threshold; well-above-threshold planted pairs should be found.
        assert recall(result.pairs, truth) >= 0.8

    def test_allpairs_candidates_give_full_recall(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        truth = naive_join(records, 0.7).pairs
        result = BayesLSHJoin(0.7, candidates="allpairs", seed=4).join(records)
        # Prefix-filter candidates are complete; only sketch pruning can lose
        # pairs, and with δ-style pruning at 0.025 the loss should be small.
        assert recall(result.pairs, truth) >= 0.9

    def test_reported_pairs_meet_threshold(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        result = bayeslsh_join(records, 0.5, seed=5)
        for first, second in result.pairs:
            assert jaccard_similarity(records[first], records[second]) >= 0.5

    def test_default_repetitions_depend_on_threshold(self) -> None:
        low = BayesLSHJoin(0.5)
        high = BayesLSHJoin(0.9)
        assert low.repetitions >= high.repetitions

    def test_stats_metadata(self, tiny_records) -> None:
        result = bayeslsh_join(tiny_records, 0.5, seed=6)
        assert result.stats.algorithm == "BAYESLSH"
        assert result.stats.candidates <= result.stats.pre_candidates
