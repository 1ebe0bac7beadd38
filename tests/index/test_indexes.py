"""Tests for the Chosen Path and MinHash LSH candidate structures.

The structures themselves only generate candidates; the query-level cases
run through ``SimilarityIndex(candidates=...)``, which verifies them.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import binom

from repro.index import SimilarityIndex
from repro.index.chosen_path import ChosenPathIndex
from repro.index.minhash_lsh import MinHashLSHIndex
from repro.similarity.measures import jaccard_similarity


def build_reference_collection(seed: int = 5):
    """A reference collection with known near-duplicates of the query records."""
    rng = np.random.default_rng(seed)
    base_records = [tuple(sorted(rng.choice(500, size=20, replace=False).tolist())) for _ in range(80)]
    # Near-duplicates of the first three records (high similarity).
    duplicates = []
    for index in range(3):
        base = list(base_records[index])
        duplicate = tuple(sorted(base[:-3] + [600 + index, 700 + index, 800 + index]))
        duplicates.append(duplicate)
    return base_records, duplicates


def assert_exact_precision(index: SimilarityIndex, query) -> None:
    for record_id, similarity in index.query(query):
        true_similarity = jaccard_similarity(query, index.record(record_id))
        assert true_similarity >= index.threshold
        assert similarity == pytest.approx(true_similarity)


class TestMinHashLSHIndex:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            MinHashLSHIndex(0.0)
        with pytest.raises(ValueError):
            MinHashLSHIndex(0.5, bands=0)

    def test_insert_and_len(self) -> None:
        index = MinHashLSHIndex(0.5, seed=1)
        ids = index.insert_all([[1, 2, 3], [4, 5, 6]])
        assert ids == [0, 1]
        assert index.insert([7, 8]) == 2
        assert len(index) == 3

    def test_empty_record_rejected(self) -> None:
        with pytest.raises(ValueError):
            MinHashLSHIndex(0.5, seed=1).insert([])

    def test_unhashable_block_leaves_index_unchanged(self) -> None:
        index = MinHashLSHIndex(0.5, seed=1)
        index.insert([1, 2, 3])
        with pytest.raises(ValueError, match="32-bit tabulation key"):
            index.insert_all([[4, 5, 6], [7, 2**40]])
        assert len(index) == 1
        assert index.candidates([4, 5, 6]) == set()

    def test_block_insert_equals_record_inserts(self) -> None:
        base_records, duplicates = build_reference_collection()
        block = MinHashLSHIndex(0.5, seed=3)
        block.insert_all(base_records)
        single = MinHashLSHIndex(0.5, seed=3)
        for record in base_records:
            single.insert(record)
        for query in duplicates + base_records[:10]:
            assert block.candidates(query) == single.candidates(query)

    def test_exact_duplicate_always_a_candidate(self) -> None:
        index = MinHashLSHIndex(0.5, seed=2)
        index.insert([7, 8, 9, 10])
        assert index.candidates([10, 9, 8, 7]) == {0}

    def test_exact_duplicate_always_found(self) -> None:
        index = SimilarityIndex(0.5, candidates="lsh", use_sketches=False, seed=2)
        index.insert([7, 8, 9, 10])
        results = index.query([7, 8, 9, 10])
        assert results and results[0] == (0, 1.0)

    def test_query_finds_near_duplicates_with_exact_precision(self) -> None:
        base_records, duplicates = build_reference_collection()
        index = SimilarityIndex.build(
            base_records, 0.5, candidates="lsh", use_sketches=False, seed=3
        )
        for query_position, query in enumerate(duplicates):
            result_ids = {record_id for record_id, _ in index.query(query)}
            assert query_position in result_ids  # the true near-duplicate is found
            assert_exact_precision(index, query)

    def test_collision_probability_monotone(self) -> None:
        index = MinHashLSHIndex(0.5, bands=16, rows=4, seed=4)
        values = [index.collision_probability(similarity) for similarity in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert values == sorted(values)
        assert index.collision_probability(1.0) == pytest.approx(1.0)

    def test_unrelated_query_returns_nothing(self) -> None:
        index = SimilarityIndex.build([[1, 2, 3, 4], [5, 6, 7, 8]], 0.5, candidates="lsh", seed=5)
        assert index.query([100, 200, 300]) == []


class TestChosenPathIndex:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            ChosenPathIndex(0.0)
        with pytest.raises(ValueError):
            ChosenPathIndex(1.5)
        with pytest.raises(ValueError):
            ChosenPathIndex(0.5, depth=0)
        with pytest.raises(ValueError):
            ChosenPathIndex(0.5, repetitions=0)

    def test_insert_and_len(self) -> None:
        index = ChosenPathIndex(0.5, depth=3, repetitions=5, seed=1)
        assert index.insert([3, 1, 2]) == 0
        assert index.insert_all([[4, 5], [6]]) == [1, 2]
        assert len(index) == 3

    def test_empty_record_rejected(self) -> None:
        with pytest.raises(ValueError):
            ChosenPathIndex(0.5, seed=1).insert([])

    def test_leaves_are_a_function_of_record_and_seed(self) -> None:
        # No shared generator: the order of inserts and queries never
        # changes which leaves a record reaches.
        base_records, duplicates = build_reference_collection()
        forward = ChosenPathIndex(0.5, depth=3, repetitions=8, seed=9)
        forward.insert_all(base_records)
        mixed = ChosenPathIndex(0.5, depth=3, repetitions=8, seed=9)
        for record in base_records:
            mixed.candidates(duplicates[0])
            mixed.insert(record)
        for query in duplicates + base_records:
            assert forward.candidates(query) == mixed.candidates(query)

    def test_seeds_give_different_forests(self) -> None:
        records = [tuple(range(start, start + 12)) for start in range(0, 400, 4)]
        first = ChosenPathIndex(0.5, depth=3, repetitions=4, seed=1)
        second = ChosenPathIndex(0.5, depth=3, repetitions=4, seed=2)
        first.insert_all(records)
        second.insert_all(records)
        assert any(first.candidates(record) != second.candidates(record) for record in records)

    def test_exact_duplicate_found_with_high_probability(self) -> None:
        index = SimilarityIndex(
            0.5,
            candidates="chosenpath",
            use_sketches=False,
            chosen_path_depth=3,
            chosen_path_repetitions=15,
            seed=2,
        )
        index.insert([5, 6, 7, 8, 9])
        results = index.query([5, 6, 7, 8, 9])
        assert results and results[0][0] == 0

    def test_query_precision_is_exact(self) -> None:
        base_records, duplicates = build_reference_collection()
        index = SimilarityIndex.build(
            base_records, 0.5, candidates="chosenpath", use_sketches=False, seed=3
        )
        for query in duplicates:
            assert_exact_precision(index, query)

    def test_threshold_one_finds_exact_duplicates_only(self) -> None:
        records = [[1, 2, 3], [1, 2, 3], [4, 5, 6]]
        index = SimilarityIndex.build(records, 1.0, candidates="chosenpath", seed=1)
        assert index.query([1, 2, 3]) == [(0, 1.0), (1, 1.0)]
        assert index.query([4, 5, 6]) == [(2, 1.0)]
        assert index.query([1, 2, 3, 4]) == []
        for seed in range(20):
            index = SimilarityIndex.build(records, 1.0, candidates="chosenpath", seed=seed)
            for query in ([1, 2], [1, 2, 3, 4], [4, 5]):
                assert index.query(query) == []

    def test_recall_of_planted_duplicates_meets_lower_bound(self) -> None:
        # Planted near-duplicates have Braun-Blanquet similarity 17/20 ≥ λ,
        # so each is a candidate with probability ≥ recall_lower_bound().
        # Over 30 seeds the found count must not fall below the bound's
        # binomial 0.1 % quantile.
        depth, repetitions = 3, 4
        trials = found = 0
        bound = ChosenPathIndex(0.5, depth=depth, repetitions=repetitions).recall_lower_bound()
        for seed in range(30):
            base_records, duplicates = build_reference_collection(seed)
            index = ChosenPathIndex(0.5, depth=depth, repetitions=repetitions, seed=seed)
            index.insert_all(base_records)
            for query_position, query in enumerate(duplicates):
                trials += 1
                found += query_position in index.candidates(query)
        assert found >= binom.ppf(0.001, trials, bound)

    def test_recall_lower_bound_formula(self) -> None:
        index = ChosenPathIndex(0.5, depth=4, repetitions=10, seed=5)
        expected = 1.0 - (1.0 - 1.0 / 5) ** 10
        assert index.recall_lower_bound() == pytest.approx(expected)

    def test_expected_leaf_count(self) -> None:
        index = ChosenPathIndex(0.5, depth=3, repetitions=1, seed=6)
        assert index.expected_leaf_count(20) == pytest.approx(8.0)
        with pytest.raises(ValueError):
            index.expected_leaf_count(0)

    def test_candidate_rate_below_full_scan(self) -> None:
        # The whole point of the index: a query should not have to look at
        # every stored record.
        rng = np.random.default_rng(7)
        records = [tuple(sorted(rng.choice(2000, size=15, replace=False).tolist())) for _ in range(300)]
        index = ChosenPathIndex(0.5, depth=3, repetitions=5, seed=8)
        index.insert_all(records)
        query = records[0]
        assert len(index.candidates(query)) < len(records) / 2
