"""Tests for the MinHash LSH join baseline (Algorithm 3)."""

from __future__ import annotations

import pytest

from repro.approximate.minhash_lsh import MinHashLSHJoin, minhash_lsh_join
from repro.core.preprocess import preprocess_collection
from repro.exact.naive import naive_join
from repro.evaluation.metrics import precision, recall
from repro.similarity.measures import jaccard_similarity


class TestMinHashLSHBasics:
    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            MinHashLSHJoin(0.0)
        with pytest.raises(ValueError):
            MinHashLSHJoin(0.5, target_recall=1.5)

    def test_tiny_example_full_recall(self, tiny_records, tiny_truth_05) -> None:
        result = minhash_lsh_join(tiny_records, 0.5, seed=1)
        assert result.pairs == tiny_truth_05

    def test_repetitions_for_recall_formula(self) -> None:
        join = MinHashLSHJoin(0.5, target_recall=0.9)
        # λ^k = 0.25 for k = 2: L = ceil(ln(10)/0.25) = 10.
        assert join.repetitions_for_recall(2) == 10

    def test_perfect_precision(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.6).pairs
        result = minhash_lsh_join(records, 0.6, seed=3)
        assert precision(result.pairs, truth) == 1.0

    def test_high_recall_with_enough_repetitions(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.7).pairs
        result = MinHashLSHJoin(0.7, repetitions=20, seed=5).join(records)
        assert recall(result.pairs, truth) >= 0.9

    def test_reported_pairs_meet_threshold(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        result = minhash_lsh_join(records, 0.5, seed=7)
        for first, second in result.pairs:
            assert jaccard_similarity(records[first], records[second]) >= 0.5


class TestParameterSelection:
    def test_select_k_in_candidate_range(self, uniform_dataset) -> None:
        import numpy as np

        collection = preprocess_collection(uniform_dataset.records[:150], seed=2)
        join = MinHashLSHJoin(0.5, seed=2)
        k = join.select_k(collection, np.random.default_rng(2))
        assert k in join.CANDIDATE_K_RANGE

    def test_explicit_k_respected(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:100]
        result = MinHashLSHJoin(0.5, num_hash_functions=4, repetitions=3, seed=4).join(records)
        assert result.stats.extra["k"] == 4.0
        assert result.stats.repetitions == 3

    def test_more_repetitions_never_reduce_recall(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        truth = naive_join(records, 0.6).pairs
        few = MinHashLSHJoin(0.6, num_hash_functions=4, repetitions=2, seed=6).join(records)
        many = MinHashLSHJoin(0.6, num_hash_functions=4, repetitions=12, seed=6).join(records)
        assert recall(many.pairs, truth) >= recall(few.pairs, truth)

    def test_stats_accumulate_across_repetitions(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:100]
        result = MinHashLSHJoin(0.5, num_hash_functions=3, repetitions=5, seed=8).join(records)
        assert result.stats.repetitions == 5
        assert result.stats.pre_candidates >= result.stats.candidates
        assert result.stats.algorithm == "MINHASH"

    def test_run_once_smaller_than_full_join(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:100]
        collection = preprocess_collection(records, seed=9)
        engine = MinHashLSHJoin(0.6, num_hash_functions=4, seed=9)
        single = engine.run_once(collection, repetition=0)
        full = engine.join_preprocessed(collection)
        assert single.pairs <= full.pairs or len(full.pairs) >= len(single.pairs)


class TestBucketizeParity:
    """The column-wise bucketing must mirror the insertion-ordered dict loop."""

    def test_numpy_buckets_equal_python_reference(self, uniform_dataset) -> None:
        import numpy as np

        collection = preprocess_collection(uniform_dataset.records, seed=4)
        for k in (1, 2, 3, 5):
            join = MinHashLSHJoin(0.5, num_hash_functions=k, seed=k)
            coordinates = join._draw_coordinates(
                collection.embedding_size, k, np.random.default_rng(k)
            )
            groups: dict = {}
            keys = collection.signatures.matrix[:, coordinates]
            for record_id, key in enumerate(map(tuple, keys.tolist())):
                groups.setdefault(key, []).append(record_id)
            reference = [bucket for bucket in groups.values() if len(bucket) >= 2]
            buckets = [bucket.tolist() for bucket in join._bucketize(collection, coordinates)]
            # Same buckets, same order, same members in the same order.
            assert buckets == reference

    def test_full_join_pairs_identical_across_backends(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        results = {
            backend: MinHashLSHJoin(
                0.5, num_hash_functions=3, repetitions=4, seed=6, backend=backend
            ).join(records)
            for backend in ("python", "numpy")
        }
        assert results["numpy"].pairs == results["python"].pairs
