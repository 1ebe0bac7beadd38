"""Unit tests for the execution-backend kernels.

The numpy backend's vectorized kernels (packed-token verification, block
all-pairs, grouped pair verification) are checked directly against the
scalar reference backend on randomized inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import BACKEND_NAMES, NumpyBackend, PythonBackend, make_backend
from repro.backend.kernels import csr_overlaps_one_to_many, expand_pair_blocks
from repro.core.preprocess import preprocess_collection
from repro.engine import CandidateStage, JoinEngine, SketchFilterStage, SubsetCandidates
from repro.result import JoinStats
from repro.similarity.measures import jaccard_similarity
from repro.similarity.verify import verify_pair_sorted


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(7)
    records = []
    for _ in range(120):
        size = int(rng.integers(2, 25))
        records.append(tuple(sorted(rng.choice(300, size=size, replace=False).tolist())))
    return preprocess_collection(records, seed=3)


class TestRegistry:
    def test_names(self) -> None:
        assert set(BACKEND_NAMES) == {"python", "numpy"}

    def test_make_backend_resolves_names(self, collection) -> None:
        assert isinstance(make_backend("python", collection, 0.5), PythonBackend)
        assert isinstance(make_backend("numpy", collection, 0.5), NumpyBackend)
        assert isinstance(make_backend(None, collection, 0.5), NumpyBackend)

    def test_make_backend_passes_instances_through(self, collection) -> None:
        backend = NumpyBackend(collection, 0.5)
        assert make_backend(backend, collection, 0.5) is backend

    def test_unknown_backend_rejected(self, collection) -> None:
        with pytest.raises(ValueError):
            make_backend("fortran", collection, 0.5)

    def test_invalid_threshold_rejected(self, collection) -> None:
        with pytest.raises(ValueError):
            NumpyBackend(collection, 0.0)


class TestPackedTokens:
    def test_packing_round_trips(self, collection) -> None:
        values, offsets = collection.packed_tokens()
        assert offsets[0] == 0
        assert offsets[-1] == values.size
        for index, record in enumerate(collection.records):
            segment = values[offsets[index] : offsets[index + 1]]
            assert segment.tolist() == list(record)

    def test_packing_is_cached(self, collection) -> None:
        assert collection.packed_tokens()[0] is collection.packed_tokens()[0]

    def test_sketch_bigints_match_words(self, collection) -> None:
        bigints = collection.sketch_bigints()
        words = collection.sketches.words
        for index in range(collection.num_records):
            expected = sum(int(word) << (64 * w) for w, word in enumerate(words[index]))
            assert bigints[index] == expected


class TestVerifyKernels:
    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7, 0.9])
    def test_verify_one_to_many_matches_reference(self, collection, threshold) -> None:
        python_backend = PythonBackend(collection, threshold)
        numpy_backend = NumpyBackend(collection, threshold)
        rng = np.random.default_rng(11)
        for _ in range(25):
            record_id = int(rng.integers(0, collection.num_records))
            count = int(rng.integers(1, 40))
            others = rng.choice(collection.num_records, size=count, replace=False)
            others = others[others != record_id]
            if others.size == 0:
                continue
            expected = python_backend.verify_one_to_many(record_id, others)
            actual = numpy_backend.verify_one_to_many(record_id, others)
            np.testing.assert_array_equal(actual, expected)

    def test_verify_agrees_with_true_jaccard(self, collection) -> None:
        backend = NumpyBackend(collection, 0.5)
        rng = np.random.default_rng(13)
        for _ in range(50):
            first, second = rng.choice(collection.num_records, size=2, replace=False)
            mask = backend.verify_one_to_many(int(first), np.array([int(second)]))
            truth = jaccard_similarity(collection.records[first], collection.records[second]) >= 0.5
            assert bool(mask[0]) == truth

    def test_verify_pairs_grouping(self, collection) -> None:
        backend = NumpyBackend(collection, 0.4)
        rng = np.random.default_rng(17)
        firsts = rng.integers(0, collection.num_records, size=200)
        seconds = (firsts + 1 + rng.integers(0, collection.num_records - 1, size=200)) % collection.num_records
        mask = backend.verify_pairs(firsts, seconds)
        for first, second, accepted in zip(firsts, seconds, mask):
            expected, _ = verify_pair_sorted(
                collection.records[first], collection.records[second], 0.4
            )
            assert bool(accepted) == expected


class _ListStage(CandidateStage):
    def __init__(self, task_list):
        self.task_list = task_list

    def tasks(self):
        yield from self.task_list


def _all_pairs(collection, backend, subset, use_sketches, cutoff, threshold=0.5):
    """BRUTEFORCEPAIRS through the engine: ``(pre_candidates, verified, pairs)``."""
    engine = JoinEngine(collection, threshold, backend=backend)
    stats = JoinStats()
    filter_stage = SketchFilterStage(engine.backend, use_sketches, cutoff)
    pairs = engine.execute(_ListStage([SubsetCandidates(subset)]), stats, filter_stage)
    assert stats.candidates == stats.verified
    return stats.pre_candidates, stats.verified, pairs


class TestCsrOverlaps:
    def test_counts_and_weighted_sums(self, collection) -> None:
        values, offsets = collection.packed_tokens()
        sizes = collection.record_sizes()
        weights = np.random.default_rng(3).random(values.size)
        query = np.asarray(collection.records[0], dtype=np.int64)
        for others in (np.array([5]), np.arange(1, 40), np.zeros(0, dtype=np.intp)):
            counts = csr_overlaps_one_to_many(query, values, offsets, sizes, others)
            sums = csr_overlaps_one_to_many(query, values, offsets, sizes, others, weights)
            assert counts.dtype == np.int64 and sums.dtype == np.float64
            assert counts.size == sums.size == others.size
            for position, other in enumerate(others.tolist()):
                span = slice(offsets[other], offsets[other] + sizes[other])
                hit = np.isin(values[span], query)
                assert counts[position] == np.count_nonzero(hit)
                assert sums[position] == pytest.approx(weights[span][hit].sum())


class TestAllPairsKernels:
    @pytest.mark.parametrize("use_sketches", [True, False])
    @pytest.mark.parametrize("subset_size", [2, 3, 7, 12, 13, 40, 120])
    def test_all_pairs_matches_reference(self, collection, use_sketches, subset_size) -> None:
        # The numpy word-major filter against the scalar per-pair oracle,
        # from a single pair up to a subset of every record.
        rng = np.random.default_rng(subset_size)
        subset = rng.choice(collection.num_records, size=subset_size, replace=False).tolist()
        expected = _all_pairs(collection, "python", subset, use_sketches, 0.3)
        actual = _all_pairs(collection, "numpy", subset, use_sketches, 0.3)
        assert actual == expected  # (pre_candidates, verified, accepted pairs)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_trivial_subsets(self, collection, backend) -> None:
        assert _all_pairs(collection, backend, [], True, 0.3) == (0, 0, set())
        assert _all_pairs(collection, backend, [4], True, 0.3) == (0, 0, set())


class TestExpandPairBlocks:
    @staticmethod
    def _reference(subsets, points, sides=None):
        pairs = []
        for subset in subsets:
            subset = list(subset)
            for position, first in enumerate(subset):
                pairs.extend((first, second) for second in subset[position + 1 :])
        for anchor, others in points:
            pairs.extend((anchor, int(other)) for other in others)
        if sides is not None:
            pairs = [pair for pair in pairs if sides[pair[0]] != sides[pair[1]]]
        return pairs

    @staticmethod
    def _expand(subsets, points, sides, budget):
        blocks = list(expand_pair_blocks(subsets, points, sides, budget))
        pairs = [
            (int(first), int(second))
            for firsts, seconds in blocks
            for first, second in zip(firsts, seconds)
        ]
        return blocks, pairs

    def test_segmented_triangle_and_rows_in_order(self) -> None:
        subsets = [(5, 1, 9), (), (4,), np.array([7, 2, 8, 3]), (0, 6)]
        points = [(11, (12, 13)), (14, ()), (15, np.array([16]))]
        blocks, pairs = self._expand(subsets, points, None, 1 << 16)
        assert len(blocks) == 1
        assert pairs == self._reference(subsets, points)
        assert all(block.dtype == np.intp for pair in blocks for block in pair)

    def test_nothing_to_expand(self) -> None:
        assert list(expand_pair_blocks([(), (3,)], [(1, ())], None, 8)) == []

    def test_side_mask(self) -> None:
        sides = np.array([0, 1] * 10, dtype=np.int8)
        subsets = [tuple(range(9)), (10, 12, 14)]
        points = [(1, np.arange(10, 20))]
        _, pairs = self._expand(subsets, points, sides, 1 << 16)
        assert pairs == self._reference(subsets, points, sides)

    @pytest.mark.parametrize("budget", [1, 5, 16, 40])
    def test_blocks_hold_at_most_budget_plus_one_row(self, budget) -> None:
        # Replaces the old BLOCK_ROW_LIMIT row fallback: the budget now
        # bounds every block of a large subset, cut at row boundaries.
        subsets = [tuple(range(30)), tuple(range(40, 47))]
        points = [(99, tuple(range(50, 75)))]
        blocks, pairs = self._expand(subsets, points, None, budget)
        assert pairs == self._reference(subsets, points)
        for firsts, _ in blocks:
            last_row = int(np.count_nonzero(firsts == firsts[-1]))
            assert firsts.size - last_row < budget


class TestAverageSimilarities:
    def test_shared_estimators_identical_across_backends(self, collection) -> None:
        subset = list(range(60))
        python_backend = PythonBackend(collection, 0.5)
        numpy_backend = NumpyBackend(collection, 0.5)
        exact_python = python_backend.average_similarity_exact(subset)
        exact_numpy = numpy_backend.average_similarity_exact(subset)
        np.testing.assert_array_equal(exact_python, exact_numpy)
        sampled_python = python_backend.average_similarity_sampled(
            subset, 16, np.random.default_rng(5)
        )
        sampled_numpy = numpy_backend.average_similarity_sampled(
            subset, 16, np.random.default_rng(5)
        )
        np.testing.assert_array_equal(sampled_python, sampled_numpy)


class TestGroupRowsFirstOccurrence:
    def _reference(self, keys: np.ndarray, min_size: int) -> list:
        groups: dict = {}
        for row, key in enumerate(map(tuple, keys.tolist())):
            groups.setdefault(key, []).append(row)
        return [rows for rows in groups.values() if len(rows) >= min_size]

    def test_matches_insertion_ordered_dict_grouping(self) -> None:
        from repro.backend.kernels import group_rows_first_occurrence

        rng = np.random.default_rng(13)
        for columns in (1, 2, 4):
            keys = rng.integers(0, 5, size=(200, columns))
            for min_size in (1, 2, 3):
                expected = self._reference(keys, min_size)
                got = group_rows_first_occurrence(keys, min_size=min_size)
                assert [group.tolist() for group in got] == expected

    def test_empty_and_degenerate_inputs(self) -> None:
        from repro.backend.kernels import group_rows_first_occurrence

        assert group_rows_first_occurrence(np.zeros((0, 3), dtype=np.int64)) == []
        # Zero columns: every row shares the (empty) key.
        [only] = group_rows_first_occurrence(np.zeros((4, 0), dtype=np.int64), min_size=2)
        assert only.tolist() == [0, 1, 2, 3]
        assert group_rows_first_occurrence(np.zeros((1, 0), dtype=np.int64), min_size=2) == []
        with pytest.raises(ValueError):
            group_rows_first_occurrence(np.zeros(5, dtype=np.int64))
