"""Tests for the BRUTEFORCE subroutines (Algorithm 2).

BRUTEFORCEPAIRS and BRUTEFORCEPOINT are the engine's
:class:`~repro.engine.SubsetCandidates` and
:class:`~repro.engine.PointCandidates` tasks run through
:meth:`repro.engine.JoinEngine.execute`; the average-similarity estimate of
the adaptive rule is :meth:`repro.backend.ExecutionBackend.average_similarities`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.preprocess import preprocess_collection
from repro.engine import CandidateStage, JoinEngine, PointCandidates, SubsetCandidates
from repro.exact.naive import naive_join
from repro.result import JoinStats


class _ListStage(CandidateStage):
    def __init__(self, task_list):
        self.task_list = task_list

    def tasks(self):
        yield from self.task_list


def make_engine(records, threshold=0.5, use_sketches=True, seed=0, sides=None):
    collection = preprocess_collection(records, seed=seed, sides=sides)
    return collection, JoinEngine(collection, threshold, use_sketches=use_sketches)


def brute_force(engine, *tasks):
    """Run tasks through the engine; returns ``(pairs, stats)``."""
    stats = JoinStats(threshold=engine.threshold, num_records=engine.collection.num_records)
    return engine.execute(_ListStage(list(tasks)), stats), stats


def everything(records):
    return SubsetCandidates(tuple(range(len(records))))


class TestBruteForcePairs:
    def test_finds_exact_join_without_sketches(self, tiny_records, tiny_truth_05) -> None:
        _, engine = make_engine(tiny_records, use_sketches=False)
        output, _ = brute_force(engine, everything(tiny_records))
        assert output == tiny_truth_05

    def test_with_sketches_high_recall_perfect_precision(self, uniform_dataset) -> None:
        records = uniform_dataset.records
        truth = naive_join(records, 0.5).pairs
        assert truth, "fixture must contain qualifying pairs"
        _, engine = make_engine(records, threshold=0.5, use_sketches=True)
        output, _ = brute_force(engine, everything(records))
        assert output <= truth  # precision 1.0 by construction
        assert len(output & truth) / len(truth) >= 0.9

    def test_empty_and_singleton_subsets(self, tiny_records) -> None:
        _, engine = make_engine(tiny_records)
        output, stats = brute_force(engine, SubsetCandidates(()), SubsetCandidates((2,)))
        assert output == set()
        assert stats.pre_candidates == 0
        assert stats.candidates == stats.verified == 0

    def test_side_mask_skips_same_side_pairs(self, tiny_records, tiny_truth_05) -> None:
        sides = [index % 2 for index in range(len(tiny_records))]
        _, engine = make_engine(tiny_records, use_sketches=False, sides=sides)
        output, stats = brute_force(engine, everything(tiny_records))
        cross = sum(
            1
            for first in range(len(sides))
            for second in range(first + 1, len(sides))
            if sides[first] != sides[second]
        )
        assert stats.pre_candidates == cross
        assert output == {pair for pair in tiny_truth_05 if sides[pair[0]] != sides[pair[1]]}


class TestBruteForcePoint:
    def test_reports_pairs_involving_the_point(self, tiny_records) -> None:
        _, engine = make_engine(tiny_records, use_sketches=False)
        others = tuple(range(1, len(tiny_records)))
        output, _ = brute_force(engine, PointCandidates(0, others))
        assert output == {(0, 1), (0, 4)}

    def test_point_not_compared_to_itself(self, tiny_records) -> None:
        _, engine = make_engine(tiny_records, use_sketches=False)
        output, stats = brute_force(engine, PointCandidates(0, ()))
        assert output == set()
        assert stats.pre_candidates == 0

    def test_size_filter_skips_incompatible_pairs(self) -> None:
        # Record 0 has 2 tokens, record 1 has 40: their Jaccard cannot reach 0.5,
        # so no exact verification should happen for the pair.
        records = [(1, 2), tuple(range(100, 140))]
        _, engine = make_engine(records, threshold=0.5, use_sketches=False)
        _, stats = brute_force(engine, PointCandidates(0, (1,)))
        assert stats.pre_candidates == 1
        assert stats.verified == 0

    def test_side_mask_skips_same_side_others(self, tiny_records) -> None:
        sides = [index % 2 for index in range(len(tiny_records))]
        _, engine = make_engine(tiny_records, use_sketches=False, sides=sides)
        others = tuple(range(1, len(tiny_records)))
        output, stats = brute_force(engine, PointCandidates(0, others))
        assert stats.pre_candidates == sum(1 for other in others if sides[other] != sides[0])
        assert output == {(0, 1)}


class TestStatisticsCounting:
    def test_pre_candidates_count_every_considered_pair(self, tiny_records) -> None:
        _, engine = make_engine(tiny_records, use_sketches=False)
        _, stats = brute_force(engine, everything(tiny_records))
        n = len(tiny_records)
        assert stats.pre_candidates == n * (n - 1) // 2
        assert stats.candidates <= stats.pre_candidates
        assert stats.verified == stats.candidates

    def test_sketch_filter_reduces_candidates(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        _, engine_with = make_engine(records, use_sketches=True)
        _, engine_without = make_engine(records, use_sketches=False)
        _, stats_with = brute_force(engine_with, everything(records))
        _, stats_without = brute_force(engine_without, everything(records))
        assert stats_with.candidates < stats_without.candidates
        # Without sketches every size-compatible pair is verified exactly.
        assert stats_without.pre_candidates == stats_with.pre_candidates


class TestAverageSimilarities:
    def test_exact_method_matches_definition(self) -> None:
        # Verify the token-count implementation against a direct computation
        # of the average Braun–Blanquet similarity over the embedded sets.
        records = [(1, 2, 3, 4), (2, 3, 4, 5), (100, 200, 300, 400)]
        collection, engine = make_engine(records)
        subset = [0, 1, 2]
        averages = engine.backend.average_similarities(subset, "tokens", np.random.default_rng(0))

        matrix = collection.signatures.matrix
        expected = []
        for i in subset:
            total = 0.0
            for j in subset:
                if i == j:
                    continue
                total += np.count_nonzero(matrix[i] == matrix[j]) / matrix.shape[1]
            expected.append(total / (len(subset) - 1))
        assert np.allclose(averages, expected)

    def test_sampled_method_close_to_exact(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:120]
        _, engine = make_engine(records, seed=5)
        subset = list(range(len(records)))
        rng = np.random.default_rng(5)
        exact = engine.backend.average_similarities(subset, "tokens", rng)
        sampled = engine.backend.average_similarities(subset, "sketches", rng, sample_size=64)
        # Both estimate the same quantity; on average they should agree within
        # a modest tolerance.
        assert abs(float(np.mean(exact)) - float(np.mean(sampled))) < 0.12

    def test_high_similarity_records_detected(self) -> None:
        # A cluster of near-identical records plus a few distant ones: the
        # cluster members must have much higher average similarity.
        cluster = [tuple(range(0, 30)), tuple(range(0, 29)) + (40,), tuple(range(1, 31))]
        noise = [tuple(range(100 * i, 100 * i + 30)) for i in range(2, 6)]
        records = cluster + noise
        _, engine = make_engine(records, seed=3)
        averages = engine.backend.average_similarities(
            list(range(len(records))), "tokens", np.random.default_rng(3)
        )
        assert min(averages[:3]) > max(averages[3:])

    def test_small_subsets_return_zero(self, tiny_records) -> None:
        _, engine = make_engine(tiny_records)
        rng = np.random.default_rng(0)
        assert engine.backend.average_similarities([0], "sketches", rng).tolist() == [0.0]
        assert engine.backend.average_similarities([], "sketches", rng).tolist() == []

    def test_unknown_method_rejected(self, tiny_records) -> None:
        _, engine = make_engine(tiny_records)
        with pytest.raises(ValueError):
            engine.backend.average_similarities([0, 1], "bogus", np.random.default_rng(0))


class TestValidation:
    def test_invalid_threshold(self, tiny_records) -> None:
        collection = preprocess_collection(tiny_records, seed=0)
        with pytest.raises(ValueError):
            JoinEngine(collection, 0.0)
