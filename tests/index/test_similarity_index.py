"""Tests for the build-once/query-many SimilarityIndex."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.index import SimilarityIndex
from repro.join import similarity_join
from repro.result import canonical_pair


@pytest.fixture(scope="module")
def random_records():
    rng = np.random.default_rng(77)
    records = [
        tuple(sorted(rng.choice(400, size=int(rng.integers(4, 20)), replace=False).tolist()))
        for _ in range(250)
    ]
    # Plant near-duplicates so qualifying pairs exist.
    for index in range(0, 40, 4):
        base = list(records[index])
        base[-1] = 399 if base[-1] != 399 else 398
        records.append(tuple(sorted(set(base))))
    return records


class TestConstruction:
    def test_invalid_threshold(self) -> None:
        with pytest.raises(ValueError):
            SimilarityIndex(0.0)
        with pytest.raises(ValueError):
            SimilarityIndex(1.5)

    def test_threshold_one_is_exact_duplicate_lookup(self) -> None:
        index = SimilarityIndex.build([(1, 2, 3), (4, 5), (1, 2, 3)], 1.0, backend="numpy")
        assert index.query((1, 2, 3), exclude=0) == [(2, 1.0)]
        assert index.query((4, 5, 6)) == []

    def test_invalid_candidates(self) -> None:
        with pytest.raises(ValueError):
            SimilarityIndex(0.5, candidates="magic")

    def test_invalid_backend(self) -> None:
        with pytest.raises(ValueError):
            SimilarityIndex(0.5, backend="cuda")

    def test_invalid_batch_size(self) -> None:
        with pytest.raises(ValueError):
            SimilarityIndex(0.5, batch_size=0)

    def test_empty_record_rejected(self) -> None:
        index = SimilarityIndex(0.5)
        with pytest.raises(ValueError):
            index.insert([])
        index.insert([1, 2, 3])
        with pytest.raises(ValueError):
            index.query([])

    def test_exact_mode_disables_sketches_by_default(self) -> None:
        assert SimilarityIndex(0.5).use_sketches is False
        assert SimilarityIndex(0.5, candidates="lsh").use_sketches is True
        assert SimilarityIndex(0.5, use_sketches=True).use_sketches is True


class TestBasicSemantics:
    def test_out_of_range_token_rejected_before_any_mutation(self) -> None:
        # int64 is the token storage; an oversized token must fail the
        # insert atomically (no record id consumed, no half-grown CSR).
        index = SimilarityIndex(0.5, backend="numpy")
        index.insert((1, 2, 3))
        for bad in ((2**70,), (1, 2, 2**63), (-(2**63) - 1, 5)):
            with pytest.raises(ValueError, match="64-bit"):
                index.insert(bad)
            with pytest.raises(ValueError, match="64-bit"):
                index.query(bad)
        assert len(index) == 1
        assert index.insert((4, 5, 6)) == 1  # ids still contiguous
        assert index.query((1, 2, 3))[0] == (0, 1.0)

    @pytest.mark.parametrize(
        "options",
        [
            {"use_sketches": True},
            {"candidates": "chosenpath"},
            {"candidates": "lsh"},
            {"candidates": "lsh", "use_sketches": False},
        ],
    )
    def test_unhashable_token_rejected_before_any_mutation(self, tiny_records, options) -> None:
        # These tokens fit int64 storage but are no 32-bit tabulation keys:
        # the insert fails while hashing, before any structure is touched.
        index = SimilarityIndex.build(tiny_records, 0.5, backend="numpy", seed=5, **options)
        before = index.query_batch(tiny_records)
        for bad in ((1, 2**40), (-1, 2), (2**32,)):
            with pytest.raises(ValueError, match="32-bit tabulation key"):
                index.insert(bad)
        if index.use_sketches:
            with pytest.raises(ValueError, match="32-bit tabulation key"):
                index.insert_all([(7, 8, 9), (1, 2**40)])
        assert len(index) == len(tiny_records)
        assert index.query_batch(tiny_records) == before
        assert index.insert((1, 2, 3, 4)) == len(tiny_records)  # ids still contiguous
        assert index.query((1, 2, 3, 4), exclude=0)[0] == (len(tiny_records), 1.0)

    def test_chosen_path_without_sketches_accepts_negative_tokens(self) -> None:
        # No MinHash runs here; the tree hashes take any int64 token,
        # negative ones included.
        index = SimilarityIndex(0.5, candidates="chosenpath", use_sketches=False, seed=5)
        assert index.insert((-3, 1, 2)) == 0
        assert index.query((-3, 1, 2))[0] == (0, 1.0)

    def test_insert_returns_sequential_ids(self) -> None:
        index = SimilarityIndex(0.5)
        assert index.insert([1, 2, 3]) == 0
        assert index.insert([4, 5, 6]) == 1
        assert len(index) == 2
        assert index.record(0) == (1, 2, 3)

    def test_record_normalization(self) -> None:
        index = SimilarityIndex(0.5)
        index.insert([3, 1, 2, 2, 3])
        assert index.record(0) == (1, 2, 3)

    def test_query_finds_similar_records(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        matches = index.query((1, 2, 3, 4), exclude=0)
        ids = [record_id for record_id, _ in matches]
        assert ids == [4, 1]  # (0,4)=0.8 before (0,1)=0.6
        similarities = [similarity for _, similarity in matches]
        assert similarities == sorted(similarities, reverse=True)

    def test_query_without_exclude_reports_self(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        matches = index.query((1, 2, 3, 4))
        assert matches[0] == (0, 1.0)

    def test_exclude_ids_validated(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        with pytest.raises(ValueError):
            index.query_batch(tiny_records, exclude_ids=[0])

    def test_batch_size_batches_do_not_change_results(self, random_records) -> None:
        big = SimilarityIndex.build(random_records, 0.5, batch_size=4096)
        small = SimilarityIndex.build(random_records, 0.5, batch_size=7)
        assert big.query_batch(random_records[:40]) == small.query_batch(random_records[:40])

    def test_stats_accumulate(self, tiny_records) -> None:
        index = SimilarityIndex.build(tiny_records, 0.5)
        index.query_batch(tiny_records)
        stats = index.stats
        assert stats.index_build_seconds > 0.0
        assert stats.extra["queries"] == len(tiny_records)
        assert stats.pre_candidates >= stats.candidates
        assert stats.candidates == stats.verified


class TestExactEquivalence:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_self_join_matches_allpairs(self, random_records, backend) -> None:
        truth = similarity_join(random_records, 0.5, algorithm="allpairs").pairs
        index = SimilarityIndex.build(random_records, 0.5, backend=backend)
        assert index.self_join_pairs() == truth

    def test_backends_agree_exactly(self, random_records) -> None:
        python_index = SimilarityIndex.build(random_records, 0.5, backend="python")
        numpy_index = SimilarityIndex.build(random_records, 0.5, backend="numpy")
        queries = random_records[:60]
        assert python_index.query_batch(queries) == numpy_index.query_batch(queries)
        for first, second in zip((python_index.stats,), (numpy_index.stats,)):
            assert (first.pre_candidates, first.candidates, first.verified) == (
                second.pre_candidates,
                second.candidates,
                second.verified,
            )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_incremental_build_equals_bulk_build(self, random_records, backend) -> None:
        bulk = SimilarityIndex.build(random_records, 0.5, backend=backend, seed=9)
        incremental = SimilarityIndex.build(random_records[:100], 0.5, backend=backend, seed=9)
        for record in random_records[100:]:
            incremental.insert(record)
        assert incremental.self_join_pairs() == bulk.self_join_pairs()
        assert incremental.query_batch(random_records[:30]) == bulk.query_batch(random_records[:30])

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_interleaved_inserts_match_fresh_build_under_executors(
        self, random_records, executor
    ) -> None:
        # The serving satellite's contract: querying, then inserting N
        # records, then querying again must answer exactly like a fresh
        # build over the grown collection — including on the parallel
        # executors, whose cached process pool holds a pickled snapshot of
        # the index and must be invalidated by every insert.
        base, extra = random_records[:200], random_records[200:]
        queries = random_records[:60]
        grown = SimilarityIndex.build(
            base, 0.5, backend="numpy", seed=9, workers=2, executor=executor, batch_size=32
        )
        try:
            grown.query_batch(queries)  # populate (and for processes, cache) the pool
            for record in extra:
                grown.insert(record)
            fresh = SimilarityIndex.build(
                list(base) + list(extra),
                0.5,
                backend="numpy",
                seed=9,
                workers=2,
                executor=executor,
                batch_size=32,
            )
            try:
                assert grown.query_batch(queries) == fresh.query_batch(queries)
            finally:
                fresh.close()
        finally:
            grown.close()

    def test_queries_against_grown_index(self, random_records) -> None:
        split = 150
        index = SimilarityIndex.build(random_records[:split], 0.5, backend="numpy")
        streamed = set()
        for record in random_records[split:]:
            for match_id, _ in index.query(record):
                streamed.add(canonical_pair(len(index), match_id))
            index.insert(record)
        truth = similarity_join(random_records, 0.5, algorithm="allpairs").pairs
        expected = {pair for pair in truth if pair[1] >= split}
        assert streamed == expected


class TestApproximateModes:
    @pytest.mark.parametrize("mode", ["chosenpath", "lsh"])
    def test_subset_of_exact_with_high_recall(self, random_records, mode) -> None:
        truth = similarity_join(random_records, 0.5, algorithm="allpairs").pairs
        index = SimilarityIndex.build(random_records, 0.5, candidates=mode, seed=3)
        pairs = index.self_join_pairs()
        assert pairs <= truth
        if truth:
            assert len(pairs) / len(truth) >= 0.8

    def test_sketch_filter_used_in_approximate_modes(self, random_records) -> None:
        index = SimilarityIndex.build(random_records[:50], 0.5, candidates="lsh", seed=3)
        assert index.use_sketches
        index.query(random_records[0])
        assert index.stats.filter_seconds >= 0.0


class TestHistoryFree:
    """An index is a pure function of its settings and its records in order."""

    @pytest.mark.parametrize("mode", ["exact", "chosenpath", "lsh"])
    def test_grown_with_interleaved_queries_equals_one_shot_build(
        self, random_records, mode
    ) -> None:
        first, later = random_records[:130], random_records[130:]
        # Queries of records the collection never holds, in another order.
        others = [tuple(token ^ 1 for token in record) for record in reversed(random_records)]
        grown = SimilarityIndex.build(first, 0.5, candidates=mode, seed=7)
        grown.query_batch(others)
        for record, other in zip(later, others):
            grown.query(other)
            grown.insert(record)
        one_shot = SimilarityIndex.build(random_records, 0.5, candidates=mode, seed=7)
        for record in random_records:
            assert np.array_equal(grown._candidate_ids(record), one_shot._candidate_ids(record))
        assert grown.query_batch(random_records) == one_shot.query_batch(random_records)

    def test_queries_leave_the_chosen_path_forest_unchanged(self, random_records) -> None:
        index = SimilarityIndex.build(random_records[:100], 0.5, candidates="chosenpath", seed=7)
        before = pickle.dumps(index._chosen_path)
        index.query_batch(random_records)
        assert pickle.dumps(index._chosen_path) == before


class TestSketchParity:
    def test_incremental_sketches_match_bulk_build(self, random_records) -> None:
        """The index's per-record sketches are bit-identical to build_sketches."""
        from repro.hashing.minhash import MinHasher
        from repro.hashing.sketch import build_sketches

        records = random_records[:40]
        signatures = MinHasher(num_functions=64, seed=123).signatures(records)
        bulk = build_sketches(signatures.matrix, num_words=4, seed=123 + 0x5EED)
        options = dict(use_sketches=True, embedding_size=64, sketch_words=4, seed=123)
        one_shot = SimilarityIndex.build(records, 0.5, **options)
        grown = SimilarityIndex.build(records[:17], 0.5, **options)
        for record in records[17:]:
            grown.insert(record)
        assert np.array_equal(one_shot._sketch_words_array[:40], bulk.words)
        assert np.array_equal(grown._sketch_words_array[:40], bulk.words)


class TestPersistence:
    def test_pickle_roundtrip(self, random_records) -> None:
        index = SimilarityIndex.build(random_records, 0.5, backend="numpy", seed=4)
        restored = pickle.loads(pickle.dumps(index))
        assert len(restored) == len(index)
        assert restored.query_batch(random_records[:20]) == index.query_batch(random_records[:20])
        # The restored index keeps growing incrementally.
        new_id = restored.insert(random_records[0])
        matches = restored.query(random_records[0], exclude=new_id)
        assert any(similarity == 1.0 for _, similarity in matches)


class TestStageTimings:
    def test_query_timings_cover_elapsed(self, random_records) -> None:
        import time

        index = SimilarityIndex.build(random_records, 0.5, backend="numpy")
        started = time.perf_counter()
        index.query_batch(random_records)
        elapsed = time.perf_counter() - started
        stats = index.stats
        staged = stats.candidate_seconds + stats.filter_seconds + stats.verify_seconds
        assert 0.0 < staged <= elapsed * 1.05 + 0.05
