"""Determinism and timing tests for the parallel repetition engine.

The repetitions of CPSJOIN derive their randomness only from the seed and
the repetition index, so running them on 1 or 4 workers must produce the
identical merged result — pairs and statistics alike.  Timing is reported
honestly: ``elapsed_seconds`` is the engine's wall clock while
``worker_seconds`` sums the per-repetition times.
"""

from __future__ import annotations

import pytest

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin, cpsjoin
from repro.core.preprocess import preprocess_collection
from repro.core.repetition import RepetitionEngine
from repro.exact.naive import naive_join
from repro.join import similarity_join


def _signature(result):
    stats = result.stats
    return (
        frozenset(result.pairs),
        stats.pre_candidates,
        stats.candidates,
        stats.verified,
        stats.results,
        stats.repetitions,
    )


class TestWorkerDeterminism:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_one_vs_four_workers_identical(self, uniform_dataset, backend) -> None:
        records = uniform_dataset.records[:250]
        base = CPSJoinConfig(seed=21, repetitions=8, backend=backend)
        sequential = cpsjoin(records, 0.5, base.with_overrides(workers=1))
        parallel = cpsjoin(records, 0.5, base.with_overrides(workers=4))
        assert _signature(parallel) == _signature(sequential)

    def test_workers_kwarg_through_public_api(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:150]
        sequential = similarity_join(records, 0.5, seed=3, workers=1)
        parallel = similarity_join(records, 0.5, seed=3, workers=4)
        assert frozenset(parallel.pairs) == frozenset(sequential.pairs)

    def test_engine_run_fixed_matches_driver(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        config = CPSJoinConfig(seed=9, repetitions=5)
        engine = CPSJoin(0.5, config)
        collection = preprocess_collection(records, seed=9)
        sequential = RepetitionEngine(engine, collection, workers=1).run_fixed(5)
        parallel = RepetitionEngine(engine, collection, workers=4).run_fixed(5)
        assert _signature(parallel) == _signature(sequential)

    def test_run_until_recall_deterministic_across_workers(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:200]
        truth = naive_join(records, 0.5).pairs
        config = CPSJoinConfig(seed=13)
        engine = CPSJoin(0.5, config)
        collection = preprocess_collection(records, seed=13)
        sequential = RepetitionEngine(engine, collection, workers=1).run_until_recall(
            truth, target_recall=0.9, max_repetitions=20
        )
        parallel = RepetitionEngine(engine, collection, workers=4).run_until_recall(
            truth, target_recall=0.9, max_repetitions=20
        )
        assert _signature(parallel) == _signature(sequential)


class TestTimingAggregation:
    def test_wall_clock_and_worker_time_reported_separately(self, uniform_dataset) -> None:
        records = uniform_dataset.records[:250]
        result = cpsjoin(records, 0.5, CPSJoinConfig(seed=5, repetitions=6))
        stats = result.stats
        assert stats.worker_seconds > 0.0
        assert stats.elapsed_seconds > 0.0
        # Sequentially the wall clock dominates the summed worker time (it
        # includes merge overhead); it must never be wildly below it.
        assert stats.elapsed_seconds >= stats.worker_seconds * 0.5

    def test_parallel_wall_clock_not_a_sum(self, uniform_dataset) -> None:
        # With workers > 1 the old behaviour (elapsed = sum of run times)
        # would overstate the join time; elapsed must stay a wall clock.
        records = uniform_dataset.records[:250]
        result = cpsjoin(records, 0.5, CPSJoinConfig(seed=5, repetitions=6, workers=4))
        stats = result.stats
        assert stats.worker_seconds > 0.0
        # Wall clock can be below the summed worker time (that is the point
        # of parallelism) but is never more than a small factor above it.
        assert stats.elapsed_seconds <= stats.worker_seconds * 3.0 + 0.5


class TestValidation:
    def test_zero_workers_rejected(self) -> None:
        with pytest.raises(ValueError):
            CPSJoinConfig(workers=0)

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(ValueError):
            CPSJoinConfig(backend="cython")
