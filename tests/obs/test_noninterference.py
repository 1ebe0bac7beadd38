"""Instrumentation must never change answers: pair-set parity obs on vs off.

The observability layer's hardest requirement: enabling tracing and metrics
may cost a little time but must not perturb the seeded randomness or any
control flow — the verified pair set stays bit-identical.  These tests run
the same seeded join with everything off, then with a metrics registry and
a recording tracer installed, and require identical pairs (and identical
deterministic counters) both times.
"""

from __future__ import annotations

import random

import pytest

from repro.join import similarity_join
from repro.obs import (
    MetricsRegistry,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    record_join_stats,
)
from repro.result import JoinStats


@pytest.fixture
def dataset():
    rng = random.Random(1234)
    universe = 60
    return [
        tuple(sorted(rng.sample(range(universe), rng.randint(3, 10))))
        for _ in range(80)
    ]


@pytest.fixture(autouse=True)
def clean_globals():
    disable_metrics()
    disable_tracing()
    yield
    disable_metrics()
    disable_tracing()


def _join_pairs(dataset, **options):
    result = similarity_join(dataset, 0.5, algorithm="cpsjoin", seed=99, **options)
    return result.pairs, result.stats


class TestPairSetParity:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_cpsjoin_identical_with_observability_enabled(self, dataset, backend) -> None:
        baseline_pairs, baseline_stats = _join_pairs(dataset, backend=backend)

        sink_records = []
        enable_tracing(sink_records.append)
        enable_metrics(MetricsRegistry())
        observed_pairs, observed_stats = _join_pairs(dataset, backend=backend)

        assert observed_pairs == baseline_pairs
        # The deterministic counters must match too: instrumentation that
        # consumed randomness or reordered work would shift them.
        assert observed_stats.pre_candidates == baseline_stats.pre_candidates
        assert observed_stats.candidates == baseline_stats.candidates
        assert observed_stats.results == baseline_stats.results
        # And the spans actually recorded the engine pipeline.
        names = {record["name"] for record in sink_records}
        assert {"engine.execute", "engine.filter", "engine.verify"} <= names

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_filter_span_reports_pairs_in(self, dataset, backend) -> None:
        sink_records = []
        enable_tracing(sink_records.append)
        _, stats = _join_pairs(dataset, backend=backend)
        filter_spans = [record for record in sink_records if record["name"] == "engine.filter"]
        assert filter_spans
        for record in filter_spans:
            extra = record["extra"]
            assert extra["tasks"] >= 1
            assert 0 <= extra["survivors"] <= extra["pairs_in"]
        # CPSJOIN emits subset and point tasks only: every expanded pair is
        # a pre-candidate and every survivor a candidate.
        assert sum(record["extra"]["pairs_in"] for record in filter_spans) == stats.pre_candidates
        assert sum(record["extra"]["survivors"] for record in filter_spans) == stats.candidates

    def test_threaded_executor_identical_with_observability_enabled(self, dataset) -> None:
        baseline_pairs, _ = _join_pairs(dataset, workers=2, executor="threads")
        enable_tracing(lambda record: None)
        enable_metrics(MetricsRegistry())
        observed_pairs, _ = _join_pairs(dataset, workers=2, executor="threads")
        assert observed_pairs == baseline_pairs

    def test_enabled_then_disabled_restores_baseline(self, dataset) -> None:
        enable_tracing(lambda record: None)
        enable_metrics(MetricsRegistry())
        during_pairs, _ = _join_pairs(dataset)
        disable_metrics()
        disable_tracing()
        after_pairs, _ = _join_pairs(dataset)
        assert during_pairs == after_pairs


class TestBridge:
    def test_disabled_registry_is_a_noop(self) -> None:
        record_join_stats(JoinStats(algorithm="cpsjoin", results=5))  # must not raise

    def test_join_stats_route_through_naming_scheme(self) -> None:
        registry = MetricsRegistry()
        stats = JoinStats(
            algorithm="cpsjoin",
            pre_candidates=100,
            candidates=40,
            verified=40,
            results=7,
            repetitions=10,
            elapsed_seconds=0.25,
            candidate_seconds=0.1,
            verify_seconds=0.05,
        )
        stats.add_extra("sketch hits", 12)
        stats.max_extra("max_depth", 3)
        stats.extra["weird-delta"] = -2.0
        record_join_stats(stats, registry)
        snapshot = registry.snapshot()

        def value(name):
            return snapshot[name]["series"][0]["value"]

        assert value("repro_join_runs_total") == 1
        assert value("repro_join_pre_candidates_total") == 100
        assert value("repro_join_candidate_seconds_total") == pytest.approx(0.1)
        # Dynamic extra keys are sanitized into the fixed naming scheme and
        # keep their merge semantics: counters sum, max_ extras take the max.
        assert value("repro_join_extra_sketch_hits_total") == 12
        assert snapshot["repro_join_extra_max_depth"]["type"] == "gauge"
        assert value("repro_join_extra_max_depth") == 3
        assert snapshot["repro_join_extra_weird_delta"]["type"] == "gauge"
        assert value("repro_join_extra_weird_delta") == -2.0
        assert snapshot["repro_join_elapsed_seconds"]["series"][0]["count"] == 1
        assert all(
            series["labels"].get("algorithm") == "cpsjoin"
            for family in snapshot.values()
            for series in family["series"]
        )

    def test_two_joins_accumulate_and_second_max_wins(self) -> None:
        registry = MetricsRegistry()
        first = JoinStats(algorithm="cpsjoin", results=3)
        first.max_extra("max_depth", 5)
        second = JoinStats(algorithm="cpsjoin", results=4)
        second.max_extra("max_depth", 2)
        record_join_stats(first, registry)
        record_join_stats(second, registry)
        snapshot = registry.snapshot()
        assert snapshot["repro_join_results_total"]["series"][0]["value"] == 7
        assert snapshot["repro_join_extra_max_depth"]["series"][0]["value"] == 5
        assert snapshot["repro_join_runs_total"]["series"][0]["value"] == 2
