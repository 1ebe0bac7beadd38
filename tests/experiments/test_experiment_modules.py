"""Tests for the experiment harness modules (smoke + structural checks).

Each experiment module is exercised on very small surrogates to keep the test
suite fast; the benchmark suite runs them at the reporting scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ablation_sketches,
    ablation_stopping,
    figure2,
    figure3,
    rs_bench,
    table1,
    table2,
    table4,
    tokens_scaling,
)
from repro.experiments.common import ALL_DATASET_NAMES, format_table, load_datasets, make_parser


class TestCommon:
    def test_all_dataset_names_cover_table1(self) -> None:
        assert len(ALL_DATASET_NAMES) == 14
        assert "TOKENS20K" in ALL_DATASET_NAMES

    def test_load_datasets_subset(self) -> None:
        datasets = load_datasets(["DBLP", "AOL"], scale=0.08, seed=1)
        assert set(datasets) == {"DBLP", "AOL"}

    def test_format_table(self) -> None:
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_empty(self) -> None:
        assert format_table([]) == "(no rows)"

    def test_parser_defaults(self) -> None:
        parser = make_parser("test")
        args = parser.parse_args([])
        assert args.seed == 42
        assert args.datasets is None


class TestTable1:
    def test_rows_have_paper_and_surrogate_columns(self) -> None:
        rows = table1.run(names=["DBLP", "TOKENS10K"], scale=0.08, seed=2)
        assert len(rows) == 2
        for row in rows:
            assert {"dataset", "paper_avg_set_size", "surrogate_sets", "surrogate_avg_set_size"} <= set(row)

    def test_paper_statistics_match_table1(self) -> None:
        rows = {row["dataset"]: row for row in table1.run(names=["NETFLIX", "AOL"], scale=0.08, seed=3)}
        assert rows["NETFLIX"]["paper_avg_set_size"] == 209.8
        assert rows["NETFLIX"]["paper_sets_per_token"] == 5654.4
        assert rows["AOL"]["paper_sets_millions"] == 7.35


class TestTable2:
    def test_row_structure(self) -> None:
        rows = table2.run(names=["UNIFORM005"], thresholds=(0.7,), scale=0.08, seed=4)
        assert len(rows) == 1
        row = rows[0]
        assert {"dataset", "threshold", "CP_seconds", "MH_seconds", "ALL_seconds", "CP_recall"} <= set(row)
        assert row["CP_recall"] >= 0.9 or row["results"] == 0

    def test_multiple_thresholds(self) -> None:
        rows = table2.run(names=["UNIFORM005"], thresholds=(0.5, 0.8), scale=0.08, seed=5)
        assert [row["threshold"] for row in rows] == [0.5, 0.8]


class TestFigure2:
    def test_speedup_columns(self) -> None:
        rows = figure2.run(names=["UNIFORM005"], thresholds=(0.5, 0.7), scale=0.08, seed=6)
        assert len(rows) == 1
        assert {"speedup@0.5", "speedup@0.7"} <= set(rows[0])
        assert rows[0]["speedup@0.5"] > 0


class TestFigure3:
    def test_sweep_limit_relative_to_index(self) -> None:
        rows = figure3.sweep_limit(names=["UNIFORM005"], scale=0.08, seed=7, values=(10, 250))
        assert len(rows) == 1
        assert rows[0]["limit=250"] == pytest.approx(1.0)

    def test_sweep_epsilon(self) -> None:
        rows = figure3.sweep_epsilon(names=["UNIFORM005"], scale=0.08, seed=8, values=(0.0, 0.1))
        assert rows[0]["epsilon=0.1"] == pytest.approx(1.0)

    def test_sweep_sketch_words(self) -> None:
        rows = figure3.sweep_sketch_words(names=["UNIFORM005"], scale=0.08, seed=9, values=(1, 8))
        assert rows[0]["sketch_words=8"] == pytest.approx(1.0)

    def test_run_returns_all_three_figures(self) -> None:
        results = figure3.run(names=["UNIFORM005"], scale=0.06, seed=10)
        assert set(results) == {"3a", "3b", "3c"}


class TestTable4:
    def test_counts_ordered(self) -> None:
        rows = table4.run(names=["UNIFORM005"], thresholds=(0.5,), scale=0.08, seed=11)
        assert len(rows) == 2  # one row for ALL, one for CP
        for row in rows:
            assert row["candidates"] <= row["pre_candidates"]
            assert row["results"] <= max(row["candidates"], row["results"])

    def test_both_algorithms_present(self) -> None:
        rows = table4.run(names=["UNIFORM005"], thresholds=(0.5,), scale=0.08, seed=12)
        assert {row["algorithm"] for row in rows} == {"ALL", "CP"}


class TestTokensScaling:
    def test_rows_for_each_tokens_dataset(self) -> None:
        rows = tokens_scaling.run(thresholds=(0.7,), scale=0.15, seed=13)
        assert [row["dataset"] for row in rows] == ["TOKENS10K", "TOKENS15K", "TOKENS20K"]
        for row in rows:
            assert row["speedup@0.7"] > 0


class TestRSBench:
    def test_native_path_reduces_verification(self) -> None:
        rows = rs_bench.run(scale=0.08, seed=16, trials=1, repetitions=2)
        assert {row["backend"] for row in rows} == {"python", "numpy"}
        for row in rows:
            # The run itself asserts identical pair sets and zero same-side
            # verified pairs; the rows must show the strict reduction.
            assert row["native_verified"] < row["fallback_verified"]
            assert row["verified_reduction"] > 1.0

    def test_workload_plants_duplicates_on_both_sides(self) -> None:
        left, right = rs_bench.make_rs_workload(scale=0.05, seed=17)
        planted = max(1, int(len(left) * 0.05))
        assert right[-planted:] == left[:planted]


class TestAblations:
    def test_stopping_strategies_all_present(self) -> None:
        rows = ablation_stopping.run(names=["UNIFORM005"], scale=0.08, seed=14, repetitions=2)
        assert {row["strategy"] for row in rows} == {"adaptive", "individual", "global"}

    def test_sketch_ablation_rows(self) -> None:
        rows = ablation_sketches.run(names=["UNIFORM005"], scale=0.08, seed=15)
        assert {row["sketch_filter"] for row in rows} == {"on", "off"}
        by_mode = {row["sketch_filter"]: row for row in rows}
        # Disabling the sketch filter can only increase exact verifications.
        assert by_mode["off"]["exact_verifications"] >= by_mode["on"]["exact_verifications"]
