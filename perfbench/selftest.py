"""Smoke-scale self-tests of the benchmark (not part of the library's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

Every workload runs on a small collection for about a second: the tests
check the output contract (every metric name of ``BENCHMARK.json`` with its
unit), that the output checks catch a wrong answer, and that the command
refuses to run without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from common import WORK_DIR, WORKLOADS, require_source  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE = ["--seconds", "1", "--scale", "0.3"]


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), *SMOKE],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return completed


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(workload["name"] for workload in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(workload, trace, section):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def _smoke(name: str):
    return replace(WORKLOADS[name], scale=0.3)


@pytest.fixture
def work():
    """Scratch directory inside the checkout (the benchmark writes nowhere else)."""
    path = WORK_DIR / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_join_counters_repeat_across_runs_at_one_seed(work):
    require_source()
    first = run.run_join(_smoke("join-uniform"), 5, 0.5, False, work)
    second = run.run_join(_smoke("join-uniform"), 5, 0.5, False, work)
    keys = ("digest", "results", "pre_candidates", "candidates", "verified", "tree_nodes")
    assert [first.worker["iterations"][0][key] for key in keys] == \
        [second.worker["iterations"][0][key] for key in keys]


def test_dropping_one_reported_pair_fails_the_join_check(work):
    require_source()
    joined = run.run_join(_smoke("join-uniform"), 5, 0.5, False, work)
    assert run.check_join(joined) == []
    assert joined.worker["iterations"][0]["pairs"], "smoke collection produced no pairs"
    joined.worker["iterations"][0]["pairs"].pop()
    assert run.check_join(joined)


def test_a_pair_below_the_threshold_fails_the_join_check(work):
    require_source()
    joined = run.run_join(_smoke("join-uniform"), 5, 0.5, False, work)
    records = joined.records
    first = next(index for index in range(1, len(records))
                 if run.jaccard(records[0], records[index]) < run.THRESHOLD)
    joined.worker["iterations"][0]["pairs"][-1] = [0, first]
    assert run.check_join(joined)


def test_corrupting_one_served_answer_fails_the_serve_check(work):
    require_source()
    served = run.run_serve(_smoke("serve-mixed"), 5, 1.0, False, work)
    assert run.check_serve(served) == []
    query = next(outcome for outcome in served.outcomes
                 if outcome.op == "query" and outcome.ok and outcome.response["result"]["matches"])
    query.response["result"]["matches"][0][1] -= 0.125
    assert run.check_serve(served)


def test_command_fails_without_the_library(work):
    shutil.copy(ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, work / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = _run("join-uniform", 0, cwd=work)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
