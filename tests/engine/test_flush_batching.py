"""Parity and memory-bound tests for the flush-batched filter.

The engine expands each flush of candidate tasks into flat pair blocks and
filters every block with one ``filter_pairs`` call.  These tests feed mixes
of every task shape through :class:`JoinEngine` and compare the filter
survivors, the counters and the result pairs against a per-pair reference
written out here, independent of the expansion kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend
from repro.core.preprocess import preprocess_collection
from repro.engine import (
    CandidateStage,
    JoinEngine,
    PairCandidates,
    PointCandidates,
    SketchFilterStage,
    SubsetCandidates,
)
from repro.result import JoinStats, canonical_pair
from repro.similarity.measures import get_measure

THRESHOLD = 0.5
NUM_RECORDS = 700
# Subset sizes span the old scalar (≤ 12) and block-row (512) limits.
SUBSET_SIZES = (0, 1, 2, 3, 12, 13, 40, 600)
WEIGHTS = {token: 0.5 + (token % 4) * 0.25 for token in range(200)}


class _ListStage(CandidateStage):
    def __init__(self, task_list):
        self.task_list = task_list

    def tasks(self):
        yield from self.task_list


class _RecordingFilter(SketchFilterStage):
    """The default filter stage, recording every block it is handed."""

    def __init__(self, stage: SketchFilterStage) -> None:
        super().__init__(stage.backend, stage.use_sketches, stage.sketch_cutoff)
        self.block_sizes = []
        self.blocks = []
        self.survivors = []

    def filter_pairs(self, firsts, seconds):
        self.block_sizes.append(int(firsts.size))
        self.blocks.append((firsts.copy(), seconds.copy()))
        firsts, seconds = super().filter_pairs(firsts, seconds)
        self.survivors.extend(zip(firsts.tolist(), seconds.tolist()))
        return firsts, seconds


@pytest.fixture(scope="module")
def records():
    # Widely spread set sizes (so the size probe prunes), and every fifth
    # record a perturbed copy of its predecessor (so results exist).
    rng = np.random.default_rng(23)
    records = []
    for index in range(NUM_RECORDS):
        if index % 5 == 4:
            kept = list(records[-1][1:])
            tokens = set(kept) | {int(rng.integers(200))}
        else:
            tokens = set(rng.choice(200, size=int(rng.integers(3, 40)), replace=False).tolist())
        records.append(tuple(sorted(tokens)))
    return records


@pytest.fixture(scope="module")
def collections(records):
    sides = (np.arange(len(records)) % 3 == 0).astype(np.int8)
    return {
        "self": preprocess_collection(records, seed=5),
        "rs": preprocess_collection(records, seed=5, sides=sides),
    }


def _task_mix(num_records):
    rng = np.random.default_rng(2024)
    tasks = []
    for position, size in enumerate(SUBSET_SIZES):
        subset = rng.choice(num_records, size=size, replace=False)
        # Alternate scalar-walk tuples and frontier-style index arrays.
        tasks.append(SubsetCandidates(tuple(subset.tolist()) if position % 2 else subset))
    for size in (0, 5, 300):
        others = rng.choice(num_records, size=size, replace=False)
        anchor = int(rng.integers(num_records))
        others = others[others != anchor]
        tasks.append(PointCandidates(anchor, others if size % 2 else tuple(others.tolist())))
    raw = [tuple(int(v) for v in rng.choice(num_records, size=2, replace=False)) for _ in range(400)]
    # Repeats and reversed orientations, across two streams.
    tasks.append(PairCandidates(tuple(raw[:250])))
    tasks.append(PairCandidates(tuple((b, a) for a, b in raw[150:])))
    # Interleave shapes so every flush mixes them.
    order = np.random.default_rng(7).permutation(len(tasks))
    return [tasks[index] for index in order]


def _reference(collection, engine, tasks):
    """Per-pair reference: side mask, scalar size probe, bit-count sketch test.

    Survivors are verified with the numpy block verifier (its parity with the
    scalar verifier is covered in ``tests/backend``); only the filter side is
    re-derived here.
    """
    sides = collection.sides
    sizes = engine.backend.measure_sizes.tolist()
    sketch_ints = collection.sketch_bigints()
    num_bits = collection.sketches.num_bits
    measure = engine.measure

    def passes(first, second):
        if not measure.size_compatible_one(sizes[first], sizes[second], THRESHOLD):
            return False
        if not engine.use_sketches:
            return True
        distance = (sketch_ints[first] ^ sketch_ints[second]).bit_count()
        return 1.0 - 2.0 * distance / num_bits >= engine.sketch_cutoff

    def cross(first, second):
        return sides is None or sides[first] != sides[second]

    pre_candidates = 0
    survivors = []
    seen = set()
    for task in tasks:
        if isinstance(task, SubsetCandidates):
            members = [int(value) for value in task.subset]
            expanded = [
                (first, second)
                for position, first in enumerate(members)
                for second in members[position + 1 :]
            ]
        elif isinstance(task, PointCandidates):
            expanded = [(int(task.anchor), int(other)) for other in task.others]
        else:
            expanded = []
            for pair in task.pairs:
                pair = canonical_pair(*pair)
                if pair not in seen:
                    seen.add(pair)
                    if cross(*pair):
                        expanded.append(pair)
            survivors.extend(pair for pair in expanded if passes(*pair))
            continue
        expanded = [pair for pair in expanded if cross(*pair)]
        pre_candidates += len(expanded)
        survivors.extend(pair for pair in expanded if passes(*pair))
    verifier = NumpyBackend(collection, THRESHOLD, measure)
    firsts = np.array([pair[0] for pair in survivors], dtype=np.intp)
    seconds = np.array([pair[1] for pair in survivors], dtype=np.intp)
    accepted = verifier.verify_pairs(firsts, seconds)
    results = {canonical_pair(int(a), int(b)) for a, b in zip(firsts[accepted], seconds[accepted])}
    return pre_candidates, sorted(survivors), results


_REFERENCES = {}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("use_sketches", [True, False])
@pytest.mark.parametrize("sides", ["self", "rs"])
@pytest.mark.parametrize(
    "backend, budget",
    [
        ("python", JoinEngine.DEFAULT_BATCH_BUDGET),
        ("numpy", JoinEngine.DEFAULT_BATCH_BUDGET),
        ("numpy", 997),  # the 600-record subset splits into row ranges
    ],
)
def test_flush_batched_engine_matches_per_pair_reference(
    collections, backend, sides, use_sketches, weighted, budget
) -> None:
    collection = collections[sides]
    measure = get_measure("jaccard", weights=WEIGHTS) if weighted else None
    engine = JoinEngine(
        collection, THRESHOLD, backend=backend, use_sketches=use_sketches,
        batch_budget=budget, measure=measure,
    )
    tasks = _task_mix(collection.num_records)
    key = (sides, use_sketches, weighted)
    if key not in _REFERENCES:
        _REFERENCES[key] = _reference(collection, engine, tasks)
    pre_candidates, survivors, results = _REFERENCES[key]

    stats = JoinStats(algorithm="TEST", threshold=THRESHOLD, num_records=collection.num_records)
    recorder = _RecordingFilter(engine.default_filter_stage())
    pairs = engine.execute(_ListStage(tasks), stats, filter_stage=recorder)

    assert sorted(recorder.survivors) == survivors
    assert stats.pre_candidates == pre_candidates
    assert stats.candidates == stats.verified == len(survivors)
    assert pairs == results
    assert results, "the task mix should produce some result pairs"


def test_filter_stage_one_task_wrappers_match_reference(collections) -> None:
    collection = collections["rs"]
    engine = JoinEngine(collection, THRESHOLD, backend="numpy")
    stage = engine.default_filter_stage()
    subset = tuple(range(0, 90, 2))
    _, survivors, _ = _reference(collection, engine, [SubsetCandidates(subset)])
    pre, firsts, seconds = stage.filter_subset(subset)
    assert sorted(zip(firsts.tolist(), seconds.tolist())) == survivors
    assert pre == sum(1 for i, a in enumerate(subset) for b in subset[i + 1 :]
                      if collection.sides[a] != collection.sides[b])
    others = np.arange(100, 160)
    pre, firsts, seconds = stage.filter_point(7, others)
    _, survivors, _ = _reference(collection, engine, [PointCandidates(7, others)])
    assert sorted(zip(firsts.tolist(), seconds.tolist())) == survivors
    assert pre == int(np.count_nonzero(collection.sides[others] != collection.sides[7]))


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_blocks_never_exceed_budget_plus_one_row(collections, backend) -> None:
    collection = collections["self"]
    rng = np.random.default_rng(5)
    subset = rng.choice(collection.num_records, size=300, replace=False)
    others = np.setdiff1d(np.arange(collection.num_records), [subset[0]])[:500]
    tasks = [SubsetCandidates(subset), PointCandidates(int(subset[0]), others)]

    def run(budget):
        engine = JoinEngine(collection, THRESHOLD, backend=backend, batch_budget=budget)
        stats = JoinStats(algorithm="TEST", threshold=THRESHOLD, num_records=collection.num_records)
        recorder = _RecordingFilter(engine.default_filter_stage())
        pairs = engine.execute(_ListStage(tasks), stats, filter_stage=recorder)
        return pairs, stats, recorder

    pairs, stats, recorder = run(64)
    reference_pairs, reference_stats, reference_recorder = run(JoinEngine.DEFAULT_BATCH_BUDGET)
    assert len(reference_recorder.blocks) == 1  # both tasks fit one default flush
    assert len(recorder.blocks) > 2
    for firsts, _ in recorder.blocks:
        # Whole rows only: the pairs before the block's last row stay
        # under the budget, the last row may cross it.
        last_row = int(np.count_nonzero(firsts == firsts[-1]))
        assert firsts.size - last_row < 64
        assert firsts.size <= 64 + max(subset.size - 1, others.size)
    assert sum(recorder.block_sizes) == stats.pre_candidates == reference_stats.pre_candidates
    assert pairs == reference_pairs
    assert stats.candidates == reference_stats.candidates
    assert sorted(recorder.survivors) == sorted(reference_recorder.survivors)
