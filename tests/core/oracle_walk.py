"""Scalar depth-first Chosen Path walk: the test oracle for the array frontier.

:func:`recursive_tasks` is the paper's recursion (Algorithms 1 and 2 with the
Section V-A.3 splitting heuristic) written one node at a time.  It takes the
same :class:`~repro.core.cpsjoin.ChosenPathCandidateStage` that
:func:`repro.core.frontier.frontier_tasks` takes and draws every node's
randomness from the same node keys, so the two must emit the identical task
stream and tree statistics at any seed.  ``tests/core/test_frontier.py``
holds the parity checks.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.core.frontier import (
    child_node_keys,
    coordinate_uniforms,
    estimator_rng,
    fallback_coordinates,
    root_node_key,
)
from repro.engine import PointCandidates, SubsetCandidates, Task

__all__ = ["chosen_split_coordinates", "recursive_tasks"]


def chosen_split_coordinates(node_key: int, num_functions: int, probability: float) -> np.ndarray:
    """Sorted split coordinates of one node.

    Each coordinate is chosen independently with the splitting probability;
    when none fires the fallback coordinate guarantees progress — one row of
    the Bernoulli mask the frontier applies to a whole level.
    """
    keys = np.array([node_key], dtype=np.uint64)
    chosen = np.flatnonzero(coordinate_uniforms(keys, num_functions)[0] < probability)
    if chosen.size == 0:
        chosen = fallback_coordinates(keys, num_functions)
    return chosen


class _RecursiveWalk:
    def __init__(self, stage) -> None:
        self.stage = stage
        self.join = stage.join
        self.config = stage.join.config
        self.collection = stage.collection
        self.stats = stage.stats

    # ------------------------------------------------------------------ nodes
    def enter_node(self, depth: int) -> None:
        self.stats.add_extra("tree_nodes")
        self.stats.max_extra("max_depth", float(depth))

    def split(self, subset: List[int], node_key: int) -> List[List[int]]:
        """Buckets of a node: records sharing a MinHash value on a chosen coordinate.

        An expected ``1/λ`` coordinates are chosen; per coordinate, buckets
        appear by first occurrence with members in subset order, and buckets
        of fewer than two records are dropped.
        """
        num_functions = self.collection.embedding_size
        probability = min(1.0, 1.0 / (self.join.embedded_threshold * num_functions))
        matrix = self.collection.signatures.matrix
        buckets: List[List[int]] = []
        for coordinate in chosen_split_coordinates(node_key, num_functions, probability):
            groups: Dict[int, List[int]] = {}
            for record_id in subset:
                groups.setdefault(int(matrix[record_id, coordinate]), []).append(record_id)
            buckets.extend(bucket for bucket in groups.values() if len(bucket) >= 2)
        return buckets

    def children(self, subset: List[int], node_key: int) -> Iterator[Tuple[List[int], int]]:
        buckets = self.split(subset, node_key)
        if not buckets:
            return
        keys = child_node_keys(
            np.full(len(buckets), node_key, dtype=np.uint64), np.arange(len(buckets))
        )
        for rank, bucket in enumerate(buckets):
            yield bucket, int(keys[rank])

    @staticmethod
    def point_tasks(subset: List[int], anchors: List[int]) -> Iterator[Task]:
        for record_id in anchors:
            others = tuple(other for other in subset if other != record_id)
            if others:
                yield PointCandidates(record_id, others)

    # ------------------------------------------------------------------ adaptive
    def adaptive(self, subset: List[int], depth: int, node_key: int) -> Iterator[Task]:
        self.enter_node(depth)
        subset = yield from self.brute_force_step(subset, node_key)
        if len(subset) < 2:
            return
        if depth >= self.config.max_depth:
            yield SubsetCandidates(tuple(subset))
            return
        for bucket, child_key in self.children(subset, node_key):
            yield from self.adaptive(bucket, depth + 1, child_key)

    def brute_force_step(self, subset: List[int], node_key: int) -> Iterator[Task]:
        """Algorithm 2; returns the records that keep branching."""
        config, stats = self.config, self.stats
        if len(subset) <= config.limit:
            yield SubsetCandidates(tuple(subset))
            stats.add_extra("bruteforce_pairs_calls")
            return []
        averages = self.stage.estimator.average_similarities(
            subset, config.average_method, estimator_rng(node_key)
        )
        cutoff = (1.0 - config.epsilon) * self.join.embedded_threshold
        to_remove = [record_id for record_id, average in zip(subset, averages) if average > cutoff]
        if to_remove:
            stats.add_extra("bruteforce_point_calls", float(len(to_remove)))
            yield from self.point_tasks(subset, to_remove)
            removed = set(to_remove)
            subset = [record_id for record_id in subset if record_id not in removed]
            if len(subset) <= config.limit:
                yield SubsetCandidates(tuple(subset))
                stats.add_extra("bruteforce_pairs_calls")
                return []
        return subset

    # ------------------------------------------------------------------ ablation strategies
    def fixed_depth(
        self, subset: List[int], depth: int, stop_depth: int, node_key: int
    ) -> Iterator[Task]:
        self.enter_node(depth)
        if len(subset) < 2:
            return
        if depth >= stop_depth or len(subset) <= self.config.limit:
            yield SubsetCandidates(tuple(subset))
            return
        for bucket, child_key in self.children(subset, node_key):
            yield from self.fixed_depth(bucket, depth + 1, stop_depth, child_key)

    def individual(
        self, subset: List[int], depth: int, depths: Dict[int, int], node_key: int
    ) -> Iterator[Task]:
        self.enter_node(depth)
        if len(subset) < 2:
            return
        if len(subset) <= self.config.limit or depth >= self.config.max_depth:
            yield SubsetCandidates(tuple(subset))
            return
        expiring = [record_id for record_id in subset if depths[record_id] <= depth]
        if expiring:
            yield from self.point_tasks(subset, expiring)
            expired = set(expiring)
            subset = [record_id for record_id in subset if record_id not in expired]
            if len(subset) < 2:
                return
        for bucket, child_key in self.children(subset, node_key):
            yield from self.individual(bucket, depth + 1, depths, child_key)


def recursive_tasks(stage) -> Iterator[Task]:
    """The depth-first task stream of ``stage`` (a fresh ``ChosenPathCandidateStage``)."""
    walk = _RecursiveWalk(stage)
    records = list(range(stage.collection.num_records))
    root_key = root_node_key(stage.root_entropy)
    stopping = walk.config.stopping
    if stopping == "adaptive":
        yield from walk.adaptive(records, 0, root_key)
    elif stopping == "global":
        depth = stage.join._global_depth(len(records))
        yield from walk.fixed_depth(records, 0, depth, root_key)
    else:
        depths = stage.join._individual_depths(records, stage.estimator, stage.rng)
        yield from walk.individual(records, 0, dict(zip(records, depths.tolist())), root_key)
