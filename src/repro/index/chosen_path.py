"""Chosen Path index for approximate set similarity search.

This is the data structure of Christiani & Pagh ("Set similarity search
beyond MinHash", STOC 2017) that inspired CPSJOIN — reference [5] of the
paper.  The index grows a forest of random *token trees*: at every node a
fresh hash function ``r`` maps tokens to ``[0, 1)`` and a record follows the
child for token ``j ∈ x`` whenever ``r(j) < 1/(λ |x|)``.  A record is stored
in every leaf (node at the cut-off depth) it reaches; a query walks the same
trees with the same hash functions, and every indexed record it meets at a
leaf becomes a candidate that is verified exactly.

Two records with Braun–Blanquet similarity at least ``λ`` follow a common
path of length ``k`` with probability at least ``1/(k+1)`` (Lemma 5 /
Agresti), so with ``repetitions`` independent trees the index reports a
qualifying record with probability ``1 - (1 - 1/(k+1))^repetitions``.

Differences from CPSJOIN (Section IV-B of the paper): the index is
parameterized by a fixed depth and number of trees (non-adaptive), stores
every root-to-leaf path (space grows with both), and answers *queries*
instead of materializing a join.  It is included both as the historical
substrate of the paper's contribution and as a practical index for
index-once / query-many workloads.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hashing.universal import UniformHash
from repro.similarity.verify import verify_pair

__all__ = ["ChosenPathIndex"]


class ChosenPathIndex:
    """A Chosen Path forest over a collection of token sets.

    Parameters
    ----------
    threshold:
        Similarity threshold ``λ`` used both for the branching probability
        ``1/(λ|x|)`` and for verifying query results.
    depth:
        Length of the root-to-leaf paths (the ``k`` of the analysis).  When
        ``None`` a depth of ``⌈log₂(1/target_miss)⌉`` is not meaningful for
        this structure, so we default to 4 which works well for thresholds
        around 0.5 on token sets of moderate size.
    repetitions:
        Number of independent trees in the forest.
    seed:
        Seed for all node hash functions.
    """

    def __init__(
        self,
        threshold: float,
        depth: Optional[int] = None,
        repetitions: int = 10,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if depth is not None and depth < 1:
            raise ValueError("depth must be positive")
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        self.threshold = threshold
        self.depth = depth if depth is not None else 4
        self.repetitions = repetitions
        self._rng = np.random.default_rng(seed)
        # Hash functions are lazily created per (tree, path) node so that the
        # forest never materializes nodes no record reaches.
        self._node_hashes: Dict[Tuple[int, Tuple[int, ...]], UniformHash] = {}
        # Leaf buckets: (tree, full path) -> record ids.
        self._leaves: Dict[Tuple[int, Tuple[int, ...]], List[int]] = defaultdict(list)
        self._records: List[Tuple[int, ...]] = []

    # ------------------------------------------------------------------ internals
    def _node_hash(self, tree: int, path: Tuple[int, ...]) -> UniformHash:
        key = (tree, path)
        if key not in self._node_hashes:
            self._node_hashes[key] = UniformHash(self._rng)
        return self._node_hashes[key]

    def _paths_of(self, record: Tuple[int, ...], tree: int) -> List[Tuple[int, ...]]:
        """All root-to-leaf paths the record follows in one tree.

        Each node tests all of the record's tokens in one vectorized hash
        pass.  ``UniformHash.value`` masks its key to 32 bits while the
        vectorized ``values`` does not, so the tokens are masked here once —
        keeping the branching decisions (and therefore existing persisted
        buckets) identical to the scalar per-token loop, negative tokens
        included (their two's-complement low 32 bits).
        """
        branch_probability = min(1.0, 1.0 / (self.threshold * len(record)))
        tokens = np.fromiter(
            (token & 0xFFFFFFFF for token in record), dtype=np.uint64, count=len(record)
        )
        frontier: List[Tuple[int, ...]] = [()]
        for _ in range(self.depth):
            next_frontier: List[Tuple[int, ...]] = []
            for path in frontier:
                node_hash = self._node_hash(tree, path)
                branching = node_hash.values(tokens) < branch_probability
                for position in np.flatnonzero(branching).tolist():
                    next_frontier.append(path + (record[position],))
            frontier = next_frontier
            if not frontier:
                break
        return frontier

    # ------------------------------------------------------------------ public API
    def __len__(self) -> int:
        return len(self._records)

    def insert(self, record: Sequence[int]) -> int:
        """Insert a record into every tree of the forest; returns its id."""
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        if not record_tuple:
            raise ValueError("cannot index an empty record")
        paths = [self._paths_of(record_tuple, tree) for tree in range(self.repetitions)]
        record_id = len(self._records)
        self._records.append(record_tuple)
        for tree, tree_paths in enumerate(paths):
            for path in tree_paths:
                self._leaves[(tree, path)].append(record_id)
        return record_id

    def insert_all(self, records: Sequence[Sequence[int]]) -> List[int]:
        """Insert many records; returns their ids."""
        return [self.insert(record) for record in records]

    def candidates(self, record: Sequence[int]) -> Set[int]:
        """Ids of indexed records sharing a leaf with the query in any tree."""
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        found: Set[int] = set()
        for tree in range(self.repetitions):
            for path in self._paths_of(record_tuple, tree):
                found.update(self._leaves.get((tree, path), ()))
        return found

    def query(self, record: Sequence[int]) -> List[Tuple[int, float]]:
        """Indexed records with Jaccard similarity ≥ threshold to the query.

        Every candidate is verified exactly, so precision is 1.0; recall per
        qualifying record is at least ``1 - (1 - 1/(depth+1))^repetitions``
        by the Agresti bound.
        """
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        results: List[Tuple[int, float]] = []
        for candidate_id in self.candidates(record_tuple):
            accepted, similarity = verify_pair(record_tuple, self._records[candidate_id], self.threshold)
            if accepted:
                results.append((candidate_id, similarity))
        return sorted(results, key=lambda item: (-item[1], item[0]))

    def recall_lower_bound(self) -> float:
        """Per-query lower bound on the probability of reporting a qualifying record."""
        per_tree = 1.0 / (self.depth + 1)
        return 1.0 - (1.0 - per_tree) ** self.repetitions

    def expected_leaf_count(self, record_size: int) -> float:
        """Expected number of leaves a record of the given size reaches per tree.

        Each node spawns ``Binomial(|x|, 1/(λ|x|))`` children (mean ``1/λ``),
        so after ``depth`` levels the expected number of leaves is
        ``(1/λ)^depth``; this is the space/time knob of the non-adaptive index
        that CPSJOIN's adaptive rule removes.
        """
        if record_size < 1:
            raise ValueError("record_size must be positive")
        return (1.0 / self.threshold) ** self.depth

    def record(self, record_id: int) -> Tuple[int, ...]:
        """The stored record with the given id."""
        return self._records[record_id]
