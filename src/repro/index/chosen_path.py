"""Chosen Path index for approximate set similarity search.

This is the data structure of Christiani & Pagh ("Set similarity search
beyond MinHash", STOC 2017) that inspired CPSJOIN — reference [5] of the
paper.  The index grows a forest of random *token trees*: at every node a
hash function ``r`` maps tokens to ``[0, 1)`` and a record follows the
child for token ``j ∈ x`` whenever ``r(j) < 1/(λ |x|)``.  A record is stored
in every leaf (node at the cut-off depth) it reaches; a query walks the same
trees with the same hash functions, and every indexed record it meets at a
leaf is a candidate for the caller to verify.

The node hashes are counter-based, as in the join's frontier walk
(:mod:`repro.core.frontier`): each tree's root key mixes the index seed with
the tree number, a child's key is :func:`~repro.core.frontier.child_node_keys`
of its parent's key and the token followed, and ``r(j)`` at a node is
:func:`~repro.core.frontier.token_uniforms` of ``(node key, j)``.  A
record's leaves are therefore a pure function of the record and the seed:
queries never change the index, and any insertion order of the same records
yields the same forest.

Two records with Braun–Blanquet similarity at least ``λ`` follow a common
path of length ``k`` with probability at least ``1/(k+1)`` (Lemma 5 /
Agresti), so with ``repetitions`` independent trees the index reports a
qualifying record with probability ``1 - (1 - 1/(k+1))^repetitions``.

Differences from CPSJOIN (Section IV-B of the paper): the index is
parameterized by a fixed depth and number of trees (non-adaptive), stores
every root-to-leaf path (space grows with both), and answers *queries*
instead of materializing a join.  It is included both as the historical
substrate of the paper's contribution and as the candidate structure of
``SimilarityIndex(candidates="chosenpath")``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.frontier import child_node_keys, root_node_key, token_uniforms

__all__ = ["ChosenPathIndex"]

_SEED_MASK = 2**64 - 1


class ChosenPathIndex:
    """A Chosen Path forest over a collection of token sets.

    Parameters
    ----------
    threshold:
        Similarity threshold ``λ`` in ``(0, 1]`` setting the branching
        probability ``1/(λ|x|)``.
    depth:
        Length of the root-to-leaf paths (the ``k`` of the analysis).  When
        ``None`` a depth of ``⌈log₂(1/target_miss)⌉`` is not meaningful for
        this structure, so we default to 4 which works well for thresholds
        around 0.5 on token sets of moderate size.
    repetitions:
        Number of independent trees in the forest.
    seed:
        Seed of the node keys (``None`` draws one).
    """

    def __init__(
        self,
        threshold: float,
        depth: Optional[int] = None,
        repetitions: int = 10,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if depth is not None and depth < 1:
            raise ValueError("depth must be positive")
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        if seed is None:
            seed = int(np.random.default_rng().integers(2**63))
        self.threshold = threshold
        self.depth = depth if depth is not None else 4
        self.repetitions = repetitions
        root = np.full(repetitions, root_node_key(seed & _SEED_MASK), dtype=np.uint64)
        self._root_keys = child_node_keys(root, np.arange(repetitions))
        # Leaf buckets: leaf node key -> record ids.
        self._leaves: Dict[int, List[int]] = defaultdict(list)
        self._count = 0

    def _leaf_keys(self, record: Tuple[int, ...]) -> np.ndarray:
        """Keys of every leaf the record reaches, all trees walked as one array.

        Each level tests every (node, token) pair of the frontier in one
        :func:`token_uniforms` call; the surviving pairs become the next
        level's node keys.
        """
        branch_probability = min(1.0, 1.0 / (self.threshold * len(record)))
        tokens = np.asarray(record, dtype=np.int64)
        keys = self._root_keys
        for _ in range(self.depth):
            nodes, positions = np.nonzero(token_uniforms(keys, tokens) < branch_probability)
            keys = child_node_keys(keys[nodes], tokens[positions])
        return keys

    # ------------------------------------------------------------------ public API
    def __len__(self) -> int:
        return self._count

    def insert(self, record: Sequence[int]) -> int:
        """Insert a record into every tree of the forest; returns its id."""
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        if not record_tuple:
            raise ValueError("cannot index an empty record")
        record_id = self._count
        for key in self._leaf_keys(record_tuple).tolist():
            self._leaves[key].append(record_id)
        self._count += 1
        return record_id

    def insert_all(self, records: Sequence[Sequence[int]]) -> List[int]:
        """Insert many records; returns their ids."""
        return [self.insert(record) for record in records]

    def candidates(self, record: Sequence[int]) -> Set[int]:
        """Ids of indexed records sharing a leaf with the query in any tree."""
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        found: Set[int] = set()
        leaves = self._leaves
        for key in self._leaf_keys(record_tuple).tolist():
            bucket = leaves.get(key)
            if bucket is not None:
                found.update(bucket)
        return found

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
