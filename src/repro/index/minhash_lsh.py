"""MinHash LSH banding index for approximate set similarity search.

The standard construction: ``bands`` independent bands of ``rows`` MinHash
values each; a record is inserted into one bucket per band keyed by the
band's value tuple; a query retrieves the union of its buckets and verifies
the candidates exactly.  A pair with Jaccard similarity ``s`` collides in at
least one band with probability ``1 - (1 - s^rows)^bands``.

This is the query-time counterpart of the MINHASH join baseline
(Algorithm 3 of the paper) and serves as the comparison point for the
Chosen Path index in :mod:`repro.index.chosen_path`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple


from repro.hashing.minhash import MinHasher
from repro.similarity.verify import verify_pair

__all__ = ["MinHashLSHIndex"]


class MinHashLSHIndex:
    """A MinHash LSH banding index over a collection of token sets.

    Parameters
    ----------
    threshold:
        Jaccard threshold queries will be verified against.
    bands, rows:
        Banding parameters; ``bands * rows`` MinHash functions are sampled.
        The defaults (32 bands of 4 rows) give a collision probability above
        97 % for pairs at similarity 0.5.
    seed:
        Seed for the MinHash functions.
    """

    def __init__(self, threshold: float, bands: int = 32, rows: int = 4, seed: Optional[int] = None) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if bands < 1 or rows < 1:
            raise ValueError("bands and rows must be positive")
        self.threshold = threshold
        self.bands = bands
        self.rows = rows
        self._minhasher = MinHasher(num_functions=bands * rows, seed=seed)
        self._buckets: List[Dict[Tuple[int, ...], List[int]]] = [defaultdict(list) for _ in range(bands)]
        self._records: List[Tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._records)

    def collision_probability(self, similarity: float) -> float:
        """Probability that a pair at the given similarity shares at least one bucket."""
        if not 0.0 <= similarity <= 1.0:
            raise ValueError("similarity must be in [0, 1]")
        return 1.0 - (1.0 - similarity**self.rows) ** self.bands

    def _band_keys(self, record: Sequence[int]) -> List[Tuple[int, ...]]:
        # One bulk tolist() yields Python ints for every band at once —
        # identical keys to the old per-element int() loop.
        values = self._minhasher.signature(record).tolist()
        return [
            tuple(values[band * self.rows : (band + 1) * self.rows]) for band in range(self.bands)
        ]

    def insert(self, record: Sequence[int]) -> int:
        """Insert a record; returns its id within the index."""
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        if not record_tuple:
            raise ValueError("cannot index an empty record")
        keys = self._band_keys(record_tuple)  # may raise: before any state changes
        record_id = len(self._records)
        self._records.append(record_tuple)
        for band, key in enumerate(keys):
            self._buckets[band][key].append(record_id)
        return record_id

    def insert_all(self, records: Sequence[Sequence[int]]) -> List[int]:
        """Insert many records; returns their ids."""
        return [self.insert(record) for record in records]

    def candidates(self, record: Sequence[int]) -> Set[int]:
        """Ids of indexed records sharing at least one LSH bucket with the query."""
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        found: Set[int] = set()
        for band, key in enumerate(self._band_keys(record_tuple)):
            found.update(self._buckets[band].get(key, ()))
        return found

    def query(self, record: Sequence[int]) -> List[Tuple[int, float]]:
        """Indexed records with Jaccard similarity ≥ threshold to the query.

        Returns ``(record_id, similarity)`` pairs sorted by decreasing
        similarity.  Precision is exact (every candidate is verified); recall
        is governed by :meth:`collision_probability`.
        """
        record_tuple = tuple(sorted(set(int(token) for token in record)))
        results: List[Tuple[int, float]] = []
        for candidate_id in self.candidates(record_tuple):
            accepted, similarity = verify_pair(record_tuple, self._records[candidate_id], self.threshold)
            if accepted:
                results.append((candidate_id, similarity))
        return sorted(results, key=lambda item: (-item[1], item[0]))

    def record(self, record_id: int) -> Tuple[int, ...]:
        """The stored record with the given id."""
        return self._records[record_id]
