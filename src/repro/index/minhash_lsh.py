"""MinHash LSH banding index for approximate set similarity search.

The standard construction: ``bands`` independent bands of ``rows`` MinHash
values each; a record is inserted into one bucket per band keyed by the
band's values; a query retrieves the union of its buckets as candidates for
the caller to verify.  A pair with Jaccard similarity ``s`` collides in at
least one band with probability ``1 - (1 - s^rows)^bands``.

This is the query-time counterpart of the MINHASH join baseline
(Algorithm 3 of the paper) and serves as the comparison point for the
Chosen Path index in :mod:`repro.index.chosen_path`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.hashing.minhash import MinHasher

__all__ = ["MinHashLSHIndex"]


class MinHashLSHIndex:
    """A MinHash LSH banding index over a collection of token sets.

    Parameters
    ----------
    threshold:
        Jaccard threshold the banding parameters are chosen for.
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
        self._buckets: List[Dict[bytes, List[int]]] = [defaultdict(list) for _ in range(bands)]
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def collision_probability(self, similarity: float) -> float:
        """Probability that a pair at the given similarity shares at least one bucket."""
        if not 0.0 <= similarity <= 1.0:
            raise ValueError("similarity must be in [0, 1]")
        return 1.0 - (1.0 - similarity**self.rows) ** self.bands

    def _band_keys(self, records: Sequence[Sequence[int]]) -> np.ndarray:
        """Band keys of a record block, from one MinHash call over the block.

        An ``(n, bands)`` array whose entries are the raw bytes of each
        band's ``rows`` signature values.  Raises :class:`ValueError` (an
        empty record, or a token that is no 32-bit tabulation key) before
        any caller state changes.
        """
        matrix = np.ascontiguousarray(self._minhasher.signatures(records).matrix)
        return matrix.view(np.dtype((np.void, matrix.itemsize * self.rows)))

    def insert(self, record: Sequence[int]) -> int:
        """Insert a record; returns its id within the index."""
        return self.insert_all([record])[0]

    def insert_all(self, records: Sequence[Sequence[int]]) -> List[int]:
        """Insert many records; returns their ids.

        The whole block is hashed before any bucket changes, so a record
        that cannot be hashed leaves the index untouched.
        """
        block_keys = self._band_keys(records)
        first = self._count
        for bucket, keys in zip(self._buckets, block_keys.T.tolist()):
            for record_id, key in enumerate(keys, first):
                bucket[key].append(record_id)
        self._count += block_keys.shape[0]
        return list(range(first, self._count))

    def candidates(self, record: Sequence[int]) -> Set[int]:
        """Ids of indexed records sharing at least one LSH bucket with the query."""
        found: Set[int] = set()
        for bucket, key in zip(self._buckets, self._band_keys([record])[0].tolist()):
            found.update(bucket.get(key, ()))
        return found
