"""Similarity search indexes related to CPSJOIN.

CPSJOIN is derived from the Chosen Path *index* for approximate set
similarity search (Christiani & Pagh, STOC 2017 — reference [5] of the
paper).  This subpackage provides query-time counterparts of the join
algorithms, useful when one collection is indexed once and probed many times
(e.g. streaming deduplication against a reference collection):

* :class:`repro.index.chosen_path.ChosenPathIndex` — the Chosen Path index:
  a forest of random token-trees; a query walks the same trees and returns
  the records it collides with as candidates.
* :class:`repro.index.minhash_lsh.MinHashLSHIndex` — classic MinHash LSH
  banding index, the baseline the Chosen Path index improves upon.

Both are candidate structures only; :class:`SimilarityIndex` verifies.
* :class:`repro.index.similarity_index.SimilarityIndex` — the
  build-once/query-many front end: incremental inserts, batched point
  lookups through the staged filter/verify kernels of the join engine, and
  an ``"exact"`` candidate mode whose query results match an exact batch
  join exactly (plus ``"chosenpath"`` / ``"lsh"`` approximate modes reusing
  the two structures above).
"""

from repro.index.chosen_path import ChosenPathIndex
from repro.index.minhash_lsh import MinHashLSHIndex
from repro.index.similarity_index import IndexPersistenceError, SimilarityIndex

__all__ = ["ChosenPathIndex", "IndexPersistenceError", "MinHashLSHIndex", "SimilarityIndex"]
