"""Hashing substrate used across the CPSJOIN reproduction.

The paper's implementation relies on three hashing building blocks, all of
which are re-implemented here:

* Zobrist / simple tabulation hashing (`repro.hashing.tabulation`) — the fast
  hash family used to build MinHash functions.
* MinHash ("minwise hashing", `repro.hashing.minhash`) — the LSH family for
  Jaccard similarity used both for the embedding of Section II-A and for the
  bucket splitting of the CPSJOIN recursion and the MinHash LSH baseline.
* 1-bit minwise sketches (`repro.hashing.sketch`) — compact bit sketches of Li
  and König used for fast similarity estimation in all brute-force steps.
"""

from repro.hashing.minhash import MinHasher, MinHashSignatures
from repro.hashing.sketch import OneBitMinHashSketches, sketch_similarity_threshold
from repro.hashing.tabulation import TabulationHash, TabulationHashFamily

__all__ = [
    "MinHasher",
    "MinHashSignatures",
    "OneBitMinHashSketches",
    "sketch_similarity_threshold",
    "TabulationHash",
    "TabulationHashFamily",
]
