"""MinHash (minwise hashing) for Jaccard similarity.

A MinHash function ``h`` has the property ``Pr[h(x) = h(y)] = J(x, y)`` which
makes it LSHable in the sense of equation (1) of the paper.  The paper's
implementation samples a MinHash function by sampling a Zobrist hash function
``g`` and letting ``h(x) = argmin_{j in x} g(j)``; we follow the same
construction (Section V-A.1) with ``t = 128`` functions by default.

The central object here is :class:`MinHashSignatures`: the ``n × t`` matrix of
MinHash values for a whole collection.  It is the shared preprocessing
artefact used by

* the LSHable embedding of Section II-A (each record becomes the token set
  ``{(i, h_i(x))}``),
* the CPSJOIN recursion, which splits a subproblem on a sampled coordinate
  ``i`` and buckets records by ``h_i(x)``,
* the MinHash LSH baseline (Algorithm 3), which buckets on ``k`` concatenated
  coordinates, and
* the 1-bit minwise sketches, which hash each signature coordinate down to a
  single bit.

Every signature, for one record or a whole collection, comes from one block
kernel (:func:`minhash_csr`) over CSR-packed tokens (:func:`pack_records`):
each *distinct* token is tabulated once into a ``(t, U)`` table, then blocks
of about :data:`GATHER_BLOCK_ELEMENTS` gathered table columns are reduced per
record with ``np.minimum.reduceat``.  Collections repeat tokens heavily, so
this removes almost all hashing work, and the blocks bound the transient
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.tabulation import TabulationHashFamily, tabulate_many_functions

__all__ = ["MinHasher", "MinHashSignatures", "minhash_csr", "pack_records"]

KEY_LIMIT = 2**32
"""Tabulation keys are 32-bit: every token must lie in ``[0, KEY_LIMIT)``."""

GATHER_BLOCK_ELEMENTS = 1 << 18
"""Hash values gathered per reduction block (``t × tokens``; 2 MiB of uint64).

Measured on the join benchmarks: blocks above ``2**20`` elements were slower
on both collections."""


def pack_records(records: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """CSR-pack records into ``(values, offsets)``, both ``int64``.

    Record ``i`` occupies ``values[offsets[i]:offsets[i + 1]]``.  A token
    outside ``int64`` raises :class:`ValueError` naming it.
    """
    offsets = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, records), dtype=np.int64, count=len(records)), out=offsets[1:])
    try:
        values = np.fromiter(
            chain.from_iterable(records), dtype=np.int64, count=int(offsets[-1])
        )
    except OverflowError:
        offender = next(
            token for token in chain.from_iterable(records) if not -(2**63) <= token < 2**63
        )
        raise ValueError(f"token {offender} is not a 32-bit tabulation key") from None
    return values, offsets


def minhash_csr(tables: np.ndarray, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """MinHash signatures of CSR-packed records as an ``(n, t)`` uint64 matrix.

    ``tables`` are the ``(t, 4, 256)`` character tables of the ``t``
    tabulation functions; entry ``(r, i)`` of the result is the minimum of
    function ``i`` over record ``r``'s tokens.  Duplicate tokens inside a
    record do not change the result.  Raises :class:`ValueError` for an
    empty record or a token outside ``[0, 2**32)``, before any hashing.
    """
    num_records = offsets.shape[0] - 1
    if num_records and np.diff(offsets).min() == 0:
        raise ValueError("cannot MinHash an empty record")
    distinct, inverse = np.unique(values, return_inverse=True)
    if distinct.size and (distinct[0] < 0 or distinct[-1] >= KEY_LIMIT):
        offender = distinct[0] if distinct[0] < 0 else distinct[-1]
        raise ValueError(f"token {int(offender)} is not a 32-bit tabulation key")
    table = tabulate_many_functions(tables, distinct.astype(np.uint32))  # (t, U)
    num_functions = tables.shape[0]
    matrix = np.empty((num_records, num_functions), dtype=np.uint64)
    block_tokens = max(1, GATHER_BLOCK_ELEMENTS // num_functions)
    start = 0
    while start < num_records:
        low = offsets[start]
        # The last record boundary within the block budget (at least one record).
        stop = int(np.searchsorted(offsets, low + block_tokens, side="right")) - 1
        stop = max(stop, start + 1)
        gathered = np.take(table, inverse[low : offsets[stop]], axis=1)  # (t, k)
        matrix[start:stop] = np.minimum.reduceat(
            gathered, offsets[start:stop] - low, axis=1
        ).T
        start = stop
    return matrix


@dataclass(frozen=True)
class MinHashSignatures:
    """MinHash signatures for a collection of records.

    Attributes
    ----------
    matrix:
        ``uint64`` array of shape ``(num_records, num_functions)``; entry
        ``(r, i)`` is ``h_i(record r)`` represented by the *hash value* of the
        minimizing token (not the token itself), which is what both the
        embedding and the bucketing steps need.
    num_functions:
        The embedding size ``t`` from Section II-A.
    """

    matrix: np.ndarray

    @property
    def num_records(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def num_functions(self) -> int:
        return int(self.matrix.shape[1])

    def coordinate(self, function_index: int) -> np.ndarray:
        """Return the column of values of MinHash function ``function_index``."""
        return self.matrix[:, function_index]

    def signature(self, record_index: int) -> np.ndarray:
        """Return the full signature (length ``t``) of one record."""
        return self.matrix[record_index]

    def estimate_jaccard(self, first: int, second: int) -> float:
        """Estimate the Jaccard similarity of two records from their signatures.

        The estimator is the fraction of coordinates on which the two
        signatures agree; it is unbiased with variance ``J(1-J)/t``.
        """
        agreements = np.count_nonzero(self.matrix[first] == self.matrix[second])
        return agreements / self.num_functions

    def braun_blanquet_tokens(self, record_index: int) -> List[Tuple[int, int]]:
        """Return the embedded token set ``{(i, h_i(x))}`` of Section II-A."""
        row = self.matrix[record_index]
        return [(i, int(value)) for i, value in enumerate(row)]


class MinHasher:
    """Samples and evaluates ``t`` independent MinHash functions.

    Parameters
    ----------
    num_functions:
        The number of independent MinHash functions ``t``.  The paper uses
        ``t = 128`` for the join experiments and notes ``t = 64`` already gives
        sufficient precision for thresholds ``λ ≥ 0.5``.
    seed:
        Seed for the underlying tabulation hash family.
    """

    DEFAULT_NUM_FUNCTIONS = 128

    def __init__(self, num_functions: int = DEFAULT_NUM_FUNCTIONS, seed: Optional[int] = None) -> None:
        if num_functions < 1:
            raise ValueError("num_functions must be positive")
        self.num_functions = num_functions
        family = TabulationHashFamily(seed)
        # Raw character tables of shape (t, 4, 256): evaluating all t functions
        # on a record's tokens is a single vectorized call.
        self._tables = family.sample_tables(num_functions)

    def signature(self, tokens: Sequence[int]) -> np.ndarray:
        """Compute the length-``t`` signature of a single record.

        Each coordinate ``i`` is ``min_{j in tokens} g_i(j)`` where ``g_i`` is
        the ``i``-th tabulation hash function.
        """
        values, offsets = pack_records([tokens])
        return minhash_csr(self._tables, values, offsets)[0]

    def signatures(
        self,
        records: Sequence[Sequence[int]],
        packed: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> MinHashSignatures:
        """Compute signatures for a whole collection of records.

        ``packed`` is the collection's ``(values, offsets)`` from
        :func:`pack_records`, when the caller already holds it; the records
        are then not packed a second time.
        """
        values, offsets = pack_records(records) if packed is None else packed
        return MinHashSignatures(matrix=minhash_csr(self._tables, values, offsets))

    def collision_probability(self, jaccard: float) -> float:
        """Probability that a single MinHash coordinate collides at similarity ``jaccard``."""
        if not 0.0 <= jaccard <= 1.0:
            raise ValueError("jaccard must be in [0, 1]")
        return jaccard
