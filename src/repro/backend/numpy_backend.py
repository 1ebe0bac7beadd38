"""Vectorized execution backend: block filtering and verification with numpy.

* **Filter.** :meth:`NumpyBackend.filter_pairs` takes a flat pair block (one
  per engine flush, see :func:`repro.backend.kernels.expand_pair_blocks`):
  a vectorized size probe, then a *word-major* Hamming pass that gathers,
  XORs and popcounts one contiguous sketch-word column at a time
  (:meth:`~repro.core.preprocess.PreprocessedCollection.sketch_columns`)
  into a small unsigned accumulator, compared against the integer bound
  :meth:`NumpyBackend._max_sketch_distance` — no float estimate is formed.
* **Verify.** The intersection of one record with a block of CSR-packed
  candidates is a single ``searchsorted`` plus a segmented sum
  (:func:`repro.backend.kernels.csr_overlaps_one_to_many`, shared with the
  :class:`repro.index.SimilarityIndex` query kernels).

Both decide with the scalar backend's arithmetic (the same size-probe
expression, a distance bound derived from its estimate comparison, the same
integer overlap bound), so the verified pair sets are bit-for-bit identical.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backend.base import ExecutionBackend
from repro.backend.kernels import csr_overlaps_one_to_many
from repro.core.preprocess import PreprocessedCollection
from repro.hashing.sketch import _HAS_BITWISE_COUNT, popcount_words
from repro.similarity.measures import Measure

__all__ = ["NumpyBackend"]


class NumpyBackend(ExecutionBackend):
    """Vectorized filter and verification backend over CSR-packed token arrays."""

    name = "numpy"

    def __init__(
        self,
        collection: PreprocessedCollection,
        threshold: float,
        measure: "Measure | str | None" = None,
    ) -> None:
        super().__init__(collection, threshold, measure)
        self._values, self._offsets = collection.packed_tokens()
        self._sketch_distance_bounds: dict = {}

    # ------------------------------------------------------------------ exact verification
    def _record_tokens(self, record_id: int) -> np.ndarray:
        start = self._offsets[record_id]
        return self._values[start : start + self.sizes[record_id]]

    def _overlaps_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        """Exact (possibly weighted) overlaps of one record against a block."""
        return csr_overlaps_one_to_many(
            self._record_tokens(record_id),
            self._values,
            self._offsets,
            self.sizes,
            others,
            self._value_weights,
        )

    def _required_overlaps(self, record_id: int, others: np.ndarray) -> np.ndarray:
        return self.measure.required_overlaps(
            self.measure_sizes[record_id], self.measure_sizes[others], self.threshold
        )

    def _max_sketch_distance(self, sketch_cutoff: float) -> int:
        """Largest sketch Hamming distance whose estimate passes the cut-off.

        The estimate ``1 - 2d/num_bits`` is an exact dyadic rational
        (``num_bits`` is a power of two), so comparing the integer distance
        against this precomputed bound is bit-for-bit equivalent to the float
        comparison ``estimate >= sketch_cutoff`` the scalar path performs —
        the bound is derived by running that exact comparison per distance.
        """
        cached = self._sketch_distance_bounds.get(sketch_cutoff)
        if cached is not None:
            return cached
        num_bits = self.collection.sketches.num_bits
        distances = np.arange(num_bits + 1)
        passing = (1.0 - 2.0 * distances / num_bits) >= sketch_cutoff
        bound = int(np.flatnonzero(passing).max(initial=-1))
        self._sketch_distance_bounds[sketch_cutoff] = bound
        return bound

    def verify_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        others = np.asarray(others, dtype=np.intp)
        if others.size == 0:
            return np.zeros(0, dtype=bool)
        overlaps = self._overlaps_one_to_many(record_id, others)
        return overlaps >= self._required_overlaps(record_id, others)

    # ------------------------------------------------------------------ filtering
    def filter_pairs(
        self,
        firsts: np.ndarray,
        seconds: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        sizes = self.measure_sizes
        passing = self.measure.size_compatible(sizes[firsts], sizes[seconds], self.threshold)
        firsts, seconds = firsts[passing], seconds[passing]
        count = firsts.size
        if not use_sketches or count == 0:
            return firsts, seconds
        columns = self.collection.sketch_columns()
        distances = np.zeros(count, dtype=np.min_scalar_type(self.collection.sketches.num_bits))
        left = np.empty(count, dtype=columns.dtype)
        right = np.empty(count, dtype=columns.dtype)
        bits = np.empty(count, dtype=np.uint8)
        for column in columns:
            # ``take`` into preallocated buffers; "clip" skips the bounds-check
            # buffering of the default mode (the ids are valid by construction).
            np.take(column, firsts, out=left, mode="clip")
            np.take(column, seconds, out=right, mode="clip")
            np.bitwise_xor(left, right, out=left)
            if _HAS_BITWISE_COUNT:
                np.bitwise_count(left, out=bits)
                distances += bits
            else:
                np.add(distances, popcount_words(left), out=distances, casting="unsafe")
        surviving = distances <= self._max_sketch_distance(sketch_cutoff)
        return firsts[surviving], seconds[surviving]
