"""Reference execution backend: per-pair filtering and verification in pure Python.

This backend reproduces the seed implementation's semantics exactly, one
pair at a time: the size probe is the scalar
:meth:`~repro.similarity.measures.Measure.size_compatible_one`, the sketch
filter takes the Hamming distance with ``int.bit_count`` on the collection's
big-integer sketches and compares the float estimate ``1 - 2d/num_bits``
against the cut-off, and every survivor is verified with the
early-terminating merge of :func:`repro.similarity.verify.verify_pair_sorted`.
It is the oracle the vectorized backend is tested against.

The scalar merge wants plain Python tuples, so this backend reads the
collection's lazy ``records`` view — materialized from the record store's
CSR arrays at most once per process (a worker attaching a shared store pays
that O(total tokens) cost on first use, never per repetition).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backend.base import ExecutionBackend
from repro.similarity.verify import verify_pair_sorted, verify_pair_sorted_measure

__all__ = ["PythonBackend"]


class PythonBackend(ExecutionBackend):
    """Scalar verification backend (the seed semantics)."""

    name = "python"

    def filter_pairs(
        self,
        firsts: np.ndarray,
        seconds: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        sizes = self.measure_sizes.tolist()
        threshold = self.threshold
        size_compatible_one = self.measure.size_compatible_one
        sketch_ints = self.collection.sketch_bigints() if use_sketches else None
        num_bits = self.collection.sketches.num_bits
        surviving = [
            position
            for position, (first, second) in enumerate(zip(firsts.tolist(), seconds.tolist()))
            if size_compatible_one(sizes[first], sizes[second], threshold)
            and not (
                use_sketches
                and 1.0 - 2.0 * (sketch_ints[first] ^ sketch_ints[second]).bit_count() / num_bits
                < sketch_cutoff
            )
        ]
        surviving = np.asarray(surviving, dtype=np.intp)
        return firsts[surviving], seconds[surviving]

    def verify_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        record = self.collection.records[record_id]
        records = self.collection.records
        accepted = np.zeros(others.size, dtype=bool)
        if self.measure.is_default:
            # Seed hot path, kept verbatim for the bit-parity guarantee.
            for position, other_id in enumerate(others):
                accepted[position] = verify_pair_sorted(
                    record, records[int(other_id)], self.threshold
                )[0]
        else:
            for position, other_id in enumerate(others):
                accepted[position] = verify_pair_sorted_measure(
                    record, records[int(other_id)], self.threshold, self.measure
                )[0]
        return accepted
