"""Execution-backend interface: the filter, verify and estimator kernels.

Every join in the repository funnels its candidate pairs through the same
three-stage check (size-compatibility probe, 1-bit minwise sketch filter,
exact verification on the token sets), and CPSJOIN's adaptive BRUTEFORCE
rule estimates average similarities.  An :class:`ExecutionBackend` bundles
those kernels behind one interface, bound to one preprocessed collection;
the join engine (:class:`repro.engine.JoinEngine`) and the candidate stages
call them, and decide nothing about *how* the arithmetic runs:

* :meth:`ExecutionBackend.filter_pairs` — the one filter kernel, over
  aligned pair blocks (the engine expands each flush of tasks into blocks);
* :meth:`ExecutionBackend.verify_pairs` — exact verification of a block;
* :meth:`ExecutionBackend.average_similarities` — the estimate driving the
  adaptive stopping rule.

:class:`~repro.backend.numpy_backend.NumpyBackend` runs vectorized block
kernels over the CSR-packed token arrays of the collection's
:class:`repro.store.RecordStore` (zero-copy even in a shared-memory segment
attached by a worker process);
:class:`~repro.backend.python_backend.PythonBackend` is the per-pair scalar
oracle.  The two are *exactly* equivalent: a pair is accepted if and only if
its true similarity meets the threshold, so the verified pair sets (and the
pre-candidate / candidate / verified counters) are identical at seed parity.
The property-test suite in ``tests/backend`` enforces this.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Sequence, Tuple

import numpy as np

from repro.core.preprocess import PreprocessedCollection
from repro.hashing.sketch import popcount_rows
from repro.similarity.measures import Measure, get_measure

__all__ = ["ExecutionBackend"]


class ExecutionBackend(ABC):
    """Verification and estimation kernels bound to one preprocessed collection.

    Parameters
    ----------
    collection:
        The preprocessed records (token sets, signatures, sketches).
    threshold:
        Similarity threshold ``λ`` used by the exact verification kernels,
        on the measure's own scale.
    measure:
        The :class:`~repro.similarity.measures.Measure` verification runs
        under (name, instance or ``None`` for the default Jaccard).  With a
        weighted measure the size probe and the required-overlap bound use
        summed token weights instead of token counts.
    """

    name: ClassVar[str] = "abstract"

    def __init__(
        self,
        collection: PreprocessedCollection,
        threshold: float,
        measure: "Measure | str | None" = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.collection = collection
        self.threshold = threshold
        self.measure = get_measure(measure)
        self.sizes = collection.record_sizes()
        # Measure-sizes drive every filter and bound: identical to ``sizes``
        # for unweighted measures, per-record summed token weights otherwise.
        if self.measure.weighted:
            values, offsets = collection.packed_tokens()
            self._value_weights = self.measure.value_weights(values)
            if self.sizes.size:
                self.measure_sizes = np.add.reduceat(self._value_weights, offsets[:-1])
            else:
                self.measure_sizes = np.zeros(0, dtype=np.float64)
        else:
            self._value_weights = None
            self.measure_sizes = self.sizes
        # Side labels for R ⋈ S joins (None for a self-join).  When present,
        # same-side pairs are dropped before any counting or filtering, so
        # pre_candidates / candidates / verified only ever count cross-side
        # work and same-side candidates never reach verification.
        self.sides = collection.sides
        # Lazily built unpacked sketch-bit matrix for the sampled
        # average-similarity estimator (see average_similarity_sampled).
        self._sketch_bits: "np.ndarray | None" = None
        self._sketch_bytes: "np.ndarray | None" = None
        self._sketch_bits_built = False

    # ------------------------------------------------------------------ filtering
    @abstractmethod
    def filter_pairs(
        self,
        firsts: np.ndarray,
        seconds: np.ndarray,
        use_sketches: bool,
        sketch_cutoff: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The backend's one filter kernel, over aligned pair arrays.

        Returns the surviving ``(firsts, seconds)``: pairs whose measure-sizes
        are compatible and, with ``use_sketches``, whose sketch estimate
        ``1 - 2d/num_bits`` is at least ``sketch_cutoff``.
        """

    # ------------------------------------------------------------------ exact verification
    @abstractmethod
    def verify_one_to_many(self, record_id: int, others: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``others`` truly meet the threshold against ``record_id``."""

    def verify_pairs(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Exact verification of an arbitrary block of (first, second) pairs.

        Pairs are grouped by their first record so each group reduces to one
        one-to-many verification — vectorized in the numpy backend, a scalar
        loop in the python backend; either way the accepted mask is
        bit-for-bit identical.
        """
        firsts = np.asarray(firsts, dtype=np.intp)
        seconds = np.asarray(seconds, dtype=np.intp)
        accepted = np.zeros(firsts.size, dtype=bool)
        if firsts.size == 0:
            return accepted
        order = np.argsort(firsts, kind="stable")
        sorted_firsts = firsts[order]
        sorted_seconds = seconds[order]
        group_starts = np.flatnonzero(np.r_[True, sorted_firsts[1:] != sorted_firsts[:-1]])
        group_ends = np.r_[group_starts[1:], sorted_firsts.size]
        for start, end in zip(group_starts, group_ends):
            record_id = int(sorted_firsts[start])
            accepted[order[start:end]] = self.verify_one_to_many(
                record_id, sorted_seconds[start:end]
            )
        return accepted

    # ------------------------------------------------------------------ average similarity
    def average_similarities(
        self,
        subset: Sequence[int],
        method: str,
        rng: np.random.Generator,
        sample_size: int = 64,
    ) -> np.ndarray:
        """Estimated average similarity of each record in ``subset`` to the others.

        ``method="tokens"`` is the exact rule of Algorithm 2
        (:meth:`average_similarity_exact`); ``method="sketches"`` is the
        paper's sampled 1-bit sketch estimator of Section V-A.4
        (:meth:`average_similarity_sampled`), drawing its sample from
        ``rng``.  The CPSJOIN walk passes a per-node generator, so the
        estimate at a tree node is a pure function of the node's identity.

        The estimate is side-blind on purpose: it only steers *when* the walk
        brute-forces, so an R ⋈ S walk stays identical to the self-join walk
        of the union at the same seed.
        """
        subset = np.asarray(subset, dtype=np.intp)
        if subset.size < 2:
            return np.zeros(subset.size)
        if method == "tokens":
            return self.average_similarity_exact(subset)
        if method == "sketches":
            return self.average_similarity_sampled(subset, sample_size, rng)
        raise ValueError(f"unknown average method: {method!r}")

    def average_similarity_exact(self, subset: Sequence[int]) -> np.ndarray:
        """Exact average Braun–Blanquet similarity on the embedded sets (Algorithm 2).

        With ``count[j]`` the number of records in the subproblem containing
        embedded token ``j``, the average similarity of ``x`` to the rest is
        ``(1/(|S|-1)) Σ_{j ∈ f(x)} (count[j] - 1) / t``.
        """
        signatures = self.collection.signatures.matrix
        subset_array = np.asarray(subset, dtype=np.intp)
        sub_signatures = signatures[subset_array]  # (|S|, t)
        num_records, num_functions = sub_signatures.shape

        averages = np.zeros(num_records)
        # count[(i, value)] is computed column by column: within coordinate i,
        # records sharing the same MinHash value share the embedded token.
        for coordinate in range(num_functions):
            column = sub_signatures[:, coordinate]
            unique_values, inverse, counts = np.unique(column, return_inverse=True, return_counts=True)
            averages += (counts[inverse] - 1) / num_functions
        return averages / (num_records - 1)

    def _sketch_bits_matrix(self) -> "np.ndarray | None":
        """Per-record sketch bits as a float32 (n, num_bits) matrix (or None).

        Cached on the collection (shared by every repetition's backend); the
        matvec identity below turns the per-node estimator of the adaptive
        rule from ``m`` XOR/popcount passes over the subset words into a
        single BLAS pass over the subset bits.  Collections whose bit matrix
        would exceed the collection's memory budget fall back to the word
        loop (None).
        """
        if not self._sketch_bits_built:
            self._sketch_bits_built = True
            self._sketch_bits = self.collection.sketch_bit_matrix()
            if self._sketch_bits is not None:
                self._sketch_bytes = np.ascontiguousarray(
                    self.collection.sketches.words
                ).view(np.uint8)
        return self._sketch_bits

    def average_similarity_sampled(
        self, subset: Sequence[int], sample_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sampled sketch estimate of the average similarity (Section V-A.4).

        The summed Hamming distance of a sketch ``x`` against the ``m``
        sampled sketches decomposes bit-wise:

        ``Σ_s popcount(x ^ s) = Σ_b c_b + Σ_{b : x_b = 1} (m - 2 c_b)``

        with ``c_b`` the number of sampled sketches with bit ``b`` set.  The
        second term is a dot product of the record's unpacked bits against a
        per-bit weight vector, so the whole subset reduces to one matrix ×
        vector product over the cached bit matrix.  All intermediate values
        are small integers (≤ ``m · num_bits``), exactly representable in
        float32, so the totals — and therefore the returned averages — are
        bit-for-bit identical to the XOR/popcount word loop used as the
        large-collection fallback.
        """
        sketches = self.collection.sketches
        subset_array = np.asarray(subset, dtype=np.intp)
        sample_count = min(sample_size, len(subset))
        # Sampling positions (not record ids) draws the identical sample —
        # Generator.choice on an array samples indices into it — and makes
        # the self-term correction below a direct index instead of a value
        # lookup over the whole subset.
        positions = rng.choice(len(subset_array), size=sample_count, replace=False)
        sample = subset_array[positions]

        bits = self._sketch_bits_matrix()
        if bits is not None:
            # Gather the packed sample bytes (ℓ·8 per sketch, 32× less
            # traffic than the float32 rows) and count column bits there.
            sample_bits = np.unpackbits(self._sketch_bytes[sample], axis=1)
            column_counts = sample_bits.sum(axis=0, dtype=np.int64)  # c_b
            weights = (sample_count - 2.0 * column_counts).astype(np.float32)
            if subset_array.size * 4 >= bits.shape[0]:
                # Near-root subproblems: one gemv over the whole matrix beats
                # gathering most of its rows first.  Identical totals either
                # way — every row dot is the same exact small-integer sum.
                totals = (bits @ weights)[subset_array]
            else:
                # Gather the packed bytes (ℓ·8 per record) and unpack just the
                # subset — 32× less random-access traffic than gathering the
                # float32 rows, for the same exact bit values.
                subset_bits = np.unpackbits(self._sketch_bytes[subset_array], axis=1)
                totals = subset_bits.astype(np.float32) @ weights  # exact: sums ≤ m·num_bits < 2^24
            totals = totals.astype(np.float64) + float(column_counts.sum(dtype=np.float64))
        else:
            subset_words = sketches.words[subset_array]  # (|S|, ℓ)
            sample_words = sketches.words[sample]  # (m, ℓ)
            # Iterating over the (at most ``sample_size``) sampled sketches
            # keeps the temporaries at |S| × ℓ words instead of materializing
            # the full |S| × m × ℓ broadcast.
            totals = np.zeros(len(subset), dtype=np.int64)
            for sample_row in sample_words:
                totals += popcount_rows(subset_words ^ sample_row)
            totals = totals.astype(np.float64)
        averages = 1.0 - 2.0 * totals / (sample_count * sketches.num_bits)

        # A sampled record sees itself in its own sample; remove the
        # (similarity = 1) self term from its mean.
        if sample_count > 1:
            averages[positions] = (averages[positions] * sample_count - 1.0) / (sample_count - 1)
        return averages
