"""Preprocessing shared by CPSJOIN and the MinHash LSH baseline.

Section V-A.1 of the paper: before running the join, every record is mapped
to a length-``t`` MinHash signature (the embedding of Section II-A) and to a
1-bit minwise sketch of ``64 · ℓ`` bits.  The paper notes that this
preprocessing is reusable across joins with different thresholds and
therefore not counted in the reported join times; we follow the same
convention for the join times and report the construction time next to them
in :class:`repro.result.JoinStats.preprocessing_seconds`.

Both artefacts come from block kernels over the CSR-packed tokens
(:func:`repro.hashing.minhash.minhash_csr` and
:func:`repro.hashing.sketch.pack_sketch_rows`) with bounded transient memory,
and show up at runtime as a ``preprocess`` span with ``minhash`` and
``sketch`` children.

The artefacts themselves live in a :class:`repro.store.RecordStore` — flat
numpy arrays (CSR token values and offsets, the signature matrix, packed
sketches, record sizes, optional R ⋈ S side labels) that can be placed in a
shared-memory segment and attached zero-copy by worker processes.
:class:`PreprocessedCollection` is a thin view over a store: it adds the
lazily cached conveniences the scalar code paths want (record tuples,
big-integer sketches) but owns no data of its own, so handing a collection
to the process executor ships only the store's tiny
:class:`repro.store.StoreHandle` — never pickled record objects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Record
from repro.hashing.minhash import MinHashSignatures
from repro.hashing.sketch import OneBitMinHashSketches
from repro.store import RecordStore, SharedStoreLease
from repro.store.record_store import normalize_records, validate_sides

__all__ = ["PreprocessedCollection", "preprocess_collection"]


class PreprocessedCollection:
    """A collection of records plus the hashing artefacts the joins need.

    A thin view over a :class:`repro.store.RecordStore`: ``signatures``,
    ``sketches``, ``sides`` and the CSR token arrays are zero-copy views of
    the store's flat arrays, while ``records`` (Python tuples, used by the
    scalar reference backend and exact verification), ``sketch_bigints`` and
    ``sketch_columns`` are materialized lazily and cached — at most once per
    process, never per repetition.

    Attributes
    ----------
    store:
        The backing :class:`repro.store.RecordStore` (possibly attached to a
        shared-memory segment inside a worker process).
    """

    def __init__(self, store: RecordStore, records: Optional[List[Record]] = None) -> None:
        self.store = store
        self._records = records
        self._signatures: Optional[MinHashSignatures] = None
        self._sketches: Optional[OneBitMinHashSketches] = None
        self._sketch_bigints: Optional[List[int]] = None
        self._sketch_columns: Optional[np.ndarray] = None
        self._sketch_bits: Optional[np.ndarray] = None
        self._sketch_bits_built = False
        self._signature_ranks: Optional[np.ndarray] = None

    @classmethod
    def from_store(cls, store: RecordStore) -> "PreprocessedCollection":
        """Wrap a store (typically one attached inside a worker process)."""
        return cls(store)

    # ------------------------------------------------------------------ store views
    @property
    def records(self) -> List[Record]:
        """The records as sorted token tuples (lazy view for the scalar paths).

        The vectorized backend never touches this — it reads the CSR arrays
        through :meth:`packed_tokens`.  The scalar reference backend (and the
        exact algorithms) get the tuples materialized from the CSR arrays on
        first access, cached for the life of the process.
        """
        if self._records is None:
            self._records = self.store.record_tuples()
        return self._records

    @property
    def signatures(self) -> MinHashSignatures:
        """MinHash signatures of shape ``(n, t)`` (view of the store matrix)."""
        if self._signatures is None:
            self._signatures = MinHashSignatures(matrix=self.store.signature_matrix)
        return self._signatures

    @property
    def sketches(self) -> OneBitMinHashSketches:
        """Packed 1-bit minwise sketches of shape ``(n, ℓ)`` (store view)."""
        if self._sketches is None:
            self._sketches = OneBitMinHashSketches(words=self.store.sketch_words)
        return self._sketches

    @property
    def sides(self) -> Optional[np.ndarray]:
        """Optional per-record R ⋈ S side labels (0 = R, 1 = S); None = self-join."""
        return self.store.sides

    @property
    def preprocessing_seconds(self) -> float:
        """Wall-clock time spent building the signatures and sketches."""
        return self.store.preprocessing_seconds

    @property
    def num_records(self) -> int:
        return self.store.num_records

    @property
    def embedding_size(self) -> int:
        return self.store.embedding_size

    def record_sizes(self) -> np.ndarray:
        """Sizes of all records as an int array (used by size filters)."""
        return self.store.sizes

    def packed_tokens(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR-style packed token arrays ``(values, offsets)``.

        ``values`` concatenates every record's sorted tokens as ``int64``;
        record ``i`` occupies ``values[offsets[i]:offsets[i + 1]]``.  These
        are the store's own arrays — no packing happens here anymore, so the
        call is free in every process, including shared-memory workers.
        """
        return self.store.token_values, self.store.token_offsets

    def sketch_bigints(self) -> List[int]:
        """Each record's 1-bit sketch as one Python integer, built lazily.

        The scalar reference filter (the python backend) compares sketches
        with ``int.bit_count()`` on these arbitrary-precision integers;
        cached per process.  Concurrent first calls from
        parallel repetition threads are a benign race: both compute the same
        list and the last assignment wins.
        """
        if self._sketch_bigints is None:
            words = np.ascontiguousarray(self.store.sketch_words)
            row_bytes = words.shape[1] * words.dtype.itemsize
            raw = words.tobytes()
            self._sketch_bigints = [
                int.from_bytes(raw[index * row_bytes : (index + 1) * row_bytes], "little")
                for index in range(words.shape[0])
            ]
        return self._sketch_bigints

    def sketch_columns(self) -> np.ndarray:
        """Sketch words transposed to ``(ℓ, n)``: word ``w`` of every record, contiguous.

        Read by the numpy backend's word-major Hamming pass; built on the
        first sketch-filtered join (never during preprocessing) and cached
        like :meth:`sketch_bigints`.
        """
        if self._sketch_columns is None:
            self._sketch_columns = np.ascontiguousarray(self.store.sketch_words.T)
        return self._sketch_columns

    def signature_rank_matrix(self) -> np.ndarray:
        """Per-column dense ranks of the MinHash signature matrix, cached.

        ``ranks[x, i]`` is the rank of record ``x``'s MinHash value among the
        distinct values of coordinate ``i`` — equal ranks within a column iff
        equal MinHash values, so grouping by rank partitions a subproblem
        exactly like grouping by value.  The frontier candidate walk packs
        ``(node-slot, rank)`` into one small integer sort key per row, which
        is cheaper than lexsorting the raw 64-bit values; built once per
        collection (same benign first-call race as :meth:`sketch_bigints`).
        """
        if self._signature_ranks is None:
            matrix = self.signatures.matrix
            order = np.argsort(matrix, axis=0, kind="stable")
            sorted_values = np.take_along_axis(matrix, order, axis=0)
            new_group = np.ones_like(sorted_values, dtype=np.int64)
            new_group[1:] = sorted_values[1:] != sorted_values[:-1]
            dense = np.cumsum(new_group, axis=0) - 1
            ranks = np.empty(matrix.shape, dtype=np.int32)
            np.put_along_axis(ranks, order, dense.astype(np.int32), axis=0)
            self._signature_ranks = ranks
        return self._signature_ranks

    _SKETCH_BITS_BUDGET_BYTES = 1 << 27
    """Memory budget for the unpacked sketch-bit matrix (128 MB)."""

    def sketch_bit_matrix(self) -> Optional[np.ndarray]:
        """Sketch bits unpacked to a float32 ``(n, num_bits)`` matrix, cached.

        Backs the matvec form of the sampled average-similarity estimator
        (see :meth:`repro.backend.base.ExecutionBackend.average_similarity_sampled`).
        Cached here — not on the per-repetition backend — so all repetitions
        of a join share one unpacking pass.  Returns ``None`` for collections
        whose matrix would exceed the budget (callers fall back to the packed
        word loop); the benign concurrent-first-call race matches
        :meth:`sketch_bigints`.
        """
        if not self._sketch_bits_built:
            words = self.store.sketch_words
            num_bits = words.shape[1] * words.dtype.itemsize * 8
            if words.size and words.shape[0] * num_bits * 4 <= self._SKETCH_BITS_BUDGET_BYTES:
                self._sketch_bits = np.unpackbits(
                    np.ascontiguousarray(words).view(np.uint8), axis=1
                ).astype(np.float32)
            self._sketch_bits_built = True
        return self._sketch_bits

    # ------------------------------------------------------------------ shared memory
    def to_shared(self) -> SharedStoreLease:
        """Place the backing store in shared memory (see :meth:`RecordStore.to_shared`)."""
        return self.store.to_shared()


def preprocess_collection(
    records: Sequence[Sequence[int]],
    embedding_size: int = 128,
    sketch_words: int = 8,
    seed: Optional[int] = None,
    sides: Optional[Sequence[int]] = None,
) -> PreprocessedCollection:
    """Build MinHash signatures and 1-bit minwise sketches for a collection.

    Parameters
    ----------
    records:
        The collection; every record must be non-empty and every token a
        32-bit hash key in ``[0, 2**32)`` (:class:`ValueError` otherwise).
    embedding_size:
        Number of MinHash functions ``t``.
    sketch_words:
        Sketch length ``ℓ`` in 64-bit words.
    seed:
        Seed for all hash functions (signatures and sketches derive
        independent streams from it).
    sides:
        Optional per-record side labels (0 = R, 1 = S) for R ⋈ S joins; must
        have one entry per record.  ``None`` means a plain self-join.
    """
    normalized = normalize_records(records)
    side_array = validate_sides(sides, len(normalized))
    store = RecordStore.from_records(
        normalized,
        embedding_size=embedding_size,
        sketch_words=sketch_words,
        seed=seed,
        sides=side_array,
    )
    return PreprocessedCollection(store, records=normalized)
