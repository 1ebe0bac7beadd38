"""Build-once / query-many similarity index with incremental inserts.

The join engines materialize all similar pairs of a static collection in one
batch.  Production workloads are usually the other shape: a collection is
indexed once, then served point lookups (``query``) and incremental updates
(``insert``) for a long time — rebuilding the whole index per batch of new
records wastes almost all of its work.  :class:`SimilarityIndex` is that
query-time counterpart, built on the same staged pipeline as the joins:

* **CandidateStage** — pluggable candidate generation per query:
  ``"exact"`` (the default) uses a token inverted index, whose candidates
  provably contain every record with ``J > 0`` against the query, so query
  results match an exact batch join *exactly*; ``"chosenpath"`` and
  ``"lsh"`` reuse the Chosen Path forest / MinHash LSH banding structures of
  this subpackage for sublinear approximate lookups.
* **SketchFilterStage** — size-compatibility probe plus (optionally) the
  1-bit minwise sketch filter.  Sketches are maintained incrementally with
  the identical bit hashes :func:`repro.hashing.sketch.build_sketches` uses,
  so an incrementally grown index is bit-for-bit the index built in one
  shot.  In ``"exact"`` mode the sketch filter defaults to *off* — it is the
  one stage that can drop a true positive — preserving the exactness
  contract.
* **VerifyStage** — exact verification through the same kernels as the join
  backends: the early-terminating merge (``"python"``) or the vectorized
  CSR ``searchsorted`` intersection (``"numpy"``,
  :func:`repro.backend.kernels.csr_overlaps_one_to_many`); both accept
  identical pairs via the shared integer overlap bound.

Queries are served in memory-bounded batches (``batch_size`` queries at a
time), and all storage grows by amortized O(1) appends: token CSR arrays and
sketch words double in capacity, so ``insert`` never rebuilds the index.
Per-stage query timings and counters accumulate in :attr:`stats`
(``candidate_seconds`` / ``filter_seconds`` / ``verify_seconds``), with
build time in ``index_build_seconds`` — the same fields the batch joins
report.

An index is a pure function of its constructor settings (with ``seed=None``
resolved to a concrete seed) and its records in insertion order: every
hash is seeded from the settings, and queries change no structure.  So
:meth:`SimilarityIndex.save` writes only those two things — a JSON manifest
plus the CSR token arrays, in ``np.savez`` format — and
:meth:`SimilarityIndex.load` rebuilds postings, sketches, LSH buckets and
Chosen Path leaves through :meth:`SimilarityIndex.build`.  Loading never
unpickles anything.
"""

from __future__ import annotations

import inspect
import json
import operator
import os
import pickle
import time
from itertools import chain
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.backend.kernels import (
    csr_overlaps_one_to_many,
    sketch_estimates,
)
from repro.datasets.base import Record
from repro.hashing.minhash import MinHasher
from repro.hashing.sketch import (
    pack_sketch_rows,
    sample_sketch_hashers,
    sketch_similarity_threshold,
)
from repro.obs.metrics import active_metrics
from repro.obs.tracing import span
from repro.result import JoinStats, canonical_pair
from repro.similarity.measures import Measure, get_measure
from repro.similarity.verify import verify_pair_sorted, verify_pair_sorted_measure

__all__ = [
    "SimilarityIndex",
    "IndexPersistenceError",
    "normalized_tokens",
    "topk_from_matches",
]

Pair = Tuple[int, int]
Match = Tuple[int, float]

_WORD_BITS = 64

_SAVE_MAGIC = b"REPRO-SIMIDX\n"
"""File magic of the pickle-based formats 1 and 2, refused by :meth:`SimilarityIndex.load`."""

SAVE_FORMAT_VERSION = 3
"""On-disk format version written by :meth:`SimilarityIndex.save`.

Version 3 is an ``np.savez`` archive of the settings manifest and the
records.  Versions 1 and 2 were pickles; they are refused, never unpickled.
"""

_ATTRIBUTE_SETTINGS = (
    "threshold", "candidates", "backend", "use_sketches", "seed", "batch_size", "workers", "executor"
)
"""Constructor settings kept as public attributes (the rest: ``_structure_settings``)."""

_RECORD_MEMBERS = {"manifest": np.uint8, "token_values": np.int64, "token_offsets": np.int64}
_WEIGHT_MEMBERS = {"weight_tokens": np.int64, "weight_values": np.float64}


class IndexPersistenceError(ValueError):
    """A saved index file could not be loaded (foreign, corrupt, or stale)."""


TOKEN_INT64_MIN = -(2**63)
TOKEN_INT64_MAX = 2**63 - 1
"""Token bounds of the index's int64 storage (shared with the wire protocol)."""


def normalized_tokens(record, action: str) -> Tuple[int, ...]:
    """Sorted, deduplicated int tokens, range-checked to fit int64 storage.

    The single normalization used by the index *and* the serving layer (so
    a WAL-replayed record can never normalize differently than the live
    insert did).  The range check must happen *before* any index structure
    is touched: an out-of-range token surfacing as an OverflowError halfway
    through an insert would leave the index half-applied (record list
    grown, CSR arrays not), which the serving layer's durability contract
    cannot tolerate.
    """
    normalized = tuple(sorted({int(token) for token in record}))
    if not normalized:
        raise ValueError(f"cannot {action} an empty record")
    if normalized[0] < TOKEN_INT64_MIN or normalized[-1] > TOKEN_INT64_MAX:
        offender = normalized[0] if normalized[0] < TOKEN_INT64_MIN else normalized[-1]
        raise ValueError(
            f"token {offender} does not fit the index's 64-bit token storage"
        )
    return normalized


def topk_from_matches(
    matches: Sequence["Match"], k: int, floor: Optional[float] = None
) -> List["Match"]:
    """The top-``k`` prefix of a descending-sorted match list.

    The one truncation rule shared by :meth:`SimilarityIndex.query_topk` and
    the serving layer's ``query_topk`` operation, so a served top-k answer is
    by construction the prefix of the corresponding threshold query.
    ``floor`` optionally cuts the prefix at the first match below it (a
    per-query tightening of the index threshold; it can only shrink the
    result).  ``matches`` must already be sorted by decreasing similarity —
    exactly what the query methods return.
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError("k must be a positive integer")
    if k < 1:
        raise ValueError("k must be a positive integer")
    top: List[Match] = []
    for record_id, similarity in matches:
        if floor is not None and similarity < floor:
            break
        top.append((record_id, similarity))
        if len(top) == k:
            break
    return top


_CANDIDATE_MODES = ("exact", "chosenpath", "lsh")
_BACKENDS = ("python", "numpy")

# ---------------------------------------------------------------------------
# Process-executor side of query_batch: each worker holds one unpickled copy
# of the index (shipped once per pool through the initializer) and serves
# query chunks, returning matches plus its counter deltas.
# ---------------------------------------------------------------------------
_POOL_INDEX: Optional["SimilarityIndex"] = None


def _query_pool_init(payload: bytes) -> None:
    global _POOL_INDEX
    _POOL_INDEX = pickle.loads(payload)


def _query_counters(stats: "JoinStats") -> Dict[str, float]:
    """The counter deltas a query worker reports back to the parent."""
    return {
        "pre_candidates": float(stats.pre_candidates),
        "candidates": float(stats.candidates),
        "verified": float(stats.verified),
        "candidate_seconds": stats.candidate_seconds,
        "filter_seconds": stats.filter_seconds,
        "verify_seconds": stats.verify_seconds,
        "queries": stats.extra.get("queries", 0.0),
    }


def _query_pool_chunk(chunk, excludes):
    assert _POOL_INDEX is not None, "query pool worker used before initialization"
    stats = JoinStats(algorithm="SIMINDEX", threshold=_POOL_INDEX.threshold)
    matches = _POOL_INDEX._query_chunk(chunk, excludes, stats)
    return matches, _query_counters(stats)


def _signature_block_worker(minhasher: MinHasher, records: List[Record]) -> np.ndarray:
    """Compute the MinHash signatures of a record shard (build-time worker)."""
    return minhasher.signatures(records).matrix


def _reserve(array: np.ndarray, length: int) -> np.ndarray:
    """``array``, or a copy with capacity doubled until ``length`` rows fit."""
    if length <= array.shape[0]:
        return array
    grown = np.zeros((max(2 * array.shape[0], length),) + array.shape[1:], dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class _PostingLists:
    """Token → record-id postings with amortized O(1) numpy appends.

    Each posting list is a capacity-doubling ``intp`` array, so the exact
    candidate stage can merge a query's postings with one C-speed
    ``np.concatenate`` instead of iterating Python lists.
    """

    def __init__(self) -> None:
        # token -> [array, used_length]
        self._lists: dict = {}

    def append(self, token: int, record_id: int) -> None:
        entry = self._lists.get(token)
        if entry is None:
            array = np.zeros(4, dtype=np.intp)
            array[0] = record_id
            self._lists[token] = [array, 1]
            return
        array, length = entry
        if length >= array.shape[0]:
            grown = np.zeros(2 * array.shape[0], dtype=np.intp)
            grown[:length] = array[:length]
            entry[0] = array = grown
        array[length] = record_id
        entry[1] = length + 1

    def get(self, token: int) -> Optional[np.ndarray]:
        entry = self._lists.get(token)
        if entry is None:
            return None
        return entry[0][: entry[1]]

    def __contains__(self, token: int) -> bool:
        return token in self._lists


def _checked_settings(manifest: object) -> Dict[str, object]:
    """The constructor settings of a version-3 manifest, or ValueError."""
    if not isinstance(manifest, dict) or set(manifest) != {"format_version", "records", "settings"}:
        raise ValueError("manifest is not an object with format_version, records and settings")
    if manifest["format_version"] != SAVE_FORMAT_VERSION:
        raise ValueError(
            f"format version {manifest['format_version']!r} is not the supported "
            f"version {SAVE_FORMAT_VERSION}"
        )
    records, settings = manifest["records"], manifest["settings"]
    if isinstance(records, bool) or not isinstance(records, int) or records < 0:
        raise ValueError(f"record count {records!r} is not a non-negative integer")
    known = set(inspect.signature(SimilarityIndex).parameters)
    if not isinstance(settings, dict) or not set(settings) <= known:
        raise ValueError(f"settings {settings!r} hold keys that are no constructor arguments")
    return dict(settings)


class SimilarityIndex:
    """An incrementally updatable index answering similarity threshold queries.

    Parameters
    ----------
    threshold:
        Similarity threshold ``λ`` on the configured measure's own scale;
        queries report indexed records with ``score(query, record) ≥ λ``.
    measure:
        Similarity measure (name, :class:`~repro.similarity.measures.Measure`
        instance, or ``None`` for Jaccard — the historical behaviour,
        bit-for-bit).  The approximate candidate structures and the sketch
        filter run at the measure's *Jaccard floor* of the threshold (the
        Section II-A embedding), so they require a measure with a positive
        floor; the floorless overlap coefficient / containment measures are
        limited to ``candidates="exact"`` without sketches.
    candidates:
        Candidate generation structure: ``"exact"`` (token inverted index,
        recall 1 — query results equal an exact batch join), ``"chosenpath"``
        (the Chosen Path forest of :class:`repro.index.ChosenPathIndex`) or
        ``"lsh"`` (the banding structure of
        :class:`repro.index.MinHashLSHIndex`).
    backend:
        Verification backend: ``"numpy"`` (vectorized CSR intersection, the
        default) or ``"python"`` (early-terminating merge, the per-pair
        oracle).  Identical results either way.
    use_sketches:
        Whether queries run the 1-bit sketch filter before exact
        verification.  Defaults to False in ``"exact"`` mode (the filter has
        a ``δ`` false-negative rate and would break exactness) and True for
        the approximate modes.
    seed:
        Seed for all hashing (sketches and the approximate candidate
        structures).  ``None`` draws a 63-bit seed once, kept in
        :attr:`seed`, so a saved index rebuilds bit-for-bit.
    batch_size:
        Queries per internal batch of :meth:`query_batch` (memory bound).
    workers:
        Parallel workers for :meth:`query_batch` (query chunks are dealt to
        the workers) and for the bulk signature computation of
        :meth:`insert_all`.  Queries are pure reads, so results are
        identical for any worker count.
    executor:
        How parallel work is dispatched: ``"serial"``, ``"threads"``
        (default) or ``"processes"`` (workers receive the pickled index once
        per pool and stream back matches plus counter deltas).
    chosen_path_depth / chosen_path_repetitions / lsh_bands / lsh_rows:
        Parameters of the approximate candidate structures.
    """

    def __init__(
        self,
        threshold: float,
        candidates: str = "exact",
        backend: Optional[str] = None,
        use_sketches: Optional[bool] = None,
        seed: Optional[int] = None,
        embedding_size: int = 128,
        sketch_words: int = 8,
        sketch_false_negative_rate: float = 0.05,
        batch_size: int = 1024,
        workers: int = 1,
        executor: Optional[str] = None,
        chosen_path_depth: int = 3,
        chosen_path_repetitions: int = 12,
        lsh_bands: int = 32,
        lsh_rows: int = 4,
        measure: Union[str, Measure, None] = None,
    ) -> None:
        from repro.core.repetition import EXECUTOR_NAMES

        if not 0.0 < threshold <= 1.0:
            # (0, 1] like the batch joins; λ = 1.0 is exact-duplicate lookup.
            raise ValueError("threshold must be in (0, 1]")
        if candidates not in _CANDIDATE_MODES:
            raise ValueError(f"candidates must be one of {_CANDIDATE_MODES}")
        backend_name = "numpy" if backend is None else str(backend).lower()
        if backend_name not in _BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        executor_name = "threads" if executor is None else str(executor).lower()
        if executor_name not in EXECUTOR_NAMES:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}")
        seed = int(np.random.default_rng().integers(2**63)) if seed is None else operator.index(seed)
        self.threshold = threshold
        self.candidates = candidates
        self.backend = backend_name
        self.seed = seed
        self.use_sketches = (candidates != "exact") if use_sketches is None else bool(use_sketches)
        self.measure = get_measure(measure)
        # The approximate structures and the sketch filter operate on plain
        # Jaccard, so a non-default threshold travels through the measure's
        # Jaccard-floor embedding (identity for the default measure).
        self._embedded_threshold = self.measure.jaccard_floor(threshold)
        if (candidates != "exact" or self.use_sketches) and self._embedded_threshold <= 0.0:
            raise ValueError(
                f"measure {self.measure.name!r} provides no Jaccard floor at "
                f"threshold {threshold}, so the approximate candidate "
                "structures and the sketch filter cannot bound it; index "
                "with candidates='exact' and use_sketches=False"
            )
        self.batch_size = batch_size
        self.workers = workers
        self.executor = executor_name
        # The structure settings without a public attribute, kept for save().
        self._structure_settings = {
            "embedding_size": embedding_size,
            "sketch_words": sketch_words,
            "sketch_false_negative_rate": sketch_false_negative_rate,
            "chosen_path_depth": chosen_path_depth,
            "chosen_path_repetitions": chosen_path_repetitions,
            "lsh_bands": lsh_bands,
            "lsh_rows": lsh_rows,
        }
        # Lazily created process pool for parallel query batches: kept alive
        # across calls while (executor, workers, record count) are unchanged,
        # so repeated batches don't re-pickle the index or re-fork workers.
        self._query_pool = None
        self._query_pool_key = None
        self.stats = JoinStats(algorithm="SIMINDEX", threshold=threshold)

        self._records: List[Record] = []
        self._sizes = np.zeros(16, dtype=np.int64)
        # CSR token storage: record i occupies _values[_offsets[i]:_offsets[i+1]].
        self._values = np.zeros(1024, dtype=np.int64)
        self._offsets = np.zeros(17, dtype=np.int64)
        # Weighted measures additionally keep per-record measure sizes
        # (summed token weights) and per-token weights aligned with _values.
        if self.measure.weighted:
            self._measure_sizes: Optional[np.ndarray] = np.zeros(16, dtype=np.float64)
            self._value_weights: Optional[np.ndarray] = np.zeros(1024, dtype=np.float64)
        else:
            self._measure_sizes = None
            self._value_weights = None

        # Sketch substrate (shared by every candidate mode when enabled).
        self._minhasher: Optional[MinHasher] = None
        self._sketch_hashers: Optional[tuple] = None
        self._sketch_words_array: Optional[np.ndarray] = None
        self._sketch_cutoff = 0.0
        if self.use_sketches:
            self._minhasher = MinHasher(num_functions=embedding_size, seed=seed)
            self._sketch_hashers = sample_sketch_hashers(embedding_size, sketch_words, seed + 0x5EED)
            self._sketch_words_array = np.zeros((16, sketch_words), dtype=np.uint64)
            self._sketch_cutoff = sketch_similarity_threshold(
                self._embedded_threshold, sketch_words * _WORD_BITS, sketch_false_negative_rate
            )

        # Candidate structure.
        self._postings = _PostingLists()
        self._chosen_path = None
        self._lsh = None
        if candidates == "chosenpath":
            from repro.index.chosen_path import ChosenPathIndex

            self._chosen_path = ChosenPathIndex(
                self._embedded_threshold,
                depth=chosen_path_depth,
                repetitions=chosen_path_repetitions,
                seed=seed,
            )
        elif candidates == "lsh":
            from repro.index.minhash_lsh import MinHashLSHIndex

            self._lsh = MinHashLSHIndex(
                self._embedded_threshold, bands=lsh_bands, rows=lsh_rows, seed=seed
            )

    # ------------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        records: Sequence[Sequence[int]],
        threshold: float,
        **options: object,
    ) -> "SimilarityIndex":
        """Construct an index over a collection in one shot (timed build)."""
        index = cls(threshold, **options)  # type: ignore[arg-type]
        index.insert_all(records)
        return index

    def __len__(self) -> int:
        return len(self._records)

    @property
    def num_records(self) -> int:
        return len(self._records)

    def record(self, record_id: int) -> Record:
        """The stored record with the given id."""
        return self._records[record_id]

    # ------------------------------------------------------------------ inserts
    def insert(self, record: Sequence[int]) -> int:
        """Insert a record incrementally; returns its id.

        Amortized O(|record|) plus the candidate-structure insertion; no part
        of the existing index is rebuilt.
        """
        return self._timed_insert(
            [record], span("index.insert"),
            "repro_index_insert_seconds", "Latency of single-record index inserts.",
        )[0]

    def insert_all(self, records: Sequence[Sequence[int]]) -> List[int]:
        """Insert many records; returns their ids.

        The whole block is hashed at once: its MinHash signatures come from
        one kernel call per worker shard, its sketches from one
        :func:`pack_sketch_rows` call and its LSH band keys from one more
        signature call.  A token outside ``[0, 2**32)`` then fails the whole
        call with :class:`ValueError` before any record is inserted.
        """
        return self._timed_insert(
            records, span("index.build", records=len(records)),
            "repro_index_build_seconds", "Latency of bulk index builds (insert_all).",
        )

    def _timed_insert(
        self, records: Sequence[Sequence[int]], insert_span, histogram: str, description: str
    ) -> List[int]:
        """Normalize and insert a block under a span, accounting its build time."""
        started = time.perf_counter()
        with insert_span:
            block = [normalized_tokens(record, "index") for record in records]
            ids = self._insert_block(block) if block else []
        elapsed = time.perf_counter() - started
        self.stats.index_build_seconds += elapsed
        self.stats.num_records = len(self._records)
        registry = active_metrics()
        if registry is not None:
            registry.histogram(histogram, description).observe(elapsed)
        return ids

    _PARALLEL_BUILD_MINIMUM = 512
    """Below this many records a parallel signature build cannot pay for itself."""

    def _signature_block(self, normalized_list: List[Record]) -> np.ndarray:
        """MinHash signatures of a record block, on parallel workers when asked.

        Each record's signature depends only on the record and the hasher's
        seed, so sharding the block across workers is trivially deterministic.
        The incremental candidate structures are still fed serially — only
        the hashing (the dominant build cost) fans out.
        """
        assert self._minhasher is not None
        if (
            self.workers == 1
            or self.executor == "serial"
            or len(normalized_list) < self._PARALLEL_BUILD_MINIMUM
        ):
            return _signature_block_worker(self._minhasher, normalized_list)
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        from repro.core.repetition import process_pool_context

        shard_count = min(self.workers, len(normalized_list))
        bounds = np.linspace(0, len(normalized_list), shard_count + 1, dtype=int)
        shards = [
            normalized_list[bounds[index] : bounds[index + 1]] for index in range(shard_count)
        ]
        if self.executor == "processes":
            pool = ProcessPoolExecutor(max_workers=shard_count, mp_context=process_pool_context())
        else:
            pool = ThreadPoolExecutor(max_workers=shard_count)
        with pool:
            futures = [
                pool.submit(_signature_block_worker, self._minhasher, shard)
                for shard in shards
            ]
            blocks = [future.result() for future in futures]
        return np.concatenate(blocks, axis=0)

    def _insert_block(self, block: List[Record]) -> List[int]:
        """Append a non-empty block of normalized records to every structure (untimed).

        Hashing is the only step that can fail (a MinHash token outside
        ``[0, 2**32)`` raises :class:`ValueError`), so it runs before any
        structure is touched and a failure leaves the index exactly as it
        was: first the sketch rows, then the candidate structure, whose LSH
        variant hashes the whole block before it touches a bucket.
        """
        rows = self._sketch_rows(self._signature_block(block)) if self.use_sketches else None
        first = len(self._records)
        if self.candidates == "exact":
            postings = self._postings
            for record_id, normalized in enumerate(block, first):
                for token in normalized:
                    postings.append(token, record_id)
        elif self.candidates == "chosenpath":
            self._chosen_path.insert_all(block)
        else:
            self._lsh.insert_all(block)

        self._records.extend(block)
        total = len(self._records)
        sizes = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        self._sizes = _reserve(self._sizes, total)
        self._sizes[first:total] = sizes
        self._offsets = _reserve(self._offsets, total + 1)
        start = int(self._offsets[first])
        np.cumsum(sizes, out=self._offsets[first + 1 : total + 1])
        self._offsets[first + 1 : total + 1] += start
        end = int(self._offsets[total])
        self._values = _reserve(self._values, end)
        self._values[start:end] = np.fromiter(
            chain.from_iterable(block), dtype=np.int64, count=end - start
        )
        if self._measure_sizes is not None:
            self._measure_sizes = _reserve(self._measure_sizes, total)
            self._measure_sizes[first:total] = [
                self.measure.record_size(normalized) for normalized in block
            ]
            self._value_weights = _reserve(self._value_weights, end)
            self._value_weights[start:end] = self.measure.value_weights(self._values[start:end])
        if rows is not None:
            self._sketch_words_array = _reserve(self._sketch_words_array, total)
            self._sketch_words_array[first:total] = rows
        return list(range(first, total))

    # ------------------------------------------------------------------ queries
    def query(self, record: Sequence[int], exclude: Optional[int] = None) -> List[Match]:
        """Indexed records with ``score(query, record) ≥ threshold``.

        Returns ``(record_id, similarity)`` pairs sorted by decreasing
        similarity (ties by id).  ``exclude`` omits one id — used when the
        query record is itself a member of the index.
        """
        return self.query_batch([record], exclude_ids=None if exclude is None else [exclude])[0]

    def query_topk(
        self,
        record: Sequence[int],
        k: int,
        floor: Optional[float] = None,
        exclude: Optional[int] = None,
    ) -> List[Match]:
        """The ``k`` most similar indexed records above the index threshold.

        Exactly the first ``k`` entries of :meth:`query` (which sorts by
        decreasing similarity, ties by id), optionally cut at a per-query
        similarity ``floor`` — a tightening of the index threshold, never a
        relaxation.  ``k`` must be a positive integer.
        """
        return topk_from_matches(self.query(record, exclude=exclude), k, floor)

    def query_batch(
        self,
        records: Sequence[Sequence[int]],
        exclude_ids: Optional[Sequence[Optional[int]]] = None,
    ) -> List[List[Match]]:
        """Point-lookup many queries, processed in memory-bounded batches.

        Queries are served ``batch_size`` at a time: each chunk's 1-bit
        sketches are computed as one vectorized block (when the sketch
        filter is enabled), so the chunk size bounds the materialized
        signature/sketch temporaries and amortizes the packing loop across
        the chunk.  ``exclude_ids`` optionally gives one index id per query
        to omit from its result (e.g. the query's own id when querying the
        index with its own members).  Returns one match list per query,
        aligned with the input order.

        With ``workers > 1`` the chunks are dealt to parallel workers
        (threads, or processes each holding one pickled copy of the index);
        queries are pure reads, so the returned matches are identical to a
        serial run, and the workers' counter deltas are folded back into
        :attr:`stats`.
        """
        if exclude_ids is not None and len(exclude_ids) != len(records):
            raise ValueError("exclude_ids must have one entry per query record")
        started = time.perf_counter()
        with span("index.query_batch", queries=len(records)):
            chunks: List[Tuple[Sequence[Sequence[int]], List[Optional[int]]]] = []
            for start in range(0, len(records), self.batch_size):
                chunk = records[start : start + self.batch_size]
                excludes = (
                    list(exclude_ids[start : start + self.batch_size])
                    if exclude_ids is not None
                    else [None] * len(chunk)
                )
                chunks.append((chunk, excludes))
            if self.workers == 1 or self.executor == "serial" or len(chunks) <= 1:
                results: List[List[Match]] = []
                for chunk, excludes in chunks:
                    results.extend(self._query_chunk(chunk, excludes, self.stats))
            else:
                results = self._query_batch_parallel(chunks)
        registry = active_metrics()
        if registry is not None:
            registry.counter(
                "repro_index_queries_total", "Point lookups served by the index."
            ).inc(len(records))
            registry.histogram(
                "repro_index_query_batch_seconds", "Latency of whole query_batch calls."
            ).observe(time.perf_counter() - started)
        return results

    def _query_batch_parallel(
        self, chunks: List[Tuple[Sequence[Sequence[int]], List[Optional[int]]]]
    ) -> List[List[Match]]:
        """Run query chunks on parallel workers, merging counter deltas."""
        from concurrent.futures import ThreadPoolExecutor

        results: List[List[Match]] = []
        if self.executor == "processes":
            pool = self._ensure_query_pool()
            try:
                futures = [
                    pool.submit(_query_pool_chunk, chunk, excludes)
                    for chunk, excludes in chunks
                ]
                for future in futures:
                    matches, counters = future.result()
                    results.extend(matches)
                    self._merge_query_counters(counters)
            except BaseException:
                # Never cache a broken pool: a crashed worker would otherwise
                # wedge every later query_batch until a manual close().
                self.close()
                raise
        else:  # threads: the index is shared read-only, each chunk gets private stats
            max_workers = min(self.workers, len(chunks))
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                futures = []
                for chunk, excludes in chunks:
                    stats = JoinStats(algorithm="SIMINDEX", threshold=self.threshold)
                    futures.append(
                        (pool.submit(self._query_chunk, chunk, excludes, stats), stats)
                    )
                for future, stats in futures:
                    results.extend(future.result())
                    self._merge_query_counters(_query_counters(stats))
        return results

    def _ensure_query_pool(self):
        """The persistent process pool for parallel queries (rebuilt on change).

        Workers hold a pickled snapshot of the index, so the pool is keyed by
        ``(executor, workers, record count)``: any insert — or a change of
        the parallelism settings — invalidates it and the next parallel
        batch ships a fresh snapshot.  Call :meth:`close` to release the
        workers explicitly; pickling and GC also tear the pool down.
        """
        from concurrent.futures import ProcessPoolExecutor

        from repro.core.repetition import process_pool_context

        key = (self.executor, self.workers, len(self._records))
        if self._query_pool is not None and self._query_pool_key == key:
            return self._query_pool
        self.close()
        self._query_pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=process_pool_context(),
            initializer=_query_pool_init,
            initargs=(pickle.dumps(self),),
        )
        self._query_pool_key = key
        return self._query_pool

    def close(self) -> None:
        """Shut down the parallel query pool, if any (idempotent)."""
        pool, self._query_pool = self._query_pool, None
        self._query_pool_key = None
        if pool is not None:
            pool.shutdown(wait=False)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _query_chunk(
        self,
        chunk: Sequence[Sequence[int]],
        excludes: Sequence[Optional[int]],
        stats: JoinStats,
    ) -> List[List[Match]]:
        """Serve one chunk of queries, accounting into the given stats object."""
        normalized_chunk = [self._normalize_query(record) for record in chunk]
        sketch_block = self._sketch_block(normalized_chunk, stats)
        results: List[List[Match]] = []
        for position, (normalized, exclude) in enumerate(zip(normalized_chunk, excludes)):
            query_words = sketch_block[position] if sketch_block is not None else None
            results.append(self._query_one(normalized, exclude, query_words, stats))
        return results

    def _merge_query_counters(self, counters: Dict[str, float]) -> None:
        """Fold a worker's counter deltas into the index-wide statistics."""
        stats = self.stats
        stats.pre_candidates += int(counters.get("pre_candidates", 0))
        stats.candidates += int(counters.get("candidates", 0))
        stats.verified += int(counters.get("verified", 0))
        stats.candidate_seconds += counters.get("candidate_seconds", 0.0)
        stats.filter_seconds += counters.get("filter_seconds", 0.0)
        stats.verify_seconds += counters.get("verify_seconds", 0.0)
        stats.extra["queries"] = stats.extra.get("queries", 0.0) + counters.get("queries", 0.0)

    def self_join_pairs(self) -> Set[Pair]:
        """All similar pairs among the indexed records, via point lookups.

        Equivalent to a batch self-join of the indexed collection: in
        ``"exact"`` mode the returned pairs equal
        ``similarity_join(records, threshold, algorithm="allpairs")`` exactly.
        """
        pairs: Set[Pair] = set()
        matches = self.query_batch(self._records, exclude_ids=list(range(len(self._records))))
        for query_id, found in enumerate(matches):
            for record_id, _ in found:
                pairs.add(canonical_pair(query_id, record_id))
        return pairs

    # ------------------------------------------------------------------ query pipeline
    @staticmethod
    def _normalize_query(record: Sequence[int]) -> Record:
        return normalized_tokens(record, "query with")

    def _sketch_block(self, normalized_chunk: List[Record], stats: JoinStats) -> Optional[np.ndarray]:
        """Vectorized query sketches for one chunk (None when sketches are off).

        Counted as filter-stage time: the sketches exist only to feed the
        sketch filter.
        """
        if not self.use_sketches or not normalized_chunk:
            return None
        assert self._minhasher is not None
        started = time.perf_counter()
        block = self._sketch_rows(_signature_block_worker(self._minhasher, list(normalized_chunk)))
        stats.filter_seconds += time.perf_counter() - started
        return block

    def _sketch_rows(self, signatures: np.ndarray) -> np.ndarray:
        """1-bit sketch words of a signature block: the bits ``build_sketches``
        assigns with the same seed, whatever block a record arrives in."""
        coordinates, multipliers = self._sketch_hashers
        return pack_sketch_rows(
            signatures, coordinates, multipliers, self._sketch_words_array.shape[1]
        )

    def _measure_size_of(self, normalized: Record):
        """Measure size of a query record (token count, or summed weights)."""
        if self._measure_sizes is None:
            return len(normalized)
        return self.measure.record_size(normalized)

    def _candidate_measure_sizes(self, candidate_ids: np.ndarray) -> np.ndarray:
        """Stored measure sizes of the given record ids."""
        if self._measure_sizes is not None:
            return self._measure_sizes[candidate_ids]
        return self._sizes[candidate_ids]

    def _filter_candidates(
        self,
        query_msize,
        candidate_ids: np.ndarray,
        query_words: Optional[np.ndarray],
        stats: JoinStats,
    ) -> np.ndarray:
        """SketchFilterStage: size probe plus optional 1-bit sketch filter.

        Returns a boolean keep-mask aligned with ``candidate_ids`` (so
        callers can carry per-candidate payloads through the filter).
        Shared by the generic and the fused ScanCount query paths, so the
        two can never diverge; uses the measure's length-filter predicate
        (for the default measure, exactly the join engine's
        ``size_compatible_mask`` expression) plus the shared
        :func:`repro.backend.kernels.sketch_estimates` kernel, and updates
        the filter timing and candidate/verified counters.
        """
        started = time.perf_counter()
        passing = self.measure.size_compatible(
            query_msize, self._candidate_measure_sizes(candidate_ids), self.threshold
        )
        if self.use_sketches and passing.any():
            surviving = candidate_ids[passing]
            estimates = sketch_estimates(
                query_words,
                self._sketch_words_array[surviving],
                self._sketch_words_array.shape[1] * _WORD_BITS,
            )
            passing[passing] = estimates >= self._sketch_cutoff
        stats.filter_seconds += time.perf_counter() - started
        survivors = int(np.count_nonzero(passing))
        stats.candidates += survivors
        stats.verified += survivors
        return passing

    def _query_one(
        self,
        normalized: Record,
        exclude: Optional[int],
        query_words: Optional[np.ndarray],
        stats: JoinStats,
    ) -> List[Match]:
        stats.extra["queries"] = stats.extra.get("queries", 0.0) + 1.0
        if self.candidates == "exact" and self.backend == "numpy":
            return self._query_one_scancount(normalized, exclude, query_words, stats)

        # Candidate stage.
        started = time.perf_counter()
        candidate_ids = self._candidate_ids(normalized)
        if exclude is not None and candidate_ids.size:
            candidate_ids = candidate_ids[candidate_ids != exclude]
        stats.candidate_seconds += time.perf_counter() - started
        stats.pre_candidates += int(candidate_ids.size)
        if candidate_ids.size == 0:
            return []

        query_msize = self._measure_size_of(normalized)
        candidate_ids = candidate_ids[
            self._filter_candidates(query_msize, candidate_ids, query_words, stats)
        ]
        if candidate_ids.size == 0:
            return []

        # Verify stage.
        started = time.perf_counter()
        matches = self._verify_query(normalized, query_msize, candidate_ids)
        stats.verify_seconds += time.perf_counter() - started
        return sorted(matches, key=lambda item: (-item[1], item[0]))

    def _query_one_scancount(
        self,
        normalized: Record,
        exclude: Optional[int],
        query_words: Optional[np.ndarray],
        stats: JoinStats,
    ) -> List[Match]:
        """Fused exact query for the numpy backend (ScanCount).

        One pass over the query tokens' postings counts the exact
        intersection size of the query with every record sharing a token
        (``np.unique(..., return_counts=True)`` over the merged posting
        lists — O(postings touched), no index-sized temporaries), so the
        verify stage reduces to a vectorized comparison against the overlap
        bound — no per-candidate token merge at all.  Candidate / filter /
        verify counters match the scalar reference path exactly: candidates
        are the records sharing at least one token, the filter is the shared
        :meth:`_filter_candidates` stage, and every filter survivor counts
        as verified.
        """
        # Candidate stage: merged postings -> per-record overlap counts.
        started = time.perf_counter()
        hits = self._gather_postings(normalized)
        weighted = self._measure_sizes is not None
        if hits:
            merged = np.concatenate(hits)
            if weighted:
                # Weighted ScanCount: every posting contributes its token's
                # weight instead of 1.  Candidates stay "records sharing at
                # least one token" (presence counts), matching the scalar
                # reference path even for zero-weight tokens.
                token_weight = self.measure.token_weight
                hit_weights = np.concatenate(
                    [
                        np.full(bucket.shape[0], token_weight(token), dtype=np.float64)
                        for token, bucket in zip(self._posting_tokens(normalized), hits)
                    ]
                )
                if merged.size >= len(self._records):
                    present = np.bincount(merged, minlength=len(self._records))
                    weighted_counts = np.bincount(
                        merged, weights=hit_weights, minlength=len(self._records)
                    )
                    candidate_ids = np.flatnonzero(present)
                    overlaps = weighted_counts[candidate_ids]
                else:
                    candidate_ids, inverse = np.unique(merged, return_inverse=True)
                    overlaps = np.zeros(candidate_ids.shape[0], dtype=np.float64)
                    np.add.at(overlaps, inverse, hit_weights)
            elif merged.size >= len(self._records):
                # Dense query (postings dominate the index size): an O(L + n)
                # bincount beats sorting the merge.
                counts = np.bincount(merged, minlength=len(self._records))
                candidate_ids = np.flatnonzero(counts)
                overlaps = counts[candidate_ids]
            else:
                # Selective query: stay O(L log L) with no index-sized
                # temporary.
                candidate_ids, overlaps = np.unique(merged, return_counts=True)
        else:
            candidate_ids = np.zeros(0, dtype=np.intp)
            overlaps = np.zeros(0, dtype=np.float64 if weighted else np.int64)
        if exclude is not None and candidate_ids.size:
            keep = candidate_ids != exclude
            candidate_ids, overlaps = candidate_ids[keep], overlaps[keep]
        stats.candidate_seconds += time.perf_counter() - started
        stats.pre_candidates += int(candidate_ids.size)
        if candidate_ids.size == 0:
            return []

        query_msize = self._measure_size_of(normalized)
        mask = self._filter_candidates(query_msize, candidate_ids, query_words, stats)
        candidate_ids, overlaps = candidate_ids[mask], overlaps[mask]
        if candidate_ids.size == 0:
            return []

        # Verify stage: the overlaps are already exact.
        started = time.perf_counter()
        matches = self._accept_matches(query_msize, candidate_ids, overlaps)
        stats.verify_seconds += time.perf_counter() - started
        return sorted(matches, key=lambda item: (-item[1], item[0]))

    def _gather_postings(self, normalized: Record) -> List[np.ndarray]:
        """Posting-list views of every query token present in the index."""
        postings = self._postings
        return [
            bucket
            for bucket in (postings.get(token) for token in normalized)
            if bucket is not None
        ]

    def _posting_tokens(self, normalized: Record) -> List[int]:
        """The query tokens present in the index, aligned with :meth:`_gather_postings`."""
        postings = self._postings
        return [token for token in normalized if token in postings]

    def _accept_matches(
        self, query_msize, candidate_ids: np.ndarray, overlaps: np.ndarray
    ) -> List[Match]:
        """Accept candidates from exact intersection sizes (shared verify tail).

        Applies the measure's required-overlap bound and converts surviving
        overlaps to exact similarities; used by both vectorized verify paths
        so acceptance and tie-breaking can never diverge.
        """
        candidate_msizes = self._candidate_measure_sizes(candidate_ids)
        required = self.measure.required_overlaps(query_msize, candidate_msizes, self.threshold)
        accepted = overlaps >= required
        similarities = self.measure.similarities_from_overlaps(
            query_msize, candidate_msizes[accepted], overlaps[accepted]
        )
        return [
            (int(record_id), float(similarity))
            for record_id, similarity in zip(candidate_ids[accepted], similarities)
        ]

    def _candidate_ids(self, normalized: Record) -> np.ndarray:
        if self.candidates == "exact":
            hits = self._gather_postings(normalized)
            if not hits:
                return np.zeros(0, dtype=np.intp)
            return np.unique(np.concatenate(hits))
        if self.candidates == "chosenpath":
            found = self._chosen_path.candidates(normalized)
        else:
            found = self._lsh.candidates(normalized)
        return np.asarray(sorted(found), dtype=np.intp)

    def _verify_query(
        self, normalized: Record, query_msize, candidate_ids: np.ndarray
    ) -> List[Match]:
        if self.backend == "numpy":
            overlaps = csr_overlaps_one_to_many(
                np.asarray(normalized, dtype=np.int64),
                self._values,
                self._offsets,
                self._sizes,
                candidate_ids,
                self._value_weights,
            )
            return self._accept_matches(query_msize, candidate_ids, overlaps)
        matches: List[Match] = []
        if self.measure.is_default:
            for candidate_id in candidate_ids:
                accepted, similarity = verify_pair_sorted(
                    normalized, self._records[int(candidate_id)], self.threshold
                )
                if accepted:
                    matches.append((int(candidate_id), similarity))
            return matches
        for candidate_id in candidate_ids:
            accepted, similarity = verify_pair_sorted_measure(
                normalized, self._records[int(candidate_id)], self.threshold, self.measure
            )
            if accepted:
                matches.append((int(candidate_id), similarity))
        return matches

    # ------------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Write the index's settings and records to ``path`` (format version 3).

        One ``np.savez`` archive holding ``manifest`` (UTF-8 JSON as
        ``uint8``: the format version, every constructor keyword with the
        resolved seed and the measure name, and the record count), the
        ``token_values`` / ``token_offsets`` CSR arrays of the records, and
        for a weighted measure its ``weight_tokens`` / ``weight_values``.
        Statistics are not saved.

        The write is atomic (staging file + rename, flushed to stable
        storage first): a crash mid-save can never destroy an existing file
        at ``path`` — which is exactly the situation of ``index query
        --insert`` rewriting the only copy, and of the server's snapshots.
        """
        path = Path(path)
        count = len(self._records)
        manifest = {
            "format_version": SAVE_FORMAT_VERSION,
            "records": count,
            "settings": {
                **{name: getattr(self, name) for name in _ATTRIBUTE_SETTINGS},
                "measure": self.measure.name,
                **self._structure_settings,
            },
        }
        arrays = {
            "manifest": np.frombuffer(json.dumps(manifest).encode("utf-8"), dtype=np.uint8),
            "token_values": self._values[: self._offsets[count]],
            "token_offsets": self._offsets[: count + 1],
        }
        if self.measure.weighted:
            weights = sorted(self.measure.weights.items())
            arrays["weight_tokens"] = np.array([token for token, _ in weights], dtype=np.int64)
            arrays["weight_values"] = np.array([value for _, value in weights], dtype=np.float64)
        staging = path.with_name(path.name + ".tmp")
        with open(staging, "wb") as handle:  # a handle: numpy appends no ".npz"
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SimilarityIndex":
        """Rebuild an index from a file written by :meth:`save`.

        The archive is opened with ``allow_pickle=False`` and validated —
        exact member set, dtypes, 1-D shapes, CSR offsets, manifest keys and
        version — before :meth:`build` replays the records under the saved
        settings.  Every failure, including a setting the constructor
        rejects, raises :class:`IndexPersistenceError` naming the path.
        Pickle files of formats 1 and 2 are refused without unpickling.
        """
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                header = handle.read(len(_SAVE_MAGIC))
                if header == _SAVE_MAGIC or header[:1] == b"\x80":
                    raise ValueError(
                        "a pickle-based index file of an older release; "
                        "rebuild it with `repro-join index build`"
                    )
                handle.seek(0)
                with np.load(handle, allow_pickle=False) as archive:
                    arrays = {name: archive[name] for name in archive.files}
            expected = {**_RECORD_MEMBERS, **(_WEIGHT_MEMBERS if len(arrays) > 3 else {})}
            if set(arrays) != set(expected) or any(
                arrays[name].dtype != dtype or arrays[name].ndim != 1
                for name, dtype in expected.items()
            ):
                raise ValueError(
                    f"members {sorted(arrays)} are not the 1-D arrays "
                    f"{ {name: np.dtype(dtype).name for name, dtype in expected.items()} }"
                )
            manifest = json.loads(arrays["manifest"].tobytes().decode("utf-8"))
            settings = _checked_settings(manifest)
            values, offsets = arrays["token_values"], arrays["token_offsets"]
            if (
                offsets.shape[0] != manifest["records"] + 1
                or offsets[0] != 0
                or np.any(np.diff(offsets) <= 0)
                or offsets[-1] != values.shape[0]
            ):
                raise ValueError("token offsets are not a valid CSR index")
            if "weight_tokens" in arrays:
                weights = zip(arrays["weight_tokens"].tolist(), arrays["weight_values"].tolist())
                settings["measure"] = get_measure(settings["measure"], weights=dict(weights))
            tokens, bounds = values.tolist(), offsets.tolist()
            records = [tuple(tokens[low:high]) for low, high in zip(bounds, bounds[1:])]
            return cls.build(records, **settings)
        except Exception as error:
            raise IndexPersistenceError(f"{path}: not a saved SimilarityIndex ({error})") from error

    # ------------------------------------------------------------------ introspection
    def __getstate__(self) -> dict:
        # The live worker pool never travels with a pickle (worker copies
        # rebuild their own serial view; the parent re-creates pools lazily).
        state = dict(self.__dict__)
        state["_query_pool"] = None
        state["_query_pool_key"] = None
        return state

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimilarityIndex(threshold={self.threshold}, candidates={self.candidates!r}, "
            f"backend={self.backend!r}, records={len(self._records)})"
        )
