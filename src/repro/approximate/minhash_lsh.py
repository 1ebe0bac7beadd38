"""MinHash LSH similarity join (Algorithm 3 of the paper).

A single run buckets every record by the concatenation of ``k`` MinHash
values and brute-forces each non-empty bucket; ``L`` independent runs boost
the per-pair recall from ``λ^k`` (for a pair exactly at the threshold) to
``1 - (1 - λ^k)^L``.

Following Section V-B, the parameter ``k`` is chosen per dataset and
threshold by running only the splitting step for ``k ∈ {2, …, 10}`` and
picking the value minimizing an estimated cost combining the bucket lookups
and the pairwise comparisons inside buckets.  Execution is staged through
the shared :class:`repro.engine.JoinEngine`: bucketing is the candidate
stage (each non-trivial bucket becomes a
:class:`~repro.engine.stages.SubsetCandidates` task), and the engine runs
the same sketch-filter and verify stages CPSJOIN uses — exactly as the two
implementations share BRUTEFORCEPAIRS in the paper.

The ``L`` bucketing rounds are mutually independent once their sampled
coordinates are fixed, so the join supports the same parallel execution as
the CPSJOIN repetition engine: all rounds' coordinates are drawn serially
up front (preserving the exact randomness consumption of a sequential run),
the rounds are dealt into shards, and each shard runs through its own
staged engine on a thread pool or — via the shared-memory
:class:`repro.store.RecordStore` — on worker processes that attach the
collection zero-copy.  The merged pair set is bit-for-bit identical to the
sequential run for every ``workers`` / ``executor`` combination.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.backend.kernels import group_rows_first_occurrence
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.engine import CandidateStage, JoinEngine, SubsetCandidates, Task
from repro.result import JoinResult, JoinStats, Timer
from repro.similarity.measures import get_measure
from repro.store import StoreHandle

__all__ = ["MinHashLSHJoin", "MinHashBucketStage", "minhash_lsh_join"]

_SEED_STREAM = 104729
"""Odd multiplier deriving per-repetition seeds (kept from the seed impl)."""


def _minhash_shard_worker(
    handle: StoreHandle, join: "MinHashLSHJoin", coordinate_rounds: List[np.ndarray]
) -> JoinResult:
    """Run a shard of bucketing rounds in a worker process (shared store)."""
    from repro.core.repetition import _attached_collection

    collection = _attached_collection(handle)
    return join._execute_rounds(collection, coordinate_rounds)


class MinHashBucketStage(CandidateStage):
    """Candidate stage of MinHash LSH: one bucketing round per coordinate set.

    Each round's ``k`` signature coordinates are sampled *before* the stage
    is built (so rounds can be dealt to parallel workers without touching
    the generator); the stage just yields every bucket of at least two
    records as a brute-force task, in round order.
    """

    def __init__(
        self,
        join: "MinHashLSHJoin",
        collection: PreprocessedCollection,
        coordinate_rounds: Sequence[np.ndarray],
        stats: JoinStats,
        count_repetitions: bool = True,
    ) -> None:
        self.join = join
        self.collection = collection
        self.coordinate_rounds = coordinate_rounds
        self.stats = stats
        self.count_repetitions = count_repetitions

    def tasks(self) -> Iterator[Task]:
        for coordinates in self.coordinate_rounds:
            for bucket in self.join._bucketize(self.collection, coordinates):
                yield SubsetCandidates(bucket)
            if self.count_repetitions:
                self.stats.repetitions += 1


class MinHashLSHJoin:
    """MinHash LSH self-join engine.

    Parameters
    ----------
    threshold:
        Jaccard threshold ``λ``.
    num_hash_functions:
        The number of concatenated MinHash values ``k``; when ``None`` it is
        selected automatically with the cost model of Section V-B.
    repetitions:
        The number of independent runs ``L``; when ``None`` it is derived from
        ``target_recall`` as ``⌈ln(1/(1-ϕ)) / λ^k⌉``.
    target_recall:
        Desired per-pair recall ``ϕ`` used when deriving ``L``.
    use_sketches:
        Whether bucket brute-forcing uses the 1-bit sketch filter.
    seed:
        Seed for coordinate sampling (and preprocessing when needed).
    backend:
        Execution backend of the filter/verify kernels (``"numpy"``, the
        default, or the ``"python"`` oracle); identical results either way.
    workers:
        Parallel workers executing the bucketing rounds (1 = sequential).
        The merged pair set is seed-deterministic for any worker count.
    executor:
        ``"serial"`` / ``"threads"`` / ``"processes"`` — how round shards are
        dispatched when ``workers > 1`` (see
        :mod:`repro.core.repetition`).
    measure:
        Similarity measure verification scores under (name, instance or
        ``None`` for Jaccard).  Bucketing collision probabilities are driven
        by the measure's Jaccard floor of the threshold; measures with no
        positive floor (overlap coefficient, containment) are rejected.
    """

    CANDIDATE_K_RANGE = range(2, 11)

    algorithm_name = "MINHASH"

    def __init__(
        self,
        threshold: float,
        num_hash_functions: Optional[int] = None,
        repetitions: Optional[int] = None,
        target_recall: float = 0.9,
        use_sketches: bool = True,
        sketch_false_negative_rate: float = 0.05,
        seed: Optional[int] = None,
        backend: Optional[str] = "numpy",
        workers: int = 1,
        executor: Optional[str] = None,
        measure=None,
    ) -> None:
        from repro.core.repetition import EXECUTOR_NAMES

        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        if not 0.0 < target_recall < 1.0:
            raise ValueError("target_recall must be in (0, 1)")
        if workers < 1:
            raise ValueError("workers must be at least 1")
        executor = "threads" if executor is None else str(executor).lower()
        if executor not in EXECUTOR_NAMES:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}")
        self.threshold = threshold
        self.measure = get_measure(measure)
        # MinHash collisions estimate (embedded) Jaccard, so the cost model
        # and the recall guarantee run at the measure's Jaccard floor of λ
        # (identical to λ for the default measure).
        self.embedded_threshold = self.measure.jaccard_floor(threshold)
        if self.embedded_threshold <= 0.0:
            raise ValueError(
                f"measure {self.measure.name!r} has no positive Jaccard floor at "
                f"threshold {threshold}; MinHash LSH cannot bound its collision "
                "probability — use an exact algorithm (allpairs / ppjoin)"
            )
        self.num_hash_functions = num_hash_functions
        self.repetitions = repetitions
        self.target_recall = target_recall
        self.use_sketches = use_sketches
        self.sketch_false_negative_rate = sketch_false_negative_rate
        self.seed = seed
        self.backend = backend
        self.workers = workers
        self.executor = executor

    # ------------------------------------------------------------------ public API
    def join(
        self,
        records: Sequence[Sequence[int]],
        sides: Optional[Sequence[int]] = None,
    ) -> JoinResult:
        """Preprocess ``records`` and run the join.

        ``sides`` (0 = R, 1 = S, one entry per record) makes the bucket
        brute-forcing side-aware: same-side pairs inside a bucket are skipped
        before any counting, turning the run into a native R ⋈ S join.
        """
        collection = preprocess_collection(records, seed=self.seed, sides=sides)
        return self.join_preprocessed(collection)

    def join_preprocessed(self, collection: PreprocessedCollection) -> JoinResult:
        """Run the join on an already preprocessed collection.

        All rounds' coordinates are drawn from one generator up front — the
        exact randomness consumption of the historical sequential loop — so
        a parallel run (``workers > 1``, any executor) buckets identically
        and reports the identical pair set.
        """
        rng = np.random.default_rng(self.seed)
        stats = JoinStats(
            algorithm=self.algorithm_name,
            threshold=self.threshold,
            num_records=collection.num_records,
            repetitions=0,
            preprocessing_seconds=collection.preprocessing_seconds,
        )
        k = self.num_hash_functions or self.select_k(collection, rng)
        stats.extra["k"] = float(k)
        repetitions = self.repetitions or self.repetitions_for_recall(k)
        coordinate_rounds = [
            self._draw_coordinates(collection.embedding_size, k, rng)
            for _ in range(repetitions)
        ]
        if self.workers == 1 or self.executor == "serial" or repetitions <= 1:
            return self._execute_rounds(collection, coordinate_rounds, stats)
        return self._join_parallel(collection, coordinate_rounds, stats)

    def _join_parallel(
        self,
        collection: PreprocessedCollection,
        coordinate_rounds: List[np.ndarray],
        stats: JoinStats,
    ) -> JoinResult:
        """Deal the rounds into shards and run them on parallel workers.

        Every shard runs the standard staged pipeline over its own engine;
        shard results are merged in shard order (counters are per-round sums,
        so the totals are identical to a sequential run).
        """
        from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

        from repro.core.repetition import process_pool_context, shard_round_robin

        shard_ids = shard_round_robin(len(coordinate_rounds), self.workers)
        shards = [[coordinate_rounds[index] for index in shard] for shard in shard_ids]
        pairs: set = set()
        with Timer() as timer:
            if self.executor == "processes":
                lease = collection.to_shared()
                try:
                    with ProcessPoolExecutor(
                        max_workers=len(shards), mp_context=process_pool_context()
                    ) as pool:
                        futures = [
                            pool.submit(_minhash_shard_worker, lease.handle, self, shard)
                            for shard in shards
                        ]
                        results = [future.result() for future in futures]
                finally:
                    lease.close()
            else:  # threads
                with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                    futures = [
                        pool.submit(self._execute_rounds, collection, shard)
                        for shard in shards
                    ]
                    results = [future.result() for future in futures]
            for result in results:
                pairs |= result.pairs
                stats.merge(result.stats)
        stats.results = len(pairs)
        stats.elapsed_seconds = timer.elapsed
        return JoinResult(pairs=pairs, stats=stats)

    def _execute_rounds(
        self,
        collection: PreprocessedCollection,
        coordinate_rounds: List[np.ndarray],
        stats: Optional[JoinStats] = None,
        count_repetitions: bool = True,
    ) -> JoinResult:
        """Run bucketing rounds through one staged engine.

        A parallel shard gets fresh ``stats``; the serial join and
        :meth:`run_once` pass their own.
        """
        if stats is None:
            stats = JoinStats(
                algorithm=self.algorithm_name,
                threshold=self.threshold,
                num_records=collection.num_records,
                repetitions=0,
            )
        engine = self._make_engine(collection)
        stage = MinHashBucketStage(self, collection, coordinate_rounds, stats, count_repetitions)
        with Timer() as timer:
            pairs = engine.execute(stage, stats)
        stats.results = len(pairs)
        stats.elapsed_seconds = timer.elapsed
        return JoinResult(pairs=pairs, stats=stats)

    def run_once(self, collection: PreprocessedCollection, repetition: int = 0) -> JoinResult:
        """Run a single repetition (used by the recall-targeting experiment driver)."""
        rng = JoinEngine.repetition_rng(self.seed, repetition, stream=_SEED_STREAM)
        stats = JoinStats(
            algorithm=self.algorithm_name,
            threshold=self.threshold,
            num_records=collection.num_records,
            repetitions=1,
        )
        k = self.num_hash_functions or self.select_k(collection, rng)
        stats.extra["k"] = float(k)
        coordinates = self._draw_coordinates(collection.embedding_size, k, rng)
        return self._execute_rounds(collection, [coordinates], stats, count_repetitions=False)

    def _make_engine(self, collection: PreprocessedCollection) -> JoinEngine:
        """The staged execution engine running this join's filter/verify stages."""
        return JoinEngine(
            collection,
            self.threshold,
            backend=self.backend,
            use_sketches=self.use_sketches,
            sketch_false_negative_rate=self.sketch_false_negative_rate,
            measure=self.measure,
        )

    # ------------------------------------------------------------------ internals
    def repetitions_for_recall(self, k: int) -> int:
        """Number of runs ``L = ⌈ln(1/(1-ϕ)) / λ^k⌉`` for the worst-case guarantee."""
        collision_probability = self.embedded_threshold**k
        return max(1, math.ceil(math.log(1.0 / (1.0 - self.target_recall)) / collision_probability))

    def select_k(self, collection: PreprocessedCollection, rng: np.random.Generator) -> int:
        """Choose ``k`` by estimating the cost of a single run for each candidate value.

        The cost model charges one unit per bucket lookup (``n`` per run) and
        one unit per candidate pair inside the buckets (``Σ |b| (|b|-1) / 2``),
        then scales by the number of repetitions ``1/λ^k`` needed to keep the
        recall fixed — a direct transcription of "minimizing the combined cost
        of lookups and similarity estimations" from Section V-B.
        """
        best_k = 2
        best_cost = math.inf
        for k in self.CANDIDATE_K_RANGE:
            coordinates = self._draw_coordinates(collection.embedding_size, k, rng)
            buckets = self._bucketize(collection, coordinates)
            pair_cost = sum(len(bucket) * (len(bucket) - 1) / 2 for bucket in buckets)
            lookup_cost = collection.num_records * k
            runs_needed = 1.0 / (self.embedded_threshold**k)
            cost = (lookup_cost + pair_cost) * runs_needed
            if cost < best_cost:
                best_cost = cost
                best_k = k
        return best_k

    @staticmethod
    def _draw_coordinates(num_functions: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """Sample one round's ``k`` distinct signature coordinates."""
        return rng.choice(num_functions, size=min(k, num_functions), replace=False)

    @staticmethod
    def _bucketize(collection: PreprocessedCollection, coordinates: np.ndarray) -> List[np.ndarray]:
        """Split the collection into buckets keyed by the concatenated MinHash values.

        One stable multi-column lexsort
        (:func:`repro.backend.kernels.group_rows_first_occurrence`):
        buckets in first-occurrence order, members in record order, buckets
        of fewer than two records dropped.
        """
        keys = collection.signatures.matrix[:, coordinates]
        return group_rows_first_occurrence(keys, min_size=2)


def minhash_lsh_join(
    records: Sequence[Sequence[int]],
    threshold: float,
    num_hash_functions: Optional[int] = None,
    repetitions: Optional[int] = None,
    seed: Optional[int] = None,
) -> JoinResult:
    """Functional convenience wrapper around :class:`MinHashLSHJoin`."""
    return MinHashLSHJoin(
        threshold,
        num_hash_functions=num_hash_functions,
        repetitions=repetitions,
        seed=seed,
    ).join(records)
