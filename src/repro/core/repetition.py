"""Repetition engine: boosting the recall of randomized joins, in parallel.

A single CPSJOIN run reports each qualifying pair with probability
``ϕ = Ω(ε / log n)`` (Lemma 6); ``r`` independent repetitions miss a pair with
probability at most ``(1 - ϕ)^r``.  The paper fixes ten repetitions, which
empirically achieves more than 90 % recall on every dataset and threshold
(Section V-A.5).

The repetitions are statistically independent — repetition ``r`` derives its
randomness only from ``config.seed`` and ``r`` — so the engine can execute
them on a pool of parallel workers and still produce results that are
bit-for-bit identical to a sequential run: results are always merged in
repetition order, regardless of completion order.  Within a repetition the
randomness is likewise order-agnostic: the repetition generator is consumed
once for a root entropy draw, and every Chosen Path tree node derives its
split coordinates and estimator stream from its own node key (see
:mod:`repro.core.frontier`), so any worker consumes identical per-node
randomness.
*How* the repetitions are dispatched is a pluggable **executor**:

* ``"serial"`` — run in-process, one after the other (the reference).
* ``"threads"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap
  to start and shares the collection for free, but the GIL serializes all
  pure-Python work; it only helps when the numpy backend spends most of its
  time inside C kernels.
* ``"processes"`` — a :class:`~concurrent.futures.ProcessPoolExecutor` fed
  through shared memory: the parent places the collection's
  :class:`repro.store.RecordStore` in a shared segment once
  (:meth:`~repro.store.RecordStore.to_shared`), ships only the tiny store
  handle, the engine object and a shard of repetition ids to each worker,
  and every worker attaches zero-copy and runs its shard through the staged
  :class:`repro.engine.JoinEngine`.  No record objects are ever pickled;
  results come back as plain pair sets and are merged in repetition order.

Each repetition runs through the shared staged pipeline of
:class:`repro.engine.JoinEngine` (the engines' ``run_once`` dispatches
there), so merged statistics carry the per-stage timing split: the
``candidate_seconds`` / ``filter_seconds`` / ``verify_seconds`` fields sum
worker-side stage times across repetitions, exactly like
``worker_seconds``.

Timing is reported honestly under parallelism: ``JoinStats.elapsed_seconds``
is the wall-clock time of the whole join while ``JoinStats.worker_seconds``
sums the time the individual repetitions measured for themselves (the two
coincide for ``workers=1`` up to scheduling overhead).

The experiments additionally use an *adaptive* mode mirroring Section VI-2:
repetitions are run one at a time and stopped as soon as the measured recall
against a known ground truth (or a sampled estimate of it) reaches the target.
Both modes are provided here; the adaptive mode is what the Table II and
Figure 2 harnesses use so that every algorithm is compared at the same recall
level, exactly as the paper does.
"""

from __future__ import annotations

import contextvars
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import CPSJoinConfig
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.obs.tracing import span
from repro.result import JoinResult, JoinStats, Timer, canonical_pair
from repro.store import RecordStore, StoreHandle

__all__ = [
    "EXECUTOR_NAMES",
    "RepetitionEngine",
    "join_with_target_recall",
    "repetitions_for_recall",
    "process_pool_context",
]

Pair = Tuple[int, int]

EXECUTOR_NAMES = ("serial", "threads", "processes")
"""Names accepted by ``executor=`` arguments throughout the library."""


def repetitions_for_recall(single_run_recall: float, target_recall: float) -> int:
    """Number of independent repetitions needed to boost a per-pair recall.

    If one run reports a pair with probability ``ϕ``, then ``r`` runs reach
    recall ``1 - (1 - ϕ)^r``; solving for ``r`` gives the bound used both by
    the MinHash LSH baseline (Section V-B) and the theory of Section IV.
    """
    if not 0.0 < single_run_recall < 1.0:
        raise ValueError("single_run_recall must be in (0, 1)")
    if not 0.0 < target_recall < 1.0:
        raise ValueError("target_recall must be in (0, 1)")
    return max(1, math.ceil(math.log(1.0 - target_recall) / math.log(1.0 - single_run_recall)))


def process_pool_context():
    """The multiprocessing context the process executor uses.

    ``fork`` on Linux (workers start in milliseconds and inherit the
    imported modules), ``spawn`` everywhere else — macOS offers fork but
    forking after the ObjC runtime / Accelerate BLAS initialize is unsafe,
    which is why CPython made spawn the macOS default (bpo-33725).  Either
    way the data travels through shared memory, not the inherited address
    space, so the choice only affects startup latency.
    """
    import sys

    if sys.platform == "linux" and "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def shard_round_robin(count: int, shards: int, start: int = 0) -> List[List[int]]:
    """Deal ``count`` items (numbered from ``start``) round-robin into shards.

    Round-robin keeps the shards balanced when per-repetition cost drifts
    with the repetition index; the merge re-orders by id anyway, so the
    dealing order never affects results.
    """
    shards = max(1, min(shards, count))
    dealt: List[List[int]] = [[] for _ in range(shards)]
    for offset in range(count):
        dealt[offset % shards].append(start + offset)
    return dealt


# ---------------------------------------------------------------------------
# Worker-process side.  A worker attaches the shared store once per segment
# and caches the attachment for its lifetime: repeated tasks on the same
# collection cost zero additional copies or pickling.
# ---------------------------------------------------------------------------
_WORKER_COLLECTIONS: Dict[str, PreprocessedCollection] = {}


def _attached_collection(handle: StoreHandle) -> PreprocessedCollection:
    """Attach (or reuse) the shared store behind ``handle`` in this worker."""
    collection = _WORKER_COLLECTIONS.get(handle.segment_name)
    if collection is None:
        store = RecordStore.attach(handle)
        collection = PreprocessedCollection.from_store(store)
        _WORKER_COLLECTIONS[handle.segment_name] = collection
    return collection


def _run_repetition_shard(
    handle: StoreHandle, engine, repetition_ids: Sequence[int]
) -> List[Tuple[int, JoinResult]]:
    """Run a shard of repetitions against the shared store (worker entry point)."""
    collection = _attached_collection(handle)
    return [
        (repetition, engine.run_once(collection, repetition=repetition))
        for repetition in repetition_ids
    ]


class RepetitionEngine:
    """Runs a randomized join engine repeatedly, accumulating results.

    Parameters
    ----------
    engine:
        Any engine exposing ``run_once(collection, repetition=r)`` and a
        ``threshold`` attribute (CPSJOIN in this repository).  The process
        executor pickles the engine object itself — engines are small policy
        objects (a threshold plus a config), never data carriers.
    collection:
        A preprocessed collection (shared read-only across repetitions, as in
        the paper where preprocessing is done once and excluded from join
        time).  A side-aware collection (R ⋈ S join, see
        :func:`repro.core.preprocess.preprocess_collection`) works unchanged:
        the side labels travel with the collection into every repetition, and
        the deterministic merge is oblivious to them.
    workers:
        Number of parallel workers.  ``1`` always runs sequentially.  The
        merged result is independent of the worker count for a fixed engine
        seed.
    executor:
        ``"serial"``, ``"threads"`` (default) or ``"processes"`` — see the
        module docstring for the trade-offs.  ``"serial"`` ignores
        ``workers``; with ``workers=1`` all executors reduce to the serial
        path.
    """

    def __init__(
        self,
        engine,
        collection: PreprocessedCollection,
        workers: int = 1,
        executor: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        executor = "threads" if executor is None else str(executor).lower()
        if executor not in EXECUTOR_NAMES:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}")
        self.engine = engine
        self.collection = collection
        self.workers = workers
        self.executor = executor
        self._lease = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Tear down the process pool and unlink the shared segment.

        Idempotent and double-close safe; called automatically at the end of
        :meth:`run_fixed` / :meth:`run_until_recall`.  A closed engine lazily
        re-creates its resources on the next run.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        lease, self._lease = self._lease, None
        if lease is not None:
            lease.close()

    def __enter__(self) -> "RepetitionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        """Lazily create the shared segment and the worker pool (kept across waves)."""
        if self._lease is None:
            self._lease = self.collection.to_shared()
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=process_pool_context()
            )
        return self._pool

    # ------------------------------------------------------------------ execution
    def _run_repetitions(self, count: int, start: int = 0) -> List[JoinResult]:
        """Run ``count`` repetitions (numbered from ``start``), in repetition order.

        With ``workers > 1`` the repetitions execute concurrently but the
        returned list is always ordered by repetition number, making every
        downstream merge deterministic — and identical across executors.
        """
        if self.executor == "serial" or self.workers == 1 or count <= 1:
            return [
                self._run_one_traced(start + offset)
                for offset in range(count)
            ]
        if self.executor == "processes":
            return self._run_repetitions_processes(count, start)
        with ThreadPoolExecutor(max_workers=min(self.workers, count)) as pool:
            # Each task gets its own context copy so repetition spans nest
            # under the caller's span despite the thread hop (and two tasks
            # never race on one Context object).
            futures = [
                pool.submit(
                    contextvars.copy_context().run, self._run_one_traced, start + offset
                )
                for offset in range(count)
            ]
            return [future.result() for future in futures]

    def _run_one_traced(self, repetition: int) -> JoinResult:
        """One repetition, wrapped in its correlation span."""
        with span("join.repetition", repetition=repetition, executor=self.executor):
            return self.engine.run_once(self.collection, repetition=repetition)

    def _run_repetitions_processes(self, count: int, start: int) -> List[JoinResult]:
        """Dispatch repetition shards to worker processes over the shared store.

        Each worker receives the store handle, the (pickled) engine and its
        shard of repetition ids; it attaches the shared segment zero-copy and
        runs the shard through the staged join engine.  Results are keyed by
        repetition id and returned in repetition order.
        """
        pool = self._ensure_process_pool()
        handle = self._lease.handle
        shards = shard_round_robin(count, self.workers, start=start)
        # Worker processes carry no tracer; the wave span on the parent side
        # is the correlation point for the whole fan-out.
        with span(
            "join.process_wave", repetitions=count, start=start, shards=len(shards)
        ):
            futures = [
                pool.submit(_run_repetition_shard, handle, self.engine, shard)
                for shard in shards
            ]
            by_repetition: Dict[int, JoinResult] = {}
            for future in futures:
                for repetition, result in future.result():
                    by_repetition[repetition] = result
        return [by_repetition[start + offset] for offset in range(count)]

    def _fresh_stats(self) -> JoinStats:
        return JoinStats(
            algorithm=getattr(self.engine, "algorithm_name", "CPSJOIN"),
            threshold=self.engine.threshold,
            num_records=self.collection.num_records,
            repetitions=0,
            preprocessing_seconds=self.collection.preprocessing_seconds,
        )

    # ------------------------------------------------------------------ fixed repetitions
    def run_fixed(self, repetitions: int) -> JoinResult:
        """Run a fixed number of repetitions and return the union of results."""
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        pairs: Set[Pair] = set()
        stats = self._fresh_stats()
        try:
            with Timer() as wall:
                for result in self._run_repetitions(repetitions):
                    pairs |= result.pairs
                    stats.merge(result.stats)
        finally:
            self.close()
        stats.results = len(pairs)
        stats.elapsed_seconds = wall.elapsed
        return JoinResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------ recall-targeted repetitions
    def run_until_recall(
        self,
        ground_truth: Iterable[Pair],
        target_recall: float = 0.9,
        max_repetitions: int = 50,
    ) -> JoinResult:
        """Repeat until the measured recall against ``ground_truth`` reaches the target.

        This mirrors the experimental protocol of Section VI-2: the recall of
        the approximate methods is measured against the exact result and
        repetitions stop once the target (90 % in the paper) is reached.

        With ``workers > 1`` repetitions are dispatched in waves of
        ``workers`` (the process pool and shared segment persist across
        waves), but the recall check is still applied in repetition order and
        merging stops at the first repetition meeting the target — so the
        returned result is identical to a sequential run (surplus repetitions
        of the final wave are computed but discarded).
        """
        if not 0.0 < target_recall <= 1.0:
            raise ValueError("target_recall must be in (0, 1]")
        truth = {canonical_pair(*pair) for pair in ground_truth}
        pairs: Set[Pair] = set()
        stats = self._fresh_stats()
        try:
            with Timer() as wall:
                completed = 0
                done = False
                while completed < max_repetitions and not done:
                    wave = min(self.workers, max_repetitions - completed)
                    for result in self._run_repetitions(wave, start=completed):
                        pairs |= result.pairs
                        stats.merge(result.stats)
                        completed += 1
                        if not truth:
                            done = True
                            break
                        recall = sum(1 for pair in truth if pair in pairs) / len(truth)
                        stats.extra["measured_recall"] = recall
                        if recall >= target_recall:
                            done = True
                            break
        finally:
            self.close()
        stats.results = len(pairs)
        stats.elapsed_seconds = wall.elapsed
        return JoinResult(pairs=pairs, stats=stats)


def join_with_target_recall(
    records: Sequence[Sequence[int]],
    threshold: float,
    ground_truth: Iterable[Pair],
    target_recall: float = 0.9,
    config: Optional[CPSJoinConfig] = None,
    max_repetitions: int = 50,
) -> JoinResult:
    """Convenience wrapper: preprocess, then repeat CPSJOIN until the target recall.

    Used by the experiment harnesses that, like the paper, compare algorithms
    at a fixed recall level of at least 90 %.
    """
    from repro.core.cpsjoin import CPSJoin

    config = config if config is not None else CPSJoinConfig()
    engine = CPSJoin(threshold, config)
    collection = preprocess_collection(
        records,
        embedding_size=config.embedding_size,
        sketch_words=config.sketch_words,
        seed=config.seed,
    )
    driver = RepetitionEngine(
        engine, collection, workers=config.workers, executor=config.executor
    )
    return driver.run_until_recall(ground_truth, target_recall=target_recall, max_repetitions=max_repetitions)
