"""The shared staged join engine.

One driver executes every join algorithm in the repository.  An algorithm
contributes a :class:`~repro.engine.stages.CandidateStage` (all of its
randomness and policy) and optionally a custom filter stage; the engine owns
everything the three historical drivers used to hand-roll separately:

* **seeding** — :meth:`JoinEngine.repetition_rng` derives the per-repetition
  generator from ``(seed, stream, repetition)``, the scheme every algorithm
  shares;
* **stats accounting** — pre-candidate / candidate / verified counters and
  the per-stage wall-clock split (``candidate_seconds`` / ``filter_seconds``
  / ``verify_seconds`` on :class:`repro.result.JoinStats`);
* **side-masking** — R ⋈ S side labels travel with the preprocessed
  collection into the backend filter kernels, so same-side pairs are dropped
  before any counting regardless of the algorithm;
* **memory-bounded batching** — tasks are drained from the candidate stage
  and flushed through filter + verify before the accumulated candidate count
  would exceed ``batch_budget``.  A flush is expanded into flat pair blocks
  and filtered with one call per block; a single task above the budget is
  expanded in row ranges, so no block holds more than ``batch_budget`` pairs
  plus one row.

Because candidate generation is the only randomized stage and verification
never feeds back into it, the staged execution is bit-for-bit equivalent to
the historical fused loops: identical result pairs, identical counters.
"""

from __future__ import annotations

import time
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.backend import ExecutionBackend, make_backend
from repro.backend.kernels import PAIR_BLOCK_BUDGET, filter_task_pairs
from repro.core.preprocess import PreprocessedCollection
from repro.engine.stages import (
    CandidateStage,
    DedupStage,
    PairCandidates,
    PointCandidates,
    SketchFilterStage,
    SubsetCandidates,
    VerifyStage,
)
from repro.hashing.sketch import sketch_similarity_threshold
from repro.obs.tracing import event, span
from repro.result import JoinStats

__all__ = ["JoinEngine"]

Pair = Tuple[int, int]


class JoinEngine:
    """Drives candidate → dedup → filter → verify over one collection.

    Parameters
    ----------
    collection:
        The preprocessed records the join runs over (carries the R ⋈ S side
        labels, if any).
    threshold:
        Similarity threshold ``λ`` on the measure's own scale.
    backend:
        Execution backend name (``"python"`` / ``"numpy"``) or instance.
    use_sketches / sketch_false_negative_rate:
        Configuration of the default :class:`SketchFilterStage` (``δ``
        determines the estimator cut-off ``λ̂``).  The sketches estimate
        *Jaccard* similarity, so for a non-default measure the cut-off is
        derived from the measure's Jaccard floor — the smallest Jaccard any
        pair meeting the threshold can have.  Measures with a zero floor
        (overlap coefficient, containment) admit pairs of arbitrarily low
        Jaccard, so the sketch filter is unusable and must be disabled.
    measure:
        Similarity measure (name, instance or ``None`` for Jaccard) the
        verification kernels score under.  Ignored when ``backend`` is an
        already constructed instance (the instance's measure wins).
    batch_budget:
        Maximum number of pre-filter candidate pairs accumulated into one
        flush through the filter and verify stages, and the block size a
        larger single task is expanded in (bounds the engine's working
        memory).
    """

    DEFAULT_BATCH_BUDGET = PAIR_BLOCK_BUDGET

    def __init__(
        self,
        collection: PreprocessedCollection,
        threshold: float,
        backend=None,
        use_sketches: bool = True,
        sketch_false_negative_rate: float = 0.05,
        batch_budget: int = DEFAULT_BATCH_BUDGET,
        measure=None,
    ) -> None:
        if batch_budget < 1:
            raise ValueError("batch_budget must be positive")
        self.collection = collection
        self.threshold = threshold
        self.backend: ExecutionBackend = make_backend(backend, collection, threshold, measure)
        self.measure = self.backend.measure
        jaccard_floor = self.measure.jaccard_floor(threshold)
        if use_sketches and jaccard_floor <= 0.0:
            raise ValueError(
                f"measure {self.measure.name!r} has no positive Jaccard floor at "
                f"threshold {threshold}; the 1-bit minwise sketch filter cannot be "
                "used — pass use_sketches=False or use an exact algorithm"
            )
        self.use_sketches = use_sketches
        self.sketch_cutoff = sketch_similarity_threshold(
            jaccard_floor if use_sketches else threshold,
            collection.sketches.num_bits,
            sketch_false_negative_rate,
        )
        self.batch_budget = batch_budget
        self.verify_stage = VerifyStage(self.backend)

    # ------------------------------------------------------------------ seeding
    @staticmethod
    def repetition_rng(
        seed: Optional[int], repetition: int = 0, stream: int = 1
    ) -> np.random.Generator:
        """Per-repetition generator: ``default_rng(seed * stream + repetition)``.

        ``stream`` is an algorithm-specific odd multiplier keeping the
        repetition streams of different algorithms disjoint at equal seeds;
        ``seed=None`` yields OS entropy, as everywhere else in the library.
        """
        return np.random.default_rng(None if seed is None else seed * stream + repetition)

    def default_filter_stage(self) -> SketchFilterStage:
        """The standard size-probe + ``λ̂``-cut-off sketch filter stage."""
        return SketchFilterStage(self.backend, self.use_sketches, self.sketch_cutoff)

    # ------------------------------------------------------------------ execution
    def execute(
        self,
        candidates: CandidateStage,
        stats: JoinStats,
        filter_stage: Optional[SketchFilterStage] = None,
        dedup: Optional[DedupStage] = None,
    ) -> Set[Pair]:
        """Run the full pipeline; returns the verified result pair set.

        Counters and the per-stage timing split are accumulated into
        ``stats`` in place.  The candidate stage is consumed lazily: time
        spent producing tasks (including all recursion and bucketing work)
        lands in ``candidate_seconds``, the filter and verify stages are
        timed per flushed batch.
        """
        filter_stage = filter_stage if filter_stage is not None else self.default_filter_stage()
        dedup = dedup if dedup is not None else DedupStage()

        with span(
            "engine.execute",
            algorithm=stats.algorithm or type(candidates).__name__,
            backend=self.backend.name,
        ) as engine_span:
            pending: List = []
            pending_cost = 0
            generator = candidates.tasks()
            while True:
                started = time.perf_counter()
                task = next(generator, None)
                stats.candidate_seconds += time.perf_counter() - started
                if task is None:
                    break
                if pending and pending_cost + task.cost > self.batch_budget:
                    self._flush(pending, stats, filter_stage, dedup)
                    pending = []
                    pending_cost = 0
                pending.append(task)
                pending_cost += task.cost
            if pending:
                self._flush(pending, stats, filter_stage, dedup)
            if engine_span.enabled:
                event("engine.candidate", seconds=stats.candidate_seconds)
                engine_span.annotate(
                    pre_candidates=stats.pre_candidates,
                    candidates=stats.candidates,
                    results=len(dedup.result),
                )
        return dedup.result

    def _flush(
        self,
        tasks: List,
        stats: JoinStats,
        filter_stage: SketchFilterStage,
        dedup: DedupStage,
    ) -> None:
        """Filter one task batch, one ``filter_pairs`` call per pair block, then verify.

        Subset and point tasks expand into side-masked pair blocks counted as
        pre-candidates; :class:`PairCandidates` streams (counted by their
        producer) are deduplicated and side-masked into one more block.
        """
        started = time.perf_counter()
        with span("engine.filter", tasks=len(tasks)) as filter_span:
            subsets = [task.subset for task in tasks if isinstance(task, SubsetCandidates)]
            points = [(task.anchor, task.others) for task in tasks if isinstance(task, PointCandidates)]
            pairs = [pair for task in tasks if isinstance(task, PairCandidates) for pair in task.pairs]
            sides = self.backend.sides
            pre_candidates, firsts, seconds = filter_task_pairs(
                subsets, points, sides, self.batch_budget, filter_stage.filter_pairs
            )
            stats.pre_candidates += pre_candidates
            pairs_in = pre_candidates
            fresh = dedup.unique_candidates(pairs)
            if fresh:
                pairs_array = np.asarray(fresh, dtype=np.intp)
                pair_firsts, pair_seconds = pairs_array[:, 0], pairs_array[:, 1]
                # Side mask is an engine invariant, not producer discipline:
                # in a side-aware collection same-side pairs are dropped
                # before any filter sees them, whatever the candidate stage
                # emitted.
                if sides is not None:
                    cross = sides[pair_firsts] != sides[pair_seconds]
                    pair_firsts, pair_seconds = pair_firsts[cross], pair_seconds[cross]
                pairs_in += int(pair_firsts.size)
                if pair_firsts.size:
                    pair_firsts, pair_seconds = filter_stage.filter_pairs(pair_firsts, pair_seconds)
                    firsts = np.concatenate((firsts, pair_firsts))
                    seconds = np.concatenate((seconds, pair_seconds))
            stats.candidates += int(firsts.size)
            stats.verified += int(firsts.size)
            stats.filter_seconds += time.perf_counter() - started
            if filter_span.enabled:
                filter_span.annotate(pairs_in=pairs_in, survivors=int(firsts.size))
                event("engine.dedup", seen_candidates=dedup.seen_candidates)

        started = time.perf_counter()
        with span("engine.verify", candidates=int(firsts.size)):
            if firsts.size:
                mask = self.verify_stage.verify(firsts, seconds)
                dedup.accept(firsts, seconds, mask)
        stats.verify_seconds += time.perf_counter() - started
