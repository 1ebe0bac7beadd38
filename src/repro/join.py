"""Top-level public API of the reproduction.

Two entry points cover the common use cases:

* :func:`similarity_join` — self-join of one collection: report all pairs of
  records whose Jaccard similarity meets the threshold, with a choice of
  algorithm (``"cpsjoin"``, ``"minhash"``, ``"bayeslsh"``, ``"allpairs"``,
  ``"ppjoin"``, ``"naive"``).
* :func:`similarity_join_rs` — R ⋈ S join of two collections.  The randomized
  algorithms (``cpsjoin``, ``minhash``, ``bayeslsh``) run a **native
  side-aware path**: the records of both collections are preprocessed
  together with per-record side labels and the execution backends skip every
  same-side comparison, so only cross-side pairs are counted, filtered, and
  verified.  The exact algorithms (and ``native=False``) use the union
  self-join fallback the paper suggests in Section IV: self-join ``R ∪ S``
  and keep only pairs spanning the two sides.

Both return :class:`repro.result.JoinResult`; the approximate algorithms
achieve 100 % precision by construction (every reported pair is verified
exactly) and recall ≥ 90 % with the default parameters.

The randomized algorithms all execute through the shared staged pipeline of
:class:`repro.engine.JoinEngine` (candidate → dedup → sketch-filter →
verify), so every result carries the per-stage timing split
(``candidate_seconds`` / ``filter_seconds`` / ``verify_seconds``) in its
statistics.  For index-once/query-many workloads over the same records, see
:class:`repro.index.SimilarityIndex`.

Input validation is uniform across all algorithms: empty records raise
``ValueError`` (they cannot meet any positive similarity threshold, and the
hashing substrate of the randomized algorithms cannot embed them).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.approximate.bayeslsh import BayesLSHJoin
from repro.approximate.minhash_lsh import MinHashLSHJoin
from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.datasets.base import Record
from repro.exact.allpairs import AllPairsJoin
from repro.exact.naive import naive_join
from repro.exact.ppjoin import PPJoin
from repro.obs.bridge import record_join_stats
from repro.result import JoinResult, JoinStats, canonical_pair

__all__ = ["similarity_join", "similarity_join_rs", "ALGORITHMS", "NATIVE_RS_ALGORITHMS"]

ALGORITHMS = ("cpsjoin", "minhash", "bayeslsh", "allpairs", "ppjoin", "naive")
"""Names accepted by the ``algorithm`` argument of :func:`similarity_join`."""

NATIVE_RS_ALGORITHMS = ("cpsjoin", "minhash", "bayeslsh")
"""Algorithms with a native side-aware R ⋈ S path in :func:`similarity_join_rs`."""


def _normalize_records(records: Sequence[Sequence[int]], label: str = "record") -> List[Record]:
    """Normalize records to sorted distinct-token tuples, rejecting empty ones.

    Every algorithm goes through this check, so ``cpsjoin`` and the exact
    baselines raise the same error for the same bad input.
    """
    normalized = [tuple(sorted(set(int(token) for token in record))) for record in records]
    for index, record in enumerate(normalized):
        if not record:
            raise ValueError(f"{label} {index} is empty; empty records cannot be joined")
    return normalized


def _effective_cpsjoin_config(
    config: Optional[CPSJoinConfig],
    seed: Optional[int],
    backend: Optional[str],
    workers: Optional[int],
    executor: Optional[str],
    measure=None,
) -> CPSJoinConfig:
    """Resolve the CPSJOIN configuration from the public API arguments.

    Explicit keyword arguments always win over the corresponding ``config``
    fields: a caller passing both ``config`` and ``seed=`` gets the explicit
    seed regardless of whether ``config.seed`` was already set.
    """
    effective = config if config is not None else CPSJoinConfig()
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if backend is not None:
        overrides["backend"] = backend
    if workers is not None:
        overrides["workers"] = workers
    if executor is not None:
        overrides["executor"] = executor
    if measure is not None:
        overrides["measure"] = measure
    if overrides:
        effective = effective.with_overrides(**overrides)
    return effective


def similarity_join(
    records: Sequence[Sequence[int]],
    threshold: float,
    algorithm: str = "cpsjoin",
    config: Optional[CPSJoinConfig] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    measure=None,
) -> JoinResult:
    """Compute the set similarity self-join of a collection.

    Parameters
    ----------
    records:
        Collection of token sets (any iterables of non-negative ints); every
        record must be non-empty.
    threshold:
        Jaccard similarity threshold ``λ``; pairs with ``J(x, y) ≥ λ`` are
        reported.
    algorithm:
        One of :data:`ALGORITHMS`.  ``"cpsjoin"`` (default) is the paper's
        contribution; ``"allpairs"`` / ``"ppjoin"`` / ``"naive"`` are exact;
        ``"minhash"`` / ``"bayeslsh"`` are the approximate baselines.
    config:
        CPSJOIN configuration (only used by ``algorithm="cpsjoin"``).
    seed:
        Randomness seed for the randomized algorithms; ignored by the exact
        ones.  An explicit seed takes precedence over ``config.seed``.
    backend:
        Execution backend of the filter/verify kernels (``"numpy"``, the
        default, or the ``"python"`` oracle); used by ``cpsjoin``,
        ``minhash`` and ``bayeslsh`` and ignored by the exact algorithms.
        Overrides ``config.backend``.
    workers:
        Parallel workers for the randomized algorithms: CPSJOIN runs its
        repetitions and MinHash LSH its bucketing rounds on this many workers
        (overriding ``config.workers`` for cpsjoin); results are
        seed-deterministic for any worker count.  ``bayeslsh`` has no
        parallel path and raises a clear error for ``workers > 1``; the exact
        algorithms ignore the argument.
    executor:
        How parallel work is dispatched: ``"serial"``, ``"threads"``
        (default) or ``"processes"`` (shared-memory workers; see
        :mod:`repro.core.repetition`).  Overrides ``config.executor`` for
        cpsjoin.
    measure:
        Similarity measure pairs are scored under: a registered name
        (``"jaccard"``, ``"cosine"``, ``"dice"``, ``"overlap"``,
        ``"braun_blanquet"``, ``"containment"``), a
        :class:`~repro.similarity.Measure` instance (possibly carrying
        per-token weights), or ``None`` for plain Jaccard.  ``threshold`` is
        interpreted on the measure's own scale.  The randomized algorithms
        run their candidate generation at the measure's Jaccard floor and
        reject measures without one (overlap / containment); the exact
        algorithms support every registered measure.  Overrides
        ``config.measure`` for cpsjoin.

    Returns
    -------
    JoinResult
        Reported pairs as ``(i, j)`` record-index tuples with ``i < j``, plus
        run statistics.
    """
    normalized = _normalize_records(records)
    return _dispatch_join(
        normalized,
        threshold,
        algorithm,
        config,
        seed,
        backend,
        workers,
        executor,
        sides=None,
        measure=measure,
    )


def _dispatch_join(
    normalized: List[Record],
    threshold: float,
    algorithm: str,
    config: Optional[CPSJoinConfig],
    seed: Optional[int],
    backend: Optional[str],
    workers: Optional[int],
    executor: Optional[str],
    sides: Optional[Sequence[int]],
    measure=None,
) -> JoinResult:
    """Run one algorithm on already normalized records (optionally side-aware)."""
    result = _run_algorithm(
        normalized, threshold, algorithm, config, seed, backend, workers, executor, sides, measure
    )
    # One bridge call per dispatched join: the merged (post-repetition) stats
    # reach the metrics registry exactly once, identically for every
    # executor — a no-op unless a registry is enabled.
    record_join_stats(result.stats)
    return result


def _run_algorithm(
    normalized: List[Record],
    threshold: float,
    algorithm: str,
    config: Optional[CPSJoinConfig],
    seed: Optional[int],
    backend: Optional[str],
    workers: Optional[int],
    executor: Optional[str],
    sides: Optional[Sequence[int]],
    measure=None,
) -> JoinResult:
    name = algorithm.lower()
    if name == "cpsjoin":
        effective = _effective_cpsjoin_config(config, seed, backend, workers, executor, measure)
        return CPSJoin(threshold, effective).join(normalized, sides=sides)
    if name == "minhash":
        return MinHashLSHJoin(
            threshold,
            seed=seed,
            backend=backend,
            workers=1 if workers is None else workers,
            executor=executor,
            measure=measure,
        ).join(normalized, sides=sides)
    if name == "bayeslsh":
        return BayesLSHJoin(
            threshold,
            seed=seed,
            backend=backend,
            workers=workers,
            executor=executor,
            measure=measure,
        ).join(normalized, sides=sides)
    if sides is not None:
        raise ValueError(
            f"algorithm {algorithm!r} has no native side-aware path; "
            f"expected one of {NATIVE_RS_ALGORITHMS}"
        )
    if name == "allpairs":
        return AllPairsJoin(threshold, measure=measure).join(normalized)
    if name == "ppjoin":
        return PPJoin(threshold, measure=measure).join(normalized)
    if name == "naive":
        return naive_join(normalized, threshold, measure=measure)
    raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def similarity_join_rs(
    left_records: Sequence[Sequence[int]],
    right_records: Sequence[Sequence[int]],
    threshold: float,
    algorithm: str = "cpsjoin",
    config: Optional[CPSJoinConfig] = None,
    seed: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    native: bool = True,
    measure=None,
) -> JoinResult:
    """Compute the R ⋈ S similarity join of two collections.

    The returned pairs are ``(left_index, right_index)`` tuples indexing into
    the two input collections.

    With ``native=True`` (the default) and a randomized algorithm
    (:data:`NATIVE_RS_ALGORITHMS`), the join runs the **native side-aware
    path**: both collections are preprocessed together with per-record side
    labels, and the execution backends drop same-side pairs before any
    counting, filtering, or verification.  The reported
    ``pre_candidates`` / ``candidates`` / ``verified`` statistics therefore
    count *only cross-side work* — zero same-side pairs are ever verified
    (``stats.extra["same_side_verified"]`` is always 0 on this path, and
    ``stats.extra["rs_native"]`` is 1).

    With ``native=False``, or for the exact algorithms (which have no
    randomized candidate-generation stage to make side-aware), the join falls
    back to the construction the paper suggests in Section IV: a full
    self-join of the union ``R ∪ S`` whose same-side pairs are discarded
    afterwards.  On the fallback path the statistics describe the union
    self-join, so they include same-side work (``stats.extra["rs_native"]``
    is 0).

    At a fixed seed the two paths report exactly the same cross pairs for the
    randomized algorithms — the side labels change which comparisons are
    *executed*, not the recursion or its randomness — so the native path is a
    strict reduction in verification work.
    """
    normalized_left = _normalize_records(left_records, label="left record")
    normalized_right = _normalize_records(right_records, label="right record")
    union = normalized_left + normalized_right
    split = len(normalized_left)

    name = algorithm.lower()
    if native and name in NATIVE_RS_ALGORITHMS:
        sides = [0] * split + [1] * len(normalized_right)
        union_result = _dispatch_join(
            union,
            threshold,
            algorithm,
            config,
            seed,
            backend,
            workers,
            executor,
            sides=sides,
            measure=measure,
        )
        # Every reported pair is cross-side by construction: (i, j) with
        # i < split <= j in union indexing maps to (i, j - split).
        cross_pairs = {(first, second - split) for first, second in union_result.pairs}
        extra = dict(union_result.stats.extra)
        extra["rs_native"] = 1.0
        extra["same_side_verified"] = 0.0
    else:
        union_result = _dispatch_join(
            union,
            threshold,
            algorithm,
            config,
            seed,
            backend,
            workers,
            executor,
            sides=None,
            measure=measure,
        )
        cross_pairs: Set[Tuple[int, int]] = set()
        for first, second in union_result.pairs:
            low, high = canonical_pair(first, second)
            if low < split <= high:
                cross_pairs.add((low, high - split))
        extra = dict(union_result.stats.extra)
        extra["rs_native"] = 0.0

    stats = JoinStats(
        algorithm=union_result.stats.algorithm,
        threshold=threshold,
        num_records=len(union),
        pre_candidates=union_result.stats.pre_candidates,
        candidates=union_result.stats.candidates,
        verified=union_result.stats.verified,
        results=len(cross_pairs),
        repetitions=union_result.stats.repetitions,
        elapsed_seconds=union_result.stats.elapsed_seconds,
        worker_seconds=union_result.stats.worker_seconds,
        preprocessing_seconds=union_result.stats.preprocessing_seconds,
        extra=extra,
    )
    return JoinResult(pairs=cross_pairs, stats=stats)
