"""Stage definitions of the shared join execution pipeline.

Every join algorithm in the repository decomposes into the same four stages,
driven by :class:`repro.engine.JoinEngine`:

* :class:`CandidateStage` — algorithm-specific candidate generation.  A stage
  yields *tasks* describing homogeneous batches of candidate pairs: all pairs
  within a subset (:class:`SubsetCandidates`, the BRUTEFORCEPAIRS shape), one
  record against a subset (:class:`PointCandidates`, BRUTEFORCEPOINT), or an
  explicit pair stream (:class:`PairCandidates`, the BayesLSH shape).  All of
  an algorithm's randomness lives here; the downstream stages are
  deterministic, which is what makes the staged execution bit-for-bit
  equivalent to the historical fused loops.
* :class:`DedupStage` — owns both deduplication points of a join: collapsing
  repeated candidate pairs from :class:`PairCandidates` streams before they
  are filtered, and collapsing accepted pairs reported by overlapping tasks
  into the final result set.
* :class:`SketchFilterStage` — the cheap filters: side mask, size
  compatibility probe and the 1-bit minwise sketch estimate with cut-off
  ``λ̂``, executed by the bound :class:`repro.backend.ExecutionBackend`.
  Algorithms with a different pruning rule substitute a subclass (BayesLSH
  replaces the fixed cut-off with its incremental posterior pruning).
* :class:`VerifyStage` — exact verification of every filter survivor on the
  original token sets, through the backend's block verifier.

Counting conventions (matching Table IV of the paper): ``pre_candidates``
counts every pair a task considers after the side mask; for
:class:`PairCandidates` streams the *producer* counts raw emissions before
deduplication (the historical BayesLSH accounting).  ``candidates`` and
``verified`` count filter survivors — exactly the pairs handed to
:class:`VerifyStage`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.backend import ExecutionBackend
from repro.backend.kernels import PAIR_BLOCK_BUDGET, filter_task_pairs
from repro.result import canonical_pair

__all__ = [
    "CandidateStage",
    "DedupStage",
    "PairCandidates",
    "PointCandidates",
    "SketchFilterStage",
    "SubsetCandidates",
    "Task",
    "VerifyStage",
]

Pair = Tuple[int, int]


# ---------------------------------------------------------------------- tasks
@dataclass(frozen=True)
class SubsetCandidates:
    """All pairs within ``subset`` are candidates (BRUTEFORCEPAIRS shape).

    ``subset`` is any integer sequence: scalar candidate walks emit tuples,
    the array frontier emits numpy index slices — the filter stages accept
    both (they index the backend's arrays with it directly).
    """

    subset: Sequence[int]

    @property
    def cost(self) -> int:
        return len(self.subset) * (len(self.subset) - 1) // 2


@dataclass(frozen=True)
class PointCandidates:
    """Every (anchor, other) pair is a candidate (BRUTEFORCEPOINT shape).

    ``others`` is any integer sequence (tuple or numpy index array), like
    :class:`SubsetCandidates.subset`.
    """

    anchor: int
    others: Sequence[int]

    @property
    def cost(self) -> int:
        return len(self.others)


@dataclass(frozen=True)
class PairCandidates:
    """An explicit stream of candidate pairs (LSH/AllPairs candidate shape).

    The producer is responsible for counting ``stats.pre_candidates`` for raw
    emissions; the engine deduplicates the stream through
    :class:`DedupStage` before filtering.
    """

    pairs: Tuple[Pair, ...]

    @property
    def cost(self) -> int:
        return len(self.pairs)


Task = Union[SubsetCandidates, PointCandidates, PairCandidates]


# ------------------------------------------------------------- candidate stage
class CandidateStage(ABC):
    """Algorithm-specific candidate generation.

    Concrete stages live next to their algorithms (the Chosen Path walk
    in :mod:`repro.core.cpsjoin`, the bucketing loop in
    :mod:`repro.approximate.minhash_lsh`, the LSH/AllPairs candidate
    generators in :mod:`repro.approximate.bayeslsh`); the engine only sees
    the task stream.
    """

    @abstractmethod
    def tasks(self) -> Iterator[Task]:
        """Yield candidate tasks.  May be lazy; consumed exactly once."""


# ----------------------------------------------------------------- dedup stage
class DedupStage:
    """Deduplication of candidate streams and of accepted result pairs."""

    def __init__(self) -> None:
        self._seen_candidates: Set[Pair] = set()
        self.result: Set[Pair] = set()

    @property
    def seen_candidates(self) -> int:
        """Distinct candidate pairs deduplicated so far (trace annotation)."""
        return len(self._seen_candidates)

    def unique_candidates(self, pairs: Iterable[Pair]) -> List[Pair]:
        """Canonicalize a raw candidate pair stream and drop repeats."""
        seen = self._seen_candidates
        fresh: List[Pair] = []
        for first, second in pairs:
            pair = canonical_pair(int(first), int(second))
            if pair not in seen:
                seen.add(pair)
                fresh.append(pair)
        return fresh

    def accept(self, firsts: np.ndarray, seconds: np.ndarray, mask: np.ndarray) -> None:
        """Fold verified pairs into the result set (collapsing duplicates)."""
        for first, second in zip(firsts[mask], seconds[mask]):
            self.result.add(canonical_pair(int(first), int(second)))


# ---------------------------------------------------------------- filter stage
class SketchFilterStage:
    """Side mask + size probe + 1-bit sketch filter with a fixed cut-off ``λ̂``.

    The engine calls :meth:`filter_pairs` once per expanded pair block; it
    delegates to the backend's one filter kernel (word-major numpy or the
    scalar python oracle — identical survivors).  Algorithms with another
    pruning rule override it (BayesLSH's posterior check).
    :meth:`filter_subset` / :meth:`filter_point` filter one task through the
    same expansion and :meth:`filter_pairs`.
    """

    def __init__(self, backend: ExecutionBackend, use_sketches: bool, sketch_cutoff: float) -> None:
        self.backend = backend
        self.use_sketches = use_sketches
        self.sketch_cutoff = sketch_cutoff

    def filter_subset(self, subset: Sequence[int]) -> Tuple[int, np.ndarray, np.ndarray]:
        """Filter all pairs within a subset; returns ``(pre, firsts, seconds)``."""
        return filter_task_pairs(
            [subset], (), self.backend.sides, PAIR_BLOCK_BUDGET, self.filter_pairs
        )

    def filter_point(self, anchor: int, others: Sequence[int]) -> Tuple[int, np.ndarray, np.ndarray]:
        """Filter one record against a subset; returns ``(pre, firsts, seconds)``."""
        return filter_task_pairs(
            (), [(anchor, others)], self.backend.sides, PAIR_BLOCK_BUDGET, self.filter_pairs
        )

    def filter_pairs(self, firsts: np.ndarray, seconds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Filter an aligned block of (already side-masked) pairs; returns the survivors."""
        if firsts.size == 0:
            return firsts, seconds
        return self.backend.filter_pairs(firsts, seconds, self.use_sketches, self.sketch_cutoff)


# ---------------------------------------------------------------- verify stage
class VerifyStage:
    """Exact verification of filter survivors on the original token sets."""

    def __init__(self, backend: ExecutionBackend) -> None:
        self.backend = backend

    def verify(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Boolean accept mask over a block of (first, second) pairs."""
        return self.backend.verify_pairs(firsts, seconds)
