"""Shared result and instrumentation types for every join algorithm.

Every join in the repository — exact or approximate — returns a
:class:`JoinResult` holding the reported pairs together with a
:class:`JoinStats` record.  The statistics fields follow the definitions used
for Table IV of the paper:

* **pre-candidates** — every pair the algorithm looks at before any filtering
  (for ALLPAIRS: pairs passing the size-compatibility probe on the inverted
  lists; for CPSJOIN: every pair considered by the BRUTEFORCEPAIRS /
  BRUTEFORCEPOINT subroutines).
* **candidates** — pairs passed to the exact verification step (after the
  size check and, for the approximate methods, the 1-bit minwise sketch
  check).  For CPSJOIN candidates may contain duplicates, as in the paper.
* **results** — pairs whose exact similarity meets the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

__all__ = ["JoinStats", "JoinResult", "Timer", "canonical_pair"]

Pair = Tuple[int, int]


def canonical_pair(first: int, second: int) -> Pair:
    """Return the pair ordered so the smaller index comes first."""
    if first == second:
        raise ValueError("a record cannot be joined with itself")
    return (first, second) if first < second else (second, first)


@dataclass
class JoinStats:
    """Counters and timings collected while running a join."""

    algorithm: str = ""
    threshold: float = 0.0
    num_records: int = 0
    pre_candidates: int = 0
    candidates: int = 0
    verified: int = 0
    results: int = 0
    repetitions: int = 1
    elapsed_seconds: float = 0.0
    worker_seconds: float = 0.0
    preprocessing_seconds: float = 0.0
    candidate_seconds: float = 0.0
    filter_seconds: float = 0.0
    verify_seconds: float = 0.0
    index_build_seconds: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    def add_extra(self, key: str, amount: float = 1.0) -> None:
        """Accumulate an ad-hoc counter in :attr:`extra`.

        Replaces the repeated ``extra[key] = extra.get(key, 0.0) + n`` pattern
        at the call sites, so every candidate-stage implementation bumps the
        same keys the same way.
        """
        self.extra[key] = self.extra.get(key, 0.0) + float(amount)

    def max_extra(self, key: str, value: float) -> None:
        """Track a running maximum in :attr:`extra` (``max_``-style keys).

        Always materializes the key, so a run that never exceeds zero still
        reports the counter (matching :meth:`merge`'s max semantics).
        """
        self.extra[key] = max(self.extra.get(key, 0.0), float(value))

    def merge(self, other: "JoinStats") -> None:
        """Accumulate counters from another run (used by the repetition driver).

        Timing fields are kept separate so parallel repetitions report honest
        numbers: ``worker_seconds`` accumulates the CPU time the individual
        runs measured for themselves, while ``elapsed_seconds`` is meant to be
        the wall-clock time of the whole join — the repetition engine
        overwrites it with its own wall-clock timer after merging, so that
        running repetitions on 4 workers does not report 4× the real time.
        """
        self.pre_candidates += other.pre_candidates
        self.candidates += other.candidates
        self.verified += other.verified
        self.elapsed_seconds += other.elapsed_seconds
        # Per-stage timings are worker-side times (like worker_seconds): they
        # sum across repetitions, so with parallel workers their total can
        # exceed the merged wall clock.
        self.candidate_seconds += other.candidate_seconds
        self.filter_seconds += other.filter_seconds
        self.verify_seconds += other.verify_seconds
        self.index_build_seconds += other.index_build_seconds
        # A leaf run (single repetition) carries its time in elapsed_seconds
        # and has worker_seconds == 0; an already merged aggregate carries the
        # summed worker time in worker_seconds.  Taking whichever is set keeps
        # nested merges from double counting.
        self.worker_seconds += other.worker_seconds if other.worker_seconds > 0.0 else other.elapsed_seconds
        self.repetitions += other.repetitions
        for key, value in other.extra.items():
            if key.startswith("max_"):
                # Depth-style counters report the maximum across runs, not the sum.
                self.extra[key] = max(self.extra.get(key, 0.0), value)
            else:
                self.extra[key] = self.extra.get(key, 0.0) + value

    def as_dict(self) -> Dict[str, float]:
        """Flatten the statistics into a plain dictionary (for reports/CSV)."""
        flat: Dict[str, float] = {
            "algorithm": self.algorithm,
            "threshold": self.threshold,
            "num_records": self.num_records,
            "pre_candidates": self.pre_candidates,
            "candidates": self.candidates,
            "verified": self.verified,
            "results": self.results,
            "repetitions": self.repetitions,
            "elapsed_seconds": self.elapsed_seconds,
            "worker_seconds": self.worker_seconds,
            "preprocessing_seconds": self.preprocessing_seconds,
            "candidate_seconds": self.candidate_seconds,
            "filter_seconds": self.filter_seconds,
            "verify_seconds": self.verify_seconds,
            "index_build_seconds": self.index_build_seconds,
        }
        for key, value in self.extra.items():
            # An extra key that collides with a core field (possible when a
            # merge brings in ad-hoc counters named after stats fields) must
            # not shadow the core counter; emit it under a prefixed name so
            # both survive the flattening and as_dict round-trips merges in
            # any order.
            flat["extra_" + key if key in flat else key] = value
        return flat

    _CONFIGURATION_FIELDS = ("algorithm", "threshold")
    """Fields of :meth:`as_dict` that describe the run, not its progress."""

    def snapshot(self) -> Dict[str, float]:
        """Freeze the current counters/timings to diff a later state against.

        Long-lived stats objects (a loaded :class:`SimilarityIndex`, a
        running server) accumulate forever; ``snapshot()`` + :meth:`delta`
        report what one session contributed on top of that history.
        """
        return self.as_dict()

    def delta(self, since: Mapping[str, float]) -> Dict[str, float]:
        """Counters/timings accumulated since a :meth:`snapshot`.

        Numeric fields are differenced against the snapshot (fields that
        appeared after the snapshot diff against zero); the configuration
        fields (algorithm, threshold) pass through at their current values.
        """
        flat: Dict[str, float] = {}
        for key, value in self.as_dict().items():
            if key in self._CONFIGURATION_FIELDS or not isinstance(value, (int, float)):
                flat[key] = value
                continue
            base = since.get(key, 0)
            flat[key] = value - (base if isinstance(base, (int, float)) else 0)
        return flat


@dataclass
class JoinResult:
    """The output of a similarity join: reported pairs plus statistics."""

    pairs: Set[Pair]
    stats: JoinStats

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: Pair) -> bool:
        return canonical_pair(*pair) in self.pairs

    def recall_against(self, ground_truth: Iterable[Pair]) -> float:
        """Recall of this result against a ground-truth pair collection."""
        truth = {canonical_pair(*pair) for pair in ground_truth}
        if not truth:
            return 1.0
        found = sum(1 for pair in truth if pair in self.pairs)
        return found / len(truth)

    def precision_against(self, ground_truth: Iterable[Pair]) -> float:
        """Precision of this result against a ground-truth pair collection."""
        if not self.pairs:
            return 1.0
        truth = {canonical_pair(*pair) for pair in ground_truth}
        correct = sum(1 for pair in self.pairs if pair in truth)
        return correct / len(self.pairs)


class Timer:
    """Context manager measuring wall-clock time into a float attribute."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
