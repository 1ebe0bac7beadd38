"""BayesLSH-lite style approximate similarity join.

The paper compares against BayesLSH (Chakrabarti et al.), using the
"BayesLSH-lite" verification mode: candidate pairs are generated by LSH (or by
AllPairs), their similarity is estimated incrementally from sketches, pairs
whose posterior probability of exceeding the threshold becomes too small are
pruned early, and survivors are verified exactly.

This module re-implements that pipeline on top of the repository's own
substrate:

* **Candidate generation** — MinHash LSH with ``k = 1`` (a single MinHash
  function per run), which is how the original BayesLSH package generates LSH
  candidates, or prefix-filter candidates from the ALLPAIRS index when
  ``candidates="allpairs"``.
* **Incremental Bayesian pruning** — the 1-bit minwise sketches are compared
  one 64-bit word at a time; after each word the posterior probability that
  the true Jaccard similarity exceeds the threshold (under a uniform prior,
  i.e. a Beta posterior on the bit-agreement probability) is computed, and the
  pair is pruned when that probability drops below ``pruning_probability``.
* **Exact verification** of every surviving pair (the "lite" part).

Execution is staged through the shared :class:`repro.engine.JoinEngine`:
candidate generation is a :class:`~repro.engine.stages.CandidateStage`
emitting explicit pair streams (deduplicated by the engine's
:class:`~repro.engine.stages.DedupStage`), the Bayesian pruning replaces the
engine's default sketch filter via :class:`BayesianFilterStage`, and exact
verification runs through the shared verify stage of the bound execution
backend.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import special

from repro.backend import BACKEND_NAMES
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.engine import CandidateStage, JoinEngine, PairCandidates, SketchFilterStage, Task
from repro.hashing.sketch import popcount_words
from repro.result import JoinResult, JoinStats, Timer

__all__ = ["BayesLSHJoin", "BayesLSHCandidateStage", "BayesianFilterStage", "bayeslsh_join"]

Pair = Tuple[int, int]
_WORD_BITS = 64


def _posterior_above_threshold(
    agreements: Union[int, np.ndarray], comparisons: int, threshold: float
) -> Union[float, np.ndarray]:
    """Posterior probability that the Jaccard similarity exceeds ``threshold``.

    With a uniform prior on the bit-agreement probability ``p`` and ``m``
    agreements observed in ``b`` independent sketch bits, the posterior on
    ``p`` is ``Beta(m + 1, b - m + 1)``.  A Jaccard similarity of ``λ``
    corresponds to agreement probability ``(1 + λ) / 2``, so the returned
    value is ``Pr[p ≥ (1 + λ)/2]`` — the regularized incomplete beta survival
    function.  Vectorized over ``agreements``.
    """
    agreement_threshold = (1.0 + threshold) / 2.0
    # betainc(a, b, x) = regularized incomplete beta = Pr[Beta(a, b) <= x].
    return 1.0 - special.betainc(agreements + 1, comparisons - agreements + 1, agreement_threshold)


class BayesLSHCandidateStage(CandidateStage):
    """Candidate stage of BayesLSH: LSH rounds or the ALLPAIRS prefix filter.

    Emits raw candidate pair streams (one task per bucketing round / probing
    token), counting ``stats.pre_candidates`` per raw emission exactly as the
    historical generators did; the engine's dedup stage collapses repeats
    before the Bayesian filter sees them.
    """

    def __init__(
        self,
        join: "BayesLSHJoin",
        collection: PreprocessedCollection,
        stats: JoinStats,
    ) -> None:
        self.join = join
        self.collection = collection
        self.stats = stats

    def tasks(self) -> Iterator[Task]:
        if self.join.candidates == "allpairs":
            yield from self._allpairs_tasks()
        else:
            yield from self._lsh_tasks()

    def _lsh_tasks(self) -> Iterator[Task]:
        """Candidate pairs from ``repetitions`` rounds of single-MinHash bucketing.

        In a side-aware collection (R ⋈ S join) same-side bucket pairs are
        skipped before counting — they are not part of the workload.
        """
        collection = self.collection
        stats = self.stats
        rng = np.random.default_rng(self.join.seed)
        sides = collection.sides
        num_functions = collection.embedding_size
        for _ in range(self.join.repetitions):
            coordinate = int(rng.integers(0, num_functions))
            column = collection.signatures.matrix[:, coordinate]
            groups: Dict[int, List[int]] = defaultdict(list)
            for record_id, value in enumerate(column):
                groups[int(value)].append(record_id)
            round_pairs: List[Pair] = []
            for bucket in groups.values():
                if len(bucket) < 2:
                    continue
                for position, first in enumerate(bucket):
                    for second in bucket[position + 1 :]:
                        if sides is not None and sides[first] == sides[second]:
                            continue
                        stats.pre_candidates += 1
                        round_pairs.append((first, second))
            if round_pairs:
                yield PairCandidates(tuple(round_pairs))

    def _allpairs_tasks(self) -> Iterator[Task]:
        """Candidate pairs from the ALLPAIRS prefix filter.

        The original BayesLSH package can use AllPairs as its candidate
        generator: every pair of records that share a probing-prefix token and
        pass the length filter becomes a candidate; similarity estimation and
        verification are then left to the Bayesian sketch stage.
        """
        from repro.exact.prefix_filter import FrequencyOrder, minimum_compatible_size, prefix_length

        collection = self.collection
        stats = self.stats
        threshold = self.join.threshold
        sides = collection.sides
        order = FrequencyOrder(collection.records)
        ranked = order.rank_records(collection.records)
        token_to_records: Dict[int, List[int]] = defaultdict(list)
        for record_id, record in enumerate(ranked):
            probe = min(prefix_length(len(record), threshold), len(record))
            for token in record[:probe]:
                token_to_records[token].append(record_id)
        for token, bucket in token_to_records.items():
            token_pairs: List[Pair] = []
            for position, first in enumerate(bucket):
                for second in bucket[position + 1 :]:
                    if sides is not None and sides[first] == sides[second]:
                        continue
                    size_first, size_second = len(ranked[first]), len(ranked[second])
                    if size_second < minimum_compatible_size(size_first, threshold):
                        continue
                    if size_first < minimum_compatible_size(size_second, threshold):
                        continue
                    stats.pre_candidates += 1
                    token_pairs.append((first, second))
            if token_pairs:
                yield PairCandidates(tuple(token_pairs))


class BayesianFilterStage(SketchFilterStage):
    """Incremental Bayesian sketch pruning as the pipeline's filter stage.

    Replaces the fixed ``λ̂`` cut-off with the posterior check of BayesLSH:
    a pair survives iff at every sketch word its cumulative agreement count
    keeps the posterior ``Pr[J ≥ λ]`` at or above ``pruning_probability``.
    The posterior is monotone in the agreement count, so the check runs over
    a whole block as a comparison of cumulative per-word agreements against
    precomputed per-word minima — the same survivors as checking each pair
    word by word with early termination.
    """

    def __init__(self, join: "BayesLSHJoin", backend) -> None:
        super().__init__(backend, use_sketches=True, sketch_cutoff=0.0)
        self.join = join
        self._minimum: Optional[np.ndarray] = None

    def filter_pairs(self, firsts: np.ndarray, seconds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        if firsts.size == 0:
            return firsts, seconds
        sketches = self.backend.collection.sketches
        xored = sketches.words[firsts] ^ sketches.words[seconds]
        differing = popcount_words(xored)  # (P, ℓ) per-word Hamming distances
        agreements = np.cumsum(_WORD_BITS - differing, axis=1)
        if self._minimum is None:
            self._minimum = self.join._minimum_agreements(sketches.num_words)
        surviving = np.all(agreements >= self._minimum[np.newaxis, :], axis=1)
        return firsts[surviving], seconds[surviving]


class BayesLSHJoin:
    """BayesLSH-lite style approximate self-join engine.

    Parameters
    ----------
    threshold:
        Jaccard threshold ``λ``.
    repetitions:
        Number of independent ``k = 1`` LSH candidate-generation rounds; the
        default mirrors the original package's recall target of 95 % for a
        pair exactly at the threshold: ``⌈ln(1/(1-0.95)) / λ⌉``.
    pruning_probability:
        A candidate pair is pruned as soon as its posterior probability of
        exceeding the threshold falls below this value.
    candidates:
        ``"lsh"`` (default) or ``"allpairs"`` — which candidate generation
        backend to use.
    seed:
        Seed for the candidate-generation randomness and preprocessing.
    backend:
        Execution backend of the exact verification kernel (``"numpy"``, the
        default, or the ``"python"`` oracle); identical results either way.
    workers / executor:
        Accepted for API symmetry with the other randomized joins, but
        BayesLSH has **no parallel repetition path**: its candidate rounds
        feed one *global* deduplication stage (a pair emitted by several
        rounds must be pruned and verified exactly once for the historical
        Table IV accounting), which is inherently sequential.  Requesting
        ``workers > 1`` therefore raises a clear error instead of silently
        running sequentially.
    """

    def __init__(
        self,
        threshold: float,
        repetitions: Optional[int] = None,
        pruning_probability: float = 0.025,
        recall_probability: float = 0.95,
        candidates: str = "lsh",
        seed: Optional[int] = None,
        backend: Optional[str] = "numpy",
        workers: int = 1,
        executor: Optional[str] = None,
        measure=None,
    ) -> None:
        from repro.similarity.measures import get_measure

        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        resolved_measure = get_measure(measure)
        if not resolved_measure.is_default:
            # The Beta-posterior pruning rule integrates a prior over Jaccard
            # similarity specifically; rescaling it through another measure's
            # embedding has no closed form.
            raise ValueError(
                f"the 'bayeslsh' algorithm only supports the default Jaccard measure "
                f"(got {resolved_measure.name!r}); use 'cpsjoin' / 'minhash' for "
                "measures with a positive Jaccard floor, or an exact algorithm"
            )
        self.measure = resolved_measure
        if not 0.0 < pruning_probability < 1.0:
            raise ValueError("pruning_probability must be in (0, 1)")
        if candidates not in ("lsh", "allpairs"):
            raise ValueError("candidates must be 'lsh' or 'allpairs'")
        if backend is not None and str(backend).lower() not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if workers is not None and workers > 1:
            raise ValueError(
                "the 'bayeslsh' algorithm does not support parallel workers: its global "
                "candidate deduplication is sequential by construction — use workers=1, "
                "or the 'cpsjoin' / 'minhash' algorithms for parallel execution"
            )
        if executor is not None:
            from repro.core.repetition import EXECUTOR_NAMES

            if str(executor).lower() not in EXECUTOR_NAMES:
                raise ValueError(
                    f"unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}"
                )
        self.threshold = threshold
        self.pruning_probability = pruning_probability
        self.recall_probability = recall_probability
        self.candidates = candidates
        self.seed = seed
        self.backend = backend
        if repetitions is None:
            repetitions = max(1, math.ceil(math.log(1.0 / (1.0 - recall_probability)) / threshold))
        self.repetitions = repetitions

    # ------------------------------------------------------------------ public API
    def join(
        self,
        records: Sequence[Sequence[int]],
        sides: Optional[Sequence[int]] = None,
    ) -> JoinResult:
        """Preprocess ``records`` and run the join.

        ``sides`` (0 = R, 1 = S, one entry per record) makes candidate
        generation side-aware: same-side bucket pairs are never emitted (or
        counted), turning the run into a native R ⋈ S join.
        """
        collection = preprocess_collection(records, seed=self.seed, sides=sides)
        return self.join_preprocessed(collection)

    algorithm_name = "BAYESLSH"

    def join_preprocessed(self, collection: PreprocessedCollection) -> JoinResult:
        """Run the join on an already preprocessed collection.

        The run is one pass through the staged engine: candidate generation,
        global deduplication, Bayesian sketch pruning (the custom filter
        stage), and exact verification of every survivor.
        """
        stats = JoinStats(
            algorithm=self.algorithm_name,
            threshold=self.threshold,
            num_records=collection.num_records,
            repetitions=self.repetitions if self.candidates == "lsh" else 1,
            preprocessing_seconds=collection.preprocessing_seconds,
        )
        engine = JoinEngine(collection, self.threshold, backend=self.backend)
        stage = BayesLSHCandidateStage(self, collection, stats)
        filter_stage = BayesianFilterStage(self, engine.backend)
        with Timer() as timer:
            pairs = engine.execute(stage, stats, filter_stage=filter_stage)
        stats.results = len(pairs)
        stats.elapsed_seconds = timer.elapsed
        return JoinResult(pairs=pairs, stats=stats)

    # ------------------------------------------------------------------ pruning arithmetic
    def _minimum_agreements(self, num_words: int) -> np.ndarray:
        """Per-word minimum cumulative agreements that survive the pruning.

        ``minimum[w]`` is the smallest agreement count whose posterior after
        ``64 (w + 1)`` compared bits still reaches ``pruning_probability``;
        an unreachable bound (``comparisons + 1``) marks words where no count
        survives.  The posterior is monotone in the agreement count, so the
        comparison against these minima reproduces a word-by-word check with
        early termination exactly.
        """
        minimum = np.empty(num_words, dtype=np.int64)
        for word in range(num_words):
            comparisons = _WORD_BITS * (word + 1)
            counts = np.arange(comparisons + 1)
            posterior = _posterior_above_threshold(counts, comparisons, self.threshold)
            passing = np.flatnonzero(posterior >= self.pruning_probability)
            minimum[word] = int(passing[0]) if passing.size else comparisons + 1
        return minimum


def bayeslsh_join(
    records: Sequence[Sequence[int]],
    threshold: float,
    candidates: str = "lsh",
    seed: Optional[int] = None,
) -> JoinResult:
    """Functional convenience wrapper around :class:`BayesLSHJoin`."""
    return BayesLSHJoin(threshold, candidates=candidates, seed=seed).join(records)
