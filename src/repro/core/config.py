"""Configuration of the CPSJOIN algorithm.

The parameters and their defaults follow Table III of the paper ("final"
column), plus a few switches used only by the ablation experiments (stopping
strategy, sketch usage, exact vs sketch-sampled average-similarity estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.similarity.measures import Measure, get_measure

__all__ = ["CPSJoinConfig"]

_VALID_STOPPING = ("adaptive", "global", "individual")
_VALID_AVERAGE_METHODS = ("sketches", "tokens")
_VALID_BACKENDS = ("python", "numpy")
_VALID_EXECUTORS = ("serial", "threads", "processes")


@dataclass(frozen=True)
class CPSJoinConfig:
    """Parameters of the CPSJOIN algorithm.

    Attributes
    ----------
    limit:
        Brute-force size limit: subproblems of at most this many records are
        solved by all-pairs brute force (paper default 250, Figure 3a).
    epsilon:
        Brute-force aggressiveness ``ε``: a record whose estimated average
        similarity to its subproblem exceeds ``(1 - ε) λ`` is brute-forced
        and removed (paper default 0.1, Figure 3b).
    embedding_size:
        Size ``t`` of the MinHash embedding of Section II-A (paper: 128).
    sketch_words:
        Length ``ℓ`` of the 1-bit minwise sketches in 64-bit words
        (paper default 8, Figure 3c).
    sketch_false_negative_rate:
        ``δ``: the probability that a true positive is filtered out by the
        sketch check (paper default 0.05); determines the estimator cut-off λ̂.
    repetitions:
        Number of independent repetitions of the algorithm (paper: 10, which
        empirically achieves ≥ 90% recall across all datasets).
    stopping:
        Stopping strategy: ``"adaptive"`` (the paper's contribution),
        ``"global"`` (classic LSH-style fixed depth) or ``"individual"``
        (per-record fixed depth) — the latter two exist for the Section
        IV-C.5 ablation.
    global_depth:
        Tree depth used by the ``"global"`` strategy (ignored otherwise); when
        ``None`` a depth is estimated from the threshold.
    use_sketches:
        When False, candidate pairs skip the 1-bit sketch filter and go
        straight to exact verification (ablation A2).
    average_method:
        How the BRUTEFORCE step estimates a record's average similarity to its
        subproblem: ``"sketches"`` (the sampled sketch estimator of Section
        V-A.4, default) or ``"tokens"`` (the exact token-count rule of
        Algorithm 2).
    max_depth:
        Hard cap on the recursion depth (safety net; the analysis bounds the
        depth by ``O(log n / ε)`` with high probability).
    seed:
        Seed controlling the embedding, the sketches, and the splitting
        randomness.  Repetition ``r`` uses ``seed + r``.
    backend:
        Execution backend for the filter and verify kernels: ``"numpy"``
        (vectorized block kernels, default) or ``"python"`` (the per-pair
        oracle).  Both return identical pair sets at seed parity; the
        candidate walk is the same on either.
    workers:
        Number of parallel workers the repetition engine uses to run the
        independent repetitions (1 = sequential).  Results are deterministic
        for a fixed seed regardless of the worker count.
    executor:
        How parallel repetitions are dispatched: ``"serial"`` (in-process,
        ignores ``workers``), ``"threads"`` (default; cheap to start, but the
        GIL serializes pure-Python work) or ``"processes"`` (true multi-core:
        the preprocessed collection is placed in shared memory once and
        workers attach zero-copy).  The reported pair set is identical for
        every executor at a fixed seed.
    measure:
        Similarity measure the join verifies under: a registered name
        (``"jaccard"``, ``"cosine"``, ``"dice"``, ``"braun_blanquet"``, …), a
        :class:`~repro.similarity.measures.Measure` instance (possibly
        weighted), or ``None`` for plain Jaccard.  The randomized recursion
        runs at the measure's Jaccard floor of the threshold; measures with
        no positive floor (overlap coefficient, containment) cannot be
        served by CPSJOIN and are rejected at join time.
    """

    limit: int = 250
    epsilon: float = 0.1
    embedding_size: int = 128
    sketch_words: int = 8
    sketch_false_negative_rate: float = 0.05
    repetitions: int = 10
    stopping: str = "adaptive"
    global_depth: Optional[int] = None
    use_sketches: bool = True
    average_method: str = "sketches"
    max_depth: int = 64
    seed: Optional[int] = None
    backend: str = "numpy"
    workers: int = 1
    executor: str = "threads"
    measure: Union[str, Measure, None] = None

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError("limit must be at least 1")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if self.embedding_size < 1:
            raise ValueError("embedding_size must be positive")
        if self.sketch_words < 1:
            raise ValueError("sketch_words must be positive")
        if not 0.0 < self.sketch_false_negative_rate < 1.0:
            raise ValueError("sketch_false_negative_rate must be in (0, 1)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.stopping not in _VALID_STOPPING:
            raise ValueError(f"stopping must be one of {_VALID_STOPPING}")
        if self.average_method not in _VALID_AVERAGE_METHODS:
            raise ValueError(f"average_method must be one of {_VALID_AVERAGE_METHODS}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if self.backend not in _VALID_BACKENDS:
            raise ValueError(f"backend must be one of {_VALID_BACKENDS}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.executor not in _VALID_EXECUTORS:
            raise ValueError(f"executor must be one of {_VALID_EXECUTORS}")
        # Validate only (raises on unknown names); the field keeps the user's
        # value so frozen-dataclass replace()/equality semantics are unchanged.
        get_measure(self.measure)

    def with_seed(self, seed: Optional[int]) -> "CPSJoinConfig":
        """Return a copy of the configuration with a different seed."""
        return replace(self, seed=seed)

    def with_overrides(self, **overrides: object) -> "CPSJoinConfig":
        """Return a copy with arbitrary fields replaced (used by sweeps)."""
        return replace(self, **overrides)  # type: ignore[arg-type]
