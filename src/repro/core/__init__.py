"""CPSJOIN — Chosen Path Similarity Join (the paper's core contribution)."""

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin, cpsjoin
from repro.core.preprocess import PreprocessedCollection, preprocess_collection
from repro.core.repetition import RepetitionEngine, join_with_target_recall

__all__ = [
    "CPSJoinConfig",
    "CPSJoin",
    "cpsjoin",
    "PreprocessedCollection",
    "preprocess_collection",
    "RepetitionEngine",
    "join_with_target_recall",
]
