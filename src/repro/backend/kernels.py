"""Shared vectorized kernels: candidate-pair expansion and CSR verification.

:func:`expand_pair_blocks` turns a flush of BRUTEFORCEPAIRS / BRUTEFORCEPOINT
tasks into flat pair blocks, so the join engine filters a flush with one
``filter_pairs`` call per block.

The numpy execution backend and the :class:`repro.index.SimilarityIndex`
both verify candidates with the same primitive: the exact intersection size
of one sorted token array against a block of CSR-packed records, reduced via
``searchsorted`` plus a segmented sum.  The kernels live here so the two can
never diverge — the backend binds them to a
:class:`~repro.core.preprocess.PreprocessedCollection`, the index binds them
to its own incrementally grown arrays.

Acceptance is always decided with the integer overlap bound
``|x ∩ y| ≥ ⌈λ/(1+λ)(|x| + |y|)⌉``
(:func:`repro.similarity.measures.required_overlap_for_jaccard` evaluated
vectorized), so scalar and vectorized callers agree on every borderline pair.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.sketch import popcount_rows

__all__ = [
    "PAIR_BLOCK_BUDGET",
    "csr_overlaps_one_to_many",
    "expand_pair_blocks",
    "filter_task_pairs",
    "group_rows_first_occurrence",
    "overlap_jaccard",
    "required_overlaps",
    "size_compatible_mask",
    "sketch_estimates",
]


def size_compatible_mask(
    first_sizes: np.ndarray, second_sizes: np.ndarray, threshold: float
) -> np.ndarray:
    """Size-compatibility probe: ``J(x, y) ≥ λ`` forces ``λ ≤ |y|/|x| ≤ 1/λ``.

    Broadcasts, so either side may be a scalar.  Every filter stage in the
    repository (engine, backends, index) evaluates exactly this expression.
    """
    return (second_sizes >= threshold * first_sizes) & (first_sizes >= threshold * second_sizes)


PAIR_BLOCK_BUDGET = 1 << 16
"""Default pair budget of one expanded block (the engine's default batch budget)."""


def expand_pair_blocks(
    subsets: Sequence[Sequence[int]],
    points: Sequence[Tuple[int, Sequence[int]]],
    sides: Optional[np.ndarray],
    budget: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Expand subset and point tasks into ``(firsts, seconds)`` pair blocks.

    Every task is a set of *rows*, one record against a contiguous run of
    others: a subset contributes its upper triangle row by row
    (``subset[i]`` against ``subset[i+1:]``), a point task ``(anchor,
    others)`` a single row.  All rows are laid over one concatenated id
    array, so the expansion is a few ``repeat``/``arange`` passes however
    many tasks there are.  Rows are cut into blocks after the first row
    reaching each multiple of ``budget`` pairs: no block holds more than
    ``budget`` pairs plus one row.  With ``sides`` (R ⋈ S labels) same-side
    pairs are dropped from every block.
    """
    pieces = [subset for subset in subsets if len(subset) > 1]
    num_subsets = len(pieces)
    points = [point for point in points if len(point[1])]
    pieces += [others for _, others in points]
    if not pieces:
        return
    lengths = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
    ids = np.concatenate(pieces).astype(np.intp, copy=False)
    ends = np.cumsum(lengths)
    # Subset rows: every position but the last of its subset, against the
    # rest of its subset.
    subset_ends = np.repeat(ends[:num_subsets], lengths[:num_subsets])
    row_starts = np.arange(1, subset_ends.size + 1)
    is_row = row_starts < subset_ends
    anchors = np.array([anchor for anchor, _ in points], dtype=np.intp)
    row_anchors = np.concatenate((ids[: subset_ends.size][is_row], anchors))
    row_starts = np.concatenate((row_starts[is_row], (ends - lengths)[num_subsets:]))
    row_lengths = np.concatenate((subset_ends[is_row], ends[num_subsets:])) - row_starts
    pair_ends = np.cumsum(row_lengths)
    pair_starts = pair_ends - row_lengths
    # The partner of global pair p in row r sits at ids[p + row_offsets[r]].
    row_offsets = row_starts - pair_starts
    cuts = np.searchsorted(pair_ends, np.arange(budget, pair_ends[-1], budget)) + 1
    bounds = np.unique(np.concatenate(([0], cuts, [row_lengths.size]))).tolist()
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block_lengths = row_lengths[start:stop]
        pairs = np.arange(pair_starts[start], pair_ends[stop - 1])
        firsts = np.repeat(row_anchors[start:stop], block_lengths)
        seconds = ids[pairs + np.repeat(row_offsets[start:stop], block_lengths)]
        if sides is not None:
            cross = sides[firsts] != sides[seconds]
            firsts, seconds = firsts[cross], seconds[cross]
        yield firsts, seconds


def filter_task_pairs(
    subsets: Sequence[Sequence[int]],
    points: Sequence[Tuple[int, Sequence[int]]],
    sides: Optional[np.ndarray],
    budget: int,
    filter_pairs: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Run ``filter_pairs`` on every block of :func:`expand_pair_blocks`.

    Returns ``(pre_candidates, firsts, seconds)``: the number of expanded
    (side-masked) pairs and the concatenated survivors.
    """
    empty = np.zeros(0, dtype=np.intp)
    pre_candidates, survivors = 0, [(empty, empty)]
    for firsts, seconds in expand_pair_blocks(subsets, points, sides, budget):
        pre_candidates += int(firsts.size)
        survivors.append(filter_pairs(firsts, seconds))
    firsts, seconds = zip(*survivors)
    return pre_candidates, np.concatenate(firsts), np.concatenate(seconds)


def sketch_estimates(
    first_words: np.ndarray, second_words: np.ndarray, num_bits: int
) -> np.ndarray:
    """1-bit minwise sketch similarity estimates ``1 - 2·hamming/num_bits``.

    ``first_words`` / ``second_words`` broadcast (one sketch row against a
    block, or two aligned blocks).
    """
    distances = popcount_rows(first_words ^ second_words)
    return 1.0 - 2.0 * distances / num_bits


def _matched(query_tokens: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Mask of ``tokens`` present in the sorted ``query_tokens`` (non-empty)."""
    positions = np.searchsorted(query_tokens, tokens)
    matches = positions < query_tokens.size
    matches &= query_tokens[np.minimum(positions, query_tokens.size - 1)] == tokens
    return matches


def csr_overlaps_one_to_many(
    query_tokens: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    sizes: np.ndarray,
    others: np.ndarray,
    value_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact intersection sizes of one sorted token array against a CSR block.

    Parameters
    ----------
    query_tokens:
        Sorted token array of the probing record.
    values, offsets:
        CSR-packed token sets: record ``i`` occupies
        ``values[offsets[i] : offsets[i] + sizes[i]]`` (sorted).
    sizes:
        Per-record set sizes (indexable by the ids in ``others``).
    others:
        Record ids to intersect the query against.
    value_weights:
        Optional per-element token weights aligned with ``values``.  Without
        them the overlap *counts* matched tokens (int64); with them it sums
        the matched tokens' weights (float64), the overlap a weighted
        :class:`~repro.similarity.measures.Measure` plugs into its
        required-overlap bound.
    """
    query_tokens = np.asarray(query_tokens, dtype=values.dtype)
    others = np.asarray(others, dtype=np.intp)
    dtype = np.int64 if value_weights is None else np.float64
    if others.size == 0 or query_tokens.size == 0:
        return np.zeros(others.size, dtype=dtype)
    if others.size == 1:
        # Fast path for the very common singleton candidate block.
        start = offsets[others[0]]
        stop = start + sizes[others[0]]
        matches = _matched(query_tokens, values[start:stop])
        if value_weights is None:
            return np.array([np.count_nonzero(matches)], dtype=dtype)
        return np.array([value_weights[start:stop][matches].sum()], dtype=dtype)
    starts = offsets[others]
    lengths = sizes[others]
    boundaries = np.zeros(others.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=boundaries[1:])
    # Flat indices of every token of every candidate in the packed array.
    flat_index = np.arange(boundaries[-1], dtype=np.int64) + np.repeat(
        starts - boundaries[:-1], lengths
    )
    matches = _matched(query_tokens, values[flat_index])
    if value_weights is None:
        return np.add.reduceat(matches.astype(np.int64), boundaries[:-1])
    return np.add.reduceat(np.where(matches, value_weights[flat_index], 0.0), boundaries[:-1])


def required_overlaps(
    query_size: int, other_sizes: np.ndarray, overlap_ratio: float
) -> np.ndarray:
    """Vectorized ``⌈λ/(1+λ)(|x| + |y|)⌉`` with the backend's epsilon guard.

    ``overlap_ratio`` is the precomputed ``λ / (1 + λ)``; the ``1e-9`` slack
    mirrors :func:`repro.similarity.measures.required_overlap_for_jaccard` so
    float rounding can never flip a borderline pair.
    """
    sums = query_size + np.asarray(other_sizes)
    return np.ceil(overlap_ratio * sums - 1e-9).astype(np.int64)


def group_rows_first_occurrence(keys: np.ndarray, min_size: int = 1) -> "list[np.ndarray]":
    """Group the rows of a key matrix by identical key tuples, column-wise.

    ``keys`` is ``(n, k)``; rows whose entire key tuple matches land in the
    same group.  The output order is bit-identical to the insertion-ordered
    dict loop it replaces: groups appear in order of their first occurring
    row, members within a group in ascending row order; groups smaller than
    ``min_size`` are dropped.  ``k = 0`` keys put every row in one group.

    The pass is a single multi-column stable lexsort plus boundary scans —
    no Python-level hashing of row tuples.
    """
    keys = np.asarray(keys)
    num_rows = keys.shape[0]
    if num_rows == 0:
        return []
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-D (rows, columns) array")
    if keys.shape[1] == 0:
        all_rows = np.arange(num_rows, dtype=np.intp)
        return [all_rows] if num_rows >= min_size else []
    # Last lexsort key is primary, so feed the columns right-to-left; the
    # sort is stable, leaving equal rows in ascending row order.
    order = np.lexsort(keys.T[::-1]).astype(np.intp, copy=False)
    sorted_keys = keys[order]
    boundary = np.empty(num_rows, dtype=bool)
    boundary[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=boundary[1:])
    group_starts = np.flatnonzero(boundary)
    group_counts = np.diff(group_starts, append=num_rows)
    keep = group_counts >= min_size
    # First-occurrence order: a group's first member is its smallest row
    # index (stable sort), so sorting groups by that index reproduces the
    # insertion order of the scalar dict loop.
    first_rows = order[group_starts[keep]]
    emit = np.argsort(first_rows, kind="stable")
    starts = group_starts[keep][emit]
    counts = group_counts[keep][emit]
    return [order[start : start + count] for start, count in zip(starts.tolist(), counts.tolist())]


def overlap_jaccard(query_size: int, other_sizes: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """Exact Jaccard similarities from intersection sizes (``|∩| / |∪|``)."""
    overlaps = np.asarray(overlaps, dtype=np.float64)
    unions = query_size + np.asarray(other_sizes, dtype=np.float64) - overlaps
    with np.errstate(invalid="ignore", divide="ignore"):
        similarity = np.where(unions > 0, overlaps / np.maximum(unions, 1.0), 1.0)
    return similarity
