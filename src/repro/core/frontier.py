"""Level-synchronous array frontier: the Chosen Path tree walk of CPSJOIN.

The walk's per-node work — sampling split coordinates, grouping a
subproblem by MinHash value, testing the BRUTEFORCE cut-offs — is tiny, so
a scalar depth-first walk would spend most of its time in Python call
overhead.  This module walks the tree breadth-first over *array frontiers*:
one flat ``record_id`` array per tree level (with per-node offsets), all
nodes of a level split in a single column gather + stable-lexsort grouping
pass, the stopping rules evaluated as vectorized masks, and candidate tasks
emitted from array slices.

**Per-node seeding.**  Node randomness cannot come from a shared sequential
generator without tying it to the visit order.  Instead every node's
randomness is a pure function of its identity:

* the repetition generator is consumed once for a 63-bit ``root_entropy``
  value (and, under the ``individual`` strategy, once more for the
  per-record depth estimate);
* each node carries a 64-bit *node key* — ``splitmix64`` of the root entropy
  at the root, mixed with the child rank along every edge
  (:func:`child_node_keys`);
* the split-coordinate Bernoullis of Algorithm 1 are counter-based hashes of
  ``(node key, coordinate)`` (:func:`coordinate_uniforms`), vectorizable over
  a whole frontier at once;
* the sampled average-similarity estimator of the BRUTEFORCE step draws from
  a generator seeded with the node key (:func:`estimator_rng`) — the node's
  identity, not the visit order, names the stream.

Tasks are emitted in the depth-first preorder of the paper's recursion,
recovered from the level arrays by a vectorized preorder ranking over the
stored parent/child structure.  Task *order* never affects the verified pair
set (dedup and verification are order-independent), but it makes the walk
checkable object-for-object against a scalar depth-first recursion: the
test oracle ``tests/core/oracle_walk.py`` must emit the identical task
stream (same tasks, same order, same ``tree_nodes`` / ``max_depth``
statistics) for all three stopping strategies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import PointCandidates, SubsetCandidates, Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.cpsjoin import ChosenPathCandidateStage

__all__ = [
    "child_node_keys",
    "coordinate_uniforms",
    "estimator_rng",
    "fallback_coordinates",
    "frontier_tasks",
    "root_node_key",
]

_UINT64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_FALLBACK_SALT = 0xD1B54A32D192ED03


def _mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (uint64 in, uint64 out, wrapping)."""
    x = values.astype(_UINT64, copy=True)
    x ^= x >> _UINT64(30)
    x *= _UINT64(_MIX_1)
    x ^= x >> _UINT64(27)
    x *= _UINT64(_MIX_2)
    x ^= x >> _UINT64(31)
    return x


def root_node_key(root_entropy: int) -> int:
    """Node key of the tree root, derived from the repetition's entropy draw."""
    return int(_mix64(np.array([root_entropy ^ _GOLDEN], dtype=_UINT64))[0])


def child_node_keys(parent_keys: np.ndarray, child_ranks: np.ndarray) -> np.ndarray:
    """Node keys of children, mixed from parent keys and child ranks.

    ``child_rank`` is the child's position among its parent's kept buckets,
    so equal (parent, rank) pairs get equal keys however the tree is
    traversed.
    """
    parents = np.asarray(parent_keys, dtype=_UINT64)
    ranks = np.asarray(child_ranks).astype(_UINT64) + _UINT64(1)
    return _mix64(parents ^ _mix64(ranks))


_COORDINATE_SALTS: Dict[int, np.ndarray] = {}


def _coordinate_salts(num_functions: int) -> np.ndarray:
    salts = _COORDINATE_SALTS.get(num_functions)
    if salts is None:
        salts = _mix64(np.arange(num_functions, dtype=_UINT64) + _UINT64(_GOLDEN))
        _COORDINATE_SALTS[num_functions] = salts
    return salts


def coordinate_uniforms(node_keys: np.ndarray, num_functions: int) -> np.ndarray:
    """Per-(node, coordinate) uniforms in ``[0, 1)`` — the split Bernoullis.

    Counter-based: row ``i`` column ``j`` is a pure function of
    ``(node_keys[i], j)``, so a frontier of nodes evaluates the whole matrix
    in one pass and a scalar walk gets the identical row one node at a time.
    """
    keys = np.asarray(node_keys, dtype=_UINT64)
    mixed = _mix64(keys[:, None] ^ _coordinate_salts(num_functions)[None, :])
    return (mixed >> _UINT64(11)).astype(np.float64) * (2.0**-53)


def fallback_coordinates(node_keys: np.ndarray, num_functions: int) -> np.ndarray:
    """Deterministic fallback coordinate per node when no Bernoulli fired."""
    keys = np.asarray(node_keys, dtype=_UINT64)
    return (_mix64(keys ^ _UINT64(_FALLBACK_SALT)) % _UINT64(num_functions)).astype(np.intp)


def estimator_rng(node_key: int) -> np.random.Generator:
    """Generator for a node's sampled average-similarity estimate.

    Seeded from the node's 64-bit key — itself a pure function of the root
    entropy and the node's path of child ranks — so the estimate is a pure
    function of the node's identity, whatever order the walk visits nodes
    in.
    """
    return np.random.Generator(np.random.PCG64(node_key))


# --------------------------------------------------------------------- split
def _split_level(
    matrix: np.ndarray,
    parts: List[np.ndarray],
    keys: np.ndarray,
    num_functions: int,
    probability: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split every surviving node of a level in one grouping pass.

    Returns ``(child_records, child_offsets, child_parents, child_ranks,
    child_keys)`` where ``child_parents`` indexes into ``parts`` and children
    appear parent-major, and within a parent in the depth-first recursion's
    enumeration order: ascending split coordinate, then buckets by first
    occurrence, members in subset order, buckets of fewer than two records
    dropped.
    """
    sizes = np.array([part.size for part in parts], dtype=np.int64)
    records = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])

    # One (node, coordinate) slot per chosen Bernoulli, node-major and
    # coordinate-ascending by construction of np.nonzero.
    mask = coordinate_uniforms(keys, num_functions) < probability
    rowless = ~mask.any(axis=1)
    if rowless.any():
        mask[np.flatnonzero(rowless), fallback_coordinates(keys[rowless], num_functions)] = True
    slot_nodes, slot_coordinates = np.nonzero(mask)

    # Gather every node's records once per chosen coordinate (flat layout).
    slot_sizes = sizes[slot_nodes]
    bounds = np.zeros(slot_nodes.size + 1, dtype=np.int64)
    np.cumsum(slot_sizes, out=bounds[1:])
    total = int(bounds[-1])
    flat = np.arange(total, dtype=np.int64) + np.repeat(
        offsets[slot_nodes] - bounds[:-1], slot_sizes
    )
    entry_records = records[flat]
    entry_slots = np.repeat(np.arange(slot_nodes.size, dtype=np.intp), slot_sizes)
    # ``matrix`` holds per-column dense ranks of the MinHash values (equal
    # rank ⟺ equal value within a coordinate), so slot and rank pack into a
    # single small sort key per entry — 32-bit while the key space fits.
    num_rows = matrix.shape[0]
    key_dtype = np.int32 if slot_nodes.size * num_rows <= np.iinfo(np.int32).max else np.int64
    slot_bases = (np.arange(slot_nodes.size, dtype=np.int64) * num_rows).astype(key_dtype)
    entry_keys = np.repeat(slot_bases, slot_sizes) + matrix[
        entry_records, slot_coordinates[entry_slots]
    ].astype(key_dtype, copy=False)

    # Stable sort: slot-major, grouped by MinHash value, ties in subset
    # order — so each group's first element is its first occurrence.
    order = np.argsort(entry_keys, kind="stable")
    sorted_keys = entry_keys[order]
    sorted_records = entry_records[order]
    boundary = np.empty(order.size, dtype=bool)
    if order.size:
        boundary[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    group_starts = np.flatnonzero(boundary)
    group_counts = np.diff(group_starts, append=order.size)
    group_slots = entry_slots[order[group_starts]]
    group_first = order[group_starts]  # first-occurrence entry index

    # Reference bucket order within a node: slot-ascending, then first
    # occurrence; buckets below two members cannot produce pairs.
    group_order = np.lexsort((group_first, group_slots))
    group_order = group_order[group_counts[group_order] >= 2]

    child_parents = slot_nodes[group_slots[group_order]]
    # Child rank = position among the parent's kept buckets (child_parents is
    # non-decreasing because group_order is slot-major).
    if child_parents.size:
        parent_change = np.empty(child_parents.size, dtype=bool)
        parent_change[0] = True
        np.not_equal(child_parents[1:], child_parents[:-1], out=parent_change[1:])
        run_starts = np.flatnonzero(parent_change)
        run_lengths = np.diff(run_starts, append=child_parents.size)
        child_ranks = np.arange(child_parents.size, dtype=np.int64) - np.repeat(
            run_starts, run_lengths
        )
    else:
        child_ranks = np.zeros(0, dtype=np.int64)
    child_keys = child_node_keys(keys[child_parents], child_ranks)

    child_counts = group_counts[group_order]
    child_offsets = np.zeros(child_counts.size + 1, dtype=np.int64)
    np.cumsum(child_counts, out=child_offsets[1:])
    flat_children = np.arange(int(child_offsets[-1]), dtype=np.int64) + np.repeat(
        group_starts[group_order] - child_offsets[:-1], child_counts
    )
    child_records = sorted_records[flat_children]
    return child_records, child_offsets, child_parents, child_ranks, child_keys


# ---------------------------------------------------------------------- walk
def _preorder_positions(
    level_counts: List[int], level_parents: List[np.ndarray]
) -> List[np.ndarray]:
    """Depth-first preorder rank of every node, computed level-wise.

    ``level_parents[lvl]`` maps each node of level ``lvl`` to its parent's
    index at ``lvl - 1`` and is non-decreasing (children are stored
    parent-major, in rank order).  Subtree sizes roll up bottom-up; a child's
    preorder rank is then its parent's rank plus one plus the subtree sizes
    of its earlier siblings — no per-node traversal required.
    """
    depth = len(level_counts)
    subtree: List[np.ndarray] = [np.ones(count, dtype=np.int64) for count in level_counts]
    for level in range(depth - 1, 0, -1):
        np.add.at(subtree[level - 1], level_parents[level], subtree[level])
    positions: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    for level in range(1, depth):
        parents = level_parents[level]
        sizes = subtree[level]
        before = np.cumsum(sizes) - sizes  # siblings-so-far, off by the run base
        first_child = np.empty(parents.size, dtype=bool)
        first_child[0] = True
        np.not_equal(parents[1:], parents[:-1], out=first_child[1:])
        run_starts = np.flatnonzero(first_child)
        run_lengths = np.diff(run_starts, append=parents.size)
        before -= np.repeat(before[run_starts], run_lengths)
        positions.append(positions[level - 1][parents] + 1 + before)
    return positions


def frontier_tasks(stage: "ChosenPathCandidateStage") -> List[Task]:
    """Run the level-synchronous walk; returns the depth-first task stream.

    Node semantics per stopping strategy (each rule is evaluated as a mask
    over the whole level, then all surviving nodes split in one
    :func:`_split_level` pass):

    * ``adaptive`` — the BRUTEFORCE step of Algorithm 2.  A node of at most
      ``limit`` records is emitted whole (BRUTEFORCEPAIRS).  Otherwise every
      record whose estimated average similarity to the node exceeds
      ``(1 - ε) λ`` is compared against the rest (BRUTEFORCEPOINT) and
      removed — the check runs once per node, as in the paper's
      implementation; a remainder at the limit, or any node at
      ``max_depth``, is emitted whole, and the rest splits.
    * ``global`` — nodes below two records vanish; nodes at the limit or at
      the fixed depth are emitted whole, the rest split.
    * ``individual`` — as ``global`` with ``max_depth`` as the depth, but
      first every record whose own depth is reached is compared against the
      node and removed.

    Task payloads are array slices of the level record arrays — the filter
    stages accept any integer sequence.
    """
    join = stage.join
    config = join.config
    collection = stage.collection
    stats = stage.stats
    estimator = stage.estimator
    matrix = collection.signature_rank_matrix()
    num_functions = collection.embedding_size
    probability = min(1.0, 1.0 / (join.embedded_threshold * num_functions))
    limit = config.limit
    stopping = config.stopping
    max_depth = config.max_depth
    root_entropy = stage.root_entropy
    cutoff = (1.0 - config.epsilon) * join.embedded_threshold

    stop_depth = 0
    record_depths: Optional[np.ndarray] = None
    if stopping == "global":
        stop_depth = join._global_depth(collection.num_records)
    elif stopping == "individual":
        all_records = list(range(collection.num_records))
        record_depths = np.asarray(
            join._individual_depths(all_records, estimator, stage.rng), dtype=np.int64
        )

    # Per-level node structure, kept for the final preorder emission.  A
    # node's entry in ``node_tasks`` is None, a single Task, or a list of
    # Tasks.
    level_parents: List[np.ndarray] = [np.array([0], dtype=np.int64)]
    level_tasks: List[List[object]] = []

    records = np.arange(collection.num_records, dtype=np.intp)
    offsets = np.array([0, records.size], dtype=np.int64)
    keys = np.array([root_node_key(root_entropy)], dtype=_UINT64)

    depth = 0
    while keys.size:
        num_nodes = keys.size
        sizes = np.diff(offsets)
        off = offsets.tolist()
        stats.add_extra("tree_nodes", float(num_nodes))
        stats.max_extra("max_depth", float(depth))
        node_tasks: List[object] = [None] * num_nodes
        survivor_nodes: List[int] = []
        survivor_parts: List[np.ndarray] = []

        if stopping == "adaptive":
            # BRUTEFORCE: subproblems at the limit are emitted whole (this
            # includes sub-pair subproblems: the size-two check runs after
            # the brute-force step).
            small = sizes <= limit
            if small.any():
                for index in np.flatnonzero(small).tolist():
                    node_tasks[index] = SubsetCandidates(records[off[index] : off[index + 1]])
                stats.add_extra("bruteforce_pairs_calls", float(int(small.sum())))
            for index in np.flatnonzero(~small).tolist():
                subset = records[off[index] : off[index + 1]]
                averages = estimator.average_similarities(
                    subset, config.average_method, estimator_rng(int(keys[index]))
                )
                remove = averages > cutoff
                if remove.any():
                    tasks: List[Task] = []
                    for position in np.flatnonzero(remove).tolist():
                        anchor = int(subset[position])
                        others = np.concatenate((subset[:position], subset[position + 1 :]))
                        if others.size:
                            tasks.append(PointCandidates(anchor, others))
                    stats.add_extra("bruteforce_point_calls", float(int(remove.sum())))
                    node_tasks[index] = tasks
                    subset = subset[~remove]
                    if subset.size <= limit:
                        tasks.append(SubsetCandidates(subset))
                        stats.add_extra("bruteforce_pairs_calls", 1.0)
                        continue
                # Still above the limit, hence at least two records.
                if depth >= max_depth:
                    tasks_here = node_tasks[index]
                    if tasks_here is None:
                        node_tasks[index] = SubsetCandidates(subset)
                    else:
                        tasks_here.append(SubsetCandidates(subset))
                    continue
                survivor_nodes.append(index)
                survivor_parts.append(subset)
        elif stopping == "global":
            alive = sizes >= 2
            stop = alive & ((sizes <= limit) | (depth >= stop_depth))
            for index in np.flatnonzero(stop).tolist():
                node_tasks[index] = SubsetCandidates(records[off[index] : off[index + 1]])
            for index in np.flatnonzero(alive & ~stop).tolist():
                survivor_nodes.append(index)
                survivor_parts.append(records[off[index] : off[index + 1]])
        else:  # individual
            assert record_depths is not None
            alive = sizes >= 2
            stop = alive & ((sizes <= limit) | (depth >= max_depth))
            for index in np.flatnonzero(stop).tolist():
                node_tasks[index] = SubsetCandidates(records[off[index] : off[index + 1]])
            expired = record_depths[records] <= depth
            for index in np.flatnonzero(alive & ~stop).tolist():
                subset = records[off[index] : off[index + 1]]
                expiring = expired[off[index] : off[index + 1]]
                if expiring.any():
                    tasks = []
                    for position in np.flatnonzero(expiring).tolist():
                        anchor = int(subset[position])
                        others = np.concatenate((subset[:position], subset[position + 1 :]))
                        if others.size:
                            tasks.append(PointCandidates(anchor, others))
                    node_tasks[index] = tasks
                    subset = subset[~expiring]
                    if subset.size < 2:
                        continue
                survivor_nodes.append(index)
                survivor_parts.append(subset)

        level_tasks.append(node_tasks)
        if not survivor_nodes:
            break
        child_records, child_offsets, child_parents_local, child_ranks, child_keys = _split_level(
            matrix, survivor_parts, keys[np.asarray(survivor_nodes)], num_functions, probability
        )
        level_parents.append(np.asarray(survivor_nodes, dtype=np.int64)[child_parents_local])
        records = child_records
        offsets = child_offsets
        keys = child_keys
        depth += 1

    # Emit in depth-first preorder: a node's own tasks precede its
    # children's, children in rank order.  The preorder rank of every node is
    # computed vectorized level-by-level; emission is then a single pass over
    # the task-bearing nodes in rank order.
    emitted: List[Task] = []
    if level_tasks:
        positions = _preorder_positions(
            [len(tasks) for tasks in level_tasks], level_parents[: len(level_tasks)]
        )
        bearer_positions: List[np.ndarray] = []
        bearer_tasks: List[object] = []
        for level, node_tasks in enumerate(level_tasks):
            indices = [index for index, tasks in enumerate(node_tasks) if tasks is not None]
            if indices:
                bearer_positions.append(positions[level][indices])
                bearer_tasks.extend(node_tasks[index] for index in indices)
        if bearer_tasks:
            order = np.argsort(np.concatenate(bearer_positions), kind="stable").tolist()
            for slot in order:
                tasks_here = bearer_tasks[slot]
                if type(tasks_here) is list:
                    emitted.extend(tasks_here)
                else:
                    emitted.append(tasks_here)
    return emitted
