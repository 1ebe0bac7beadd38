"""Candidate-stage benchmark: array frontier vs scalar recursion.

The Chosen Path candidate stage exists in two bit-equivalent
implementations: the scalar depth-first recursion of
:mod:`repro.core.cpsjoin` (the reference) and the level-synchronous array
frontier of :mod:`repro.core.frontier` (the fast path, default on the numpy
backend).  This benchmark times the **candidate stage alone** — the
``candidate_seconds`` component of the per-stage split — for both walks on
the same workloads, seeds, and backend, and refuses to report a speedup
unless the verified pair sets are identical.

Per row it records the candidate/filter/verify split, the task throughput
of the candidate stage, and the frontier-vs-reference speedup.  Results are
written to ``BENCH_candidate.json`` in the same honest-environment style as
``BENCH_parallel.json``: the artifact carries the CPU count and platform so
single-core numbers read as single-core numbers.

Run as a module (``python -m repro.experiments.candidate_bench``), through
the CLI (``repro-join experiment candidate-bench``), or via
``scripts/run_experiments.py``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.core.preprocess import preprocess_collection
from repro.datasets.profiles import generate_profile_dataset
from repro.experiments.common import format_table, make_parser, write_bench_json

__all__ = ["run", "main", "BENCH_WORKLOADS"]

BENCH_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    # (profile name, scale factor producing ~10k records at scale=1.0 here)
    ("UNIFORM005", 4.0),
    ("NETFLIX", 10.0),
)
"""Workloads of the candidate benchmark (10k records at ``scale=1.0``)."""

_WALKS: Tuple[str, ...] = ("recursive", "frontier")


def run(
    scale: float = 1.0,
    seed: int = 42,
    threshold: float = 0.5,
    repetitions: int = 4,
    trials: int = 3,
    workloads: Optional[Sequence[Tuple[str, float]]] = None,
    out_json: Optional[str] = "BENCH_candidate.json",
) -> List[Dict[str, object]]:
    """Time the recursive and frontier candidate walks at strict seed parity.

    ``scale`` multiplies the per-workload scale factors (``1.0`` benchmarks
    the full 10k-record collections).  Both walks run the identical join
    (same seed, numpy backend, single worker); every row asserts the
    verified pair set equals the recursive reference's and reports
    ``best-of-trials`` stage seconds.  When ``out_json`` is set the rows are
    also written as a machine-readable artifact.
    """
    rows: List[Dict[str, object]] = []
    for name, base_scale in workloads if workloads is not None else BENCH_WORKLOADS:
        dataset = generate_profile_dataset(name, scale=base_scale * scale, seed=seed)
        collection = preprocess_collection(dataset.records, seed=seed)
        # Warm the reusable per-collection artefacts once up front (the
        # paper's protocol: preprocessing is excluded from join time).  Both
        # walks share them, so neither is charged the one-time build.
        collection.sketch_columns()
        collection.sketch_bit_matrix()
        collection.signature_rank_matrix()

        def timed_join(walk: str) -> Tuple[Dict[str, float], frozenset]:
            config = CPSJoinConfig(
                seed=seed,
                repetitions=repetitions,
                backend="numpy",
                candidate_walk=walk,
            )
            engine = CPSJoin(threshold, config)
            best: Optional[Dict[str, float]] = None
            pairs: frozenset = frozenset()
            for _ in range(trials):
                started = time.perf_counter()
                result = engine.join_preprocessed(collection)
                elapsed = time.perf_counter() - started
                stats = result.stats
                timings = {
                    "elapsed_seconds": elapsed,
                    "candidate_seconds": stats.candidate_seconds,
                    "filter_seconds": stats.filter_seconds,
                    "verify_seconds": stats.verify_seconds,
                    "tree_nodes": stats.extra.get("tree_nodes", 0.0),
                }
                if best is None or timings["candidate_seconds"] < best["candidate_seconds"]:
                    best = timings
                pairs = frozenset(result.pairs)
            assert best is not None
            return best, pairs

        reference, reference_pairs = timed_join("recursive")
        for walk in _WALKS:
            timings, pairs = (reference, reference_pairs) if walk == "recursive" else timed_join(walk)
            if pairs != reference_pairs:
                raise AssertionError(
                    f"candidate walk divergence on {name}: {walk} reported "
                    f"{len(pairs)} pairs vs {len(reference_pairs)} recursive"
                )
            candidate_seconds = timings["candidate_seconds"]
            rows.append(
                {
                    "dataset": name,
                    "records": len(dataset.records),
                    "threshold": threshold,
                    "walk": walk,
                    "candidate_seconds": round(candidate_seconds, 4),
                    "filter_seconds": round(timings["filter_seconds"], 4),
                    "verify_seconds": round(timings["verify_seconds"], 4),
                    "elapsed_seconds": round(timings["elapsed_seconds"], 4),
                    "tasks_per_second": (
                        round(timings["tree_nodes"] / max(candidate_seconds, 1e-12))
                    ),
                    "candidate_speedup": round(
                        reference["candidate_seconds"] / max(candidate_seconds, 1e-12), 2
                    ),
                    "identical_pairs": True,
                    "pairs": len(reference_pairs),
                }
            )
    if out_json:
        write_bench_json(
            "candidate-bench",
            rows,
            out_json,
            scale=scale,
            seed=seed,
            meta={
                "threshold": threshold,
                "repetitions": repetitions,
                "trials": trials,
                "note": (
                    "candidate_speedup normalizes each walk against the recursive "
                    "reference's best-of-trials candidate_seconds on the same seed; "
                    "identical_pairs is asserted, not sampled"
                ),
            },
        )
    return rows


def main() -> None:
    parser = make_parser("Candidate-stage benchmark (array frontier vs scalar recursion)")
    parser.add_argument(
        "--out-json",
        type=str,
        default="BENCH_candidate.json",
        help="machine-readable output path (default BENCH_candidate.json)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=3,
        help="timed trials per walk; the best candidate_seconds is reported (default 3)",
    )
    args = parser.parse_args()
    rows = run(
        scale=args.scale,
        seed=args.seed,
        trials=args.trials,
        out_json=args.out_json,
    )
    print(format_table(rows))
    print(f"\n(cpu_count={os.cpu_count()}; artifact written to {args.out_json})")


if __name__ == "__main__":
    main()
