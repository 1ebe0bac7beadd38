"""Parallel-execution benchmark: threads vs shared-memory processes.

CPSJOIN's ``r`` independent repetitions are embarrassingly parallel
(Section V-A.5), but Python's thread executor only helps where the numpy
kernels dominate — the GIL serializes everything else.  The process executor
removes that ceiling: the preprocessed collection's
:class:`repro.store.RecordStore` is placed in a shared-memory segment once
and each worker process attaches zero-copy, so the only per-run cost is
forking the pool and pickling the merged pair sets back.

This benchmark measures exactly that trade-off: the same join (fixed seed,
numpy backend) on the ``threads`` and ``processes`` executors at 1/2/4/8
workers, on the 10k-record UNIFORM005 and NETFLIX surrogates.  Every timed
run is asserted to report the pair set of the sequential reference — the
benchmark refuses to report a speedup for diverging results.  Results are
written to ``BENCH_parallel.json`` (see
:func:`repro.experiments.common.write_bench_json`), which records the
machine's CPU count alongside the timings: on a single-core runner the
expected process speedup is 1×, and the artifact says so rather than hiding
it.

Run as a module (``python -m repro.experiments.parallel_bench``), through
the CLI (``repro-join experiment parallel-bench``), or via
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

__all__ = ["run", "main", "BENCH_WORKLOADS", "DEFAULT_WORKER_COUNTS"]

BENCH_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    # (profile name, scale factor producing ~10k records at scale=1.0 here)
    ("UNIFORM005", 4.0),
    ("NETFLIX", 10.0),
)
"""Workloads of the parallel benchmark (10k records at ``scale=1.0``)."""

DEFAULT_WORKER_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)
"""Worker counts swept for each executor."""


def run(
    scale: float = 1.0,
    seed: int = 42,
    threshold: float = 0.5,
    repetitions: int = 8,
    trials: int = 2,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    workloads: Optional[Sequence[Tuple[str, float]]] = None,
    executors: Sequence[str] = ("threads", "processes"),
    out_json: Optional[str] = "BENCH_parallel.json",
) -> List[Dict[str, object]]:
    """Time threads vs processes at each worker count, at strict seed parity.

    ``scale`` multiplies the per-workload scale factors (``1.0`` benchmarks
    the full 10k-record collections).  Every row reports the speedup over
    the same executor's 1-worker run; the serial single-worker wall clock is
    the shared baseline both executors are normalized against.  When
    ``out_json`` is set the rows are also written as a machine-readable
    artifact.
    """
    rows: List[Dict[str, object]] = []
    for name, base_scale in workloads if workloads is not None else BENCH_WORKLOADS:
        dataset = generate_profile_dataset(name, scale=base_scale * scale, seed=seed)
        collection = preprocess_collection(dataset.records, seed=seed)
        # Warm the reusable artefacts once up front (the paper's protocol:
        # preprocessing is excluded from join time).  The packed CSR arrays
        # already live in the record store; only the word-major sketch
        # columns of the numpy filter remain to warm.
        collection.sketch_columns()

        def timed_join(workers: int, executor: str) -> Tuple[float, frozenset]:
            config = CPSJoinConfig(
                seed=seed,
                repetitions=repetitions,
                backend="numpy",
                workers=workers,
                executor=executor,
            )
            engine = CPSJoin(threshold, config)
            best = float("inf")
            pairs: frozenset = frozenset()
            for _ in range(trials):
                started = time.perf_counter()
                result = engine.join_preprocessed(collection)
                best = min(best, time.perf_counter() - started)
                pairs = frozenset(result.pairs)
            return best, pairs

        baseline_seconds, baseline_pairs = timed_join(1, "serial")
        for executor in executors:
            one_worker_seconds: Optional[float] = None
            for workers in worker_counts:
                seconds, pairs = timed_join(workers, executor)
                if pairs != baseline_pairs:
                    raise AssertionError(
                        f"executor divergence on {name}: {executor} x{workers} reported "
                        f"{len(pairs)} pairs vs {len(baseline_pairs)} sequential"
                    )
                if workers == 1:
                    one_worker_seconds = seconds
                rows.append(
                    {
                        "dataset": name,
                        "records": len(dataset.records),
                        "threshold": threshold,
                        "executor": executor,
                        "workers": workers,
                        "seconds": round(seconds, 3),
                        # None when the sweep skips workers=1 — never a
                        # mislabeled baseline against some other count.
                        "speedup_vs_1": (
                            round(one_worker_seconds / max(seconds, 1e-12), 2)
                            if one_worker_seconds is not None
                            else None
                        ),
                        "speedup_vs_serial": round(baseline_seconds / max(seconds, 1e-12), 2),
                        "identical_pairs": True,
                        "pairs": len(baseline_pairs),
                    }
                )
    if out_json:
        write_bench_json(
            "parallel-bench",
            rows,
            out_json,
            scale=scale,
            seed=seed,
            meta={
                "threshold": threshold,
                "repetitions": repetitions,
                "worker_counts": list(worker_counts),
                "note": (
                    "speedup_vs_1 normalizes each executor against its own 1-worker run; "
                    "process speedups require cpu_count > 1 (see environment.cpu_count)"
                ),
            },
        )
    return rows


def main() -> None:
    parser = make_parser("Parallel benchmark (threads vs shared-memory process executor)")
    parser.add_argument(
        "--out-json",
        type=str,
        default="BENCH_parallel.json",
        help="machine-readable output path (default BENCH_parallel.json)",
    )
    parser.add_argument(
        "--workers",
        nargs="*",
        type=int,
        default=list(DEFAULT_WORKER_COUNTS),
        help="worker counts to sweep (default 1 2 4 8)",
    )
    args = parser.parse_args()
    rows = run(
        scale=args.scale,
        seed=args.seed,
        worker_counts=tuple(args.workers),
        out_json=args.out_json,
    )
    print(format_table(rows))
    print(f"\n(cpu_count={os.cpu_count()}; artifact written to {args.out_json})")


if __name__ == "__main__":
    main()
