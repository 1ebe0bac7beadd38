"""Micro-benchmark: python vs numpy execution backend on Table-II workloads.

Reproduces the Table II protocol (fixed repetitions on a preprocessed
collection, preprocessing excluded from the timed join) once per execution
backend and reports the wall-clock times plus the speedup.  The headline
configuration is the 10,000-record synthetic UNIFORM005 surrogate — the
synthetic frequent-token dataset of Table II — with the NETFLIX surrogate
(CPSJOIN territory: very frequent tokens, very large sets) as a second data
point.

Each timing takes the minimum over ``trials`` interleaved runs, the standard
robust estimator under noisy schedulers.  The equality of the two backends'
verified pair sets is asserted on every run — the benchmark refuses to report
a speedup for diverging results.

Run as a module (``python -m repro.experiments.backend_bench``), through the
CLI (``repro-join experiment backend-bench``), or via
``scripts/run_experiments.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import CPSJoinConfig
from repro.core.cpsjoin import CPSJoin
from repro.core.preprocess import preprocess_collection
from repro.datasets.profiles import generate_profile_dataset
from repro.experiments.common import format_table, make_parser

__all__ = ["run", "main", "BENCH_WORKLOADS"]

BENCH_WORKLOADS: Tuple[Tuple[str, float], ...] = (
    # (profile name, scale factor producing ~10k records at scale=1.0 here)
    ("UNIFORM005", 4.0),
    ("NETFLIX", 10.0),
)
"""Workloads of the backend micro-benchmark (10k records at ``scale=1.0``)."""


def run(
    scale: float = 1.0,
    seed: int = 42,
    thresholds: Sequence[float] = (0.5,),
    repetitions: int = 3,
    trials: int = 3,
    workloads: Optional[Sequence[Tuple[str, float]]] = None,
) -> List[Dict[str, object]]:
    """Time both backends at seed parity and report per-workload speedups.

    ``scale`` multiplies the per-workload scale factors, so ``scale=1.0``
    benchmarks the full 10k-record collections and smaller values produce
    quick smoke runs.
    """
    rows: List[Dict[str, object]] = []
    for name, base_scale in workloads if workloads is not None else BENCH_WORKLOADS:
        dataset = generate_profile_dataset(name, scale=base_scale * scale, seed=seed)
        collection = preprocess_collection(dataset.records, seed=seed)
        # Pack once up front: like the MinHash signatures and sketches, the
        # packed token arrays are reusable preprocessing artefacts and are
        # excluded from the reported join times (the paper's protocol).
        collection.packed_tokens()
        collection.sketch_bigints()  # the python backend's scalar filter
        collection.sketch_columns()  # the numpy backend's word-major filter
        for threshold in thresholds:
            timings: Dict[str, float] = {"python": float("inf"), "numpy": float("inf")}
            pair_sets: Dict[str, frozenset] = {}
            for _ in range(trials):
                for backend in ("python", "numpy"):
                    engine = CPSJoin(
                        threshold,
                        CPSJoinConfig(seed=seed, repetitions=repetitions, backend=backend),
                    )
                    started = time.perf_counter()
                    result = engine.join_preprocessed(collection)
                    timings[backend] = min(timings[backend], time.perf_counter() - started)
                    pair_sets[backend] = frozenset(result.pairs)
            identical = pair_sets["python"] == pair_sets["numpy"]
            if not identical:
                raise AssertionError(
                    f"backend divergence on {name} at threshold {threshold}: "
                    f"{len(pair_sets['python'])} vs {len(pair_sets['numpy'])} pairs"
                )
            rows.append(
                {
                    "dataset": name,
                    "records": len(dataset.records),
                    "threshold": threshold,
                    "repetitions": repetitions,
                    "python_seconds": round(timings["python"], 3),
                    "numpy_seconds": round(timings["numpy"], 3),
                    "speedup": round(timings["python"] / max(timings["numpy"], 1e-12), 2),
                    "identical_pairs": identical,
                    "pairs": len(pair_sets["python"]),
                }
            )
    return rows


def main() -> None:
    parser = make_parser("Backend micro-benchmark (python vs numpy execution backend)")
    args = parser.parse_args()
    print(format_table(run(scale=args.scale, seed=args.seed)))


if __name__ == "__main__":
    main()
