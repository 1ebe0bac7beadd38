"""Join-workload worker: preprocess + CPSJOIN self-join, repeated for a time budget.

Runs in a fresh process per benchmark run, so its ``ru_maxrss`` is the peak
memory of the join alone.  Every iteration preprocesses the collection from
scratch (``setup_s``) and joins it once (``join_s``): a one-shot join pays for
the collection's lazily built artefacts, so they are inside ``join_s``.

With ``--trace 1`` the worker first runs an untraced phase, then installs the
layer wrappers of :mod:`tracer` and runs a traced phase (half the time each);
the ratio of the two phases' median join times is the tracing overhead.

Usage (normally started by ``run.py``)::

    python3 perfbench/join_worker.py --workload join-uniform --seed 1 \\
        --seconds 15 --trace 0 --out result.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BACKEND,
    EXECUTOR,
    HASH_SEED,
    MIN_JOIN_ITERATIONS,
    REPETITIONS,
    THRESHOLD,
    WORKLOADS,
    generate_records,
    require_source,
)


def join_config():
    from repro.core.config import CPSJoinConfig

    # Paper parameters, pinned so library defaults cannot move the numbers.
    return CPSJoinConfig(
        limit=250,
        epsilon=0.1,
        embedding_size=128,
        sketch_words=8,
        sketch_false_negative_rate=0.05,
        repetitions=REPETITIONS,
        stopping="adaptive",
        average_method="sketches",
        seed=HASH_SEED,
        backend=BACKEND,
        workers=1,
        executor=EXECUTOR,
    )


def pair_digest(pairs: List[List[int]]) -> str:
    return hashlib.sha256(json.dumps(pairs).encode("ascii")).hexdigest()


def warm_up(records) -> None:
    """One join on a small prefix: first-call imports and code paths are paid
    once per process, not once per join, so they stay out of the samples."""
    from repro.core.cpsjoin import CPSJoin
    from repro.core.preprocess import preprocess_collection

    config = join_config()
    collection = preprocess_collection(records[:300], embedding_size=config.embedding_size,
                                       sketch_words=config.sketch_words, seed=config.seed)
    CPSJoin(THRESHOLD, config).join_preprocessed(collection)


def run_phase(records, seconds: float) -> List[Dict[str, Any]]:
    from repro.core.cpsjoin import CPSJoin
    from repro.core.preprocess import preprocess_collection

    config = join_config()
    iterations: List[Dict[str, Any]] = []
    phase_start = time.perf_counter()
    while len(iterations) < MIN_JOIN_ITERATIONS or time.perf_counter() - phase_start < seconds:
        started = time.perf_counter()
        collection = preprocess_collection(
            records, embedding_size=config.embedding_size, sketch_words=config.sketch_words,
            seed=config.seed,
        )
        prepared = time.perf_counter()
        result = CPSJoin(THRESHOLD, config).join_preprocessed(collection)
        joined = time.perf_counter()
        stats = result.stats
        pairs = sorted([int(first), int(second)] for first, second in result.pairs)
        iterations.append({
            "setup_s": prepared - started,
            "join_s": joined - prepared,
            "pre_candidates": stats.pre_candidates,
            "candidates": stats.candidates,
            "verified": stats.verified,
            "results": stats.results,
            "tree_nodes": stats.extra.get("tree_nodes", 0.0),
            "subset_tasks": stats.extra.get("bruteforce_pairs_calls", 0.0),
            "point_tasks": stats.extra.get("bruteforce_point_calls", 0.0),
            "candidate_seconds": stats.candidate_seconds,
            "filter_seconds": stats.filter_seconds,
            "verify_seconds": stats.verify_seconds,
            "digest": pair_digest(pairs),
            "pairs": pairs if not iterations else None,
        })
        # Peak memory of one preprocess + join in a fresh process.  Later
        # iterations can only add allocator fragmentation left by the loop
        # itself (it moved the process peak by up to 50 MB between runs).
        iterations[-1]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Collect the iteration's garbage here, outside the timed regions.
        del collection, result
        gc.collect()
    return iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[
        name for name, workload in WORKLOADS.items() if workload.kind == "join"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args(argv)

    require_source()
    workload = WORKLOADS[args.workload]
    if args.scale is not None:
        workload = replace(workload, scale=args.scale)
    records = generate_records(workload, args.seed)
    # A traced run splits its time between an untraced and a traced phase.
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    warm_up(records)
    output: Dict[str, Any] = {
        "records": len(records),
        "tokens": sum(len(record) for record in records),
        "iterations": run_phase(records, seconds),
    }
    if args.trace:
        from tracer import Recorder, install_join_layers

        recorder = Recorder()
        install_join_layers(recorder)
        output["traced_iterations"] = run_phase(records, seconds)
        recorder.uninstall()
        dump = recorder.dump()
        output["layers"] = dump["layers"]
        output["repetition_pairs"] = recorder.samples.get("repetition_pairs", [])[:REPETITIONS]
        if args.trace_out is not None:
            recorder.write(args.trace_out)
    args.out.write_text(json.dumps(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
