"""perfbench: the repository benchmark (CPSJOIN joins and the served index).

Runs one workload for a time budget, checks every output, and prints one
JSON line as the last line of standard output::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics (from wrappers installed around each layer's public functions; see
``tracer.py``).  Workloads, metrics and the layer-to-end-to-end mapping are
described in ``perfbench/README.md``.

Usage, from the repository root::

    python3 perfbench/run.py --workload join-uniform --seed 1 --seconds 15 --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BACKEND,
    BASE_SHARE,
    CHECK_SAMPLE,
    CLOSED_DEPTH,
    CONNECTIONS,
    EXECUTOR,
    HASH_SEED,
    INSERT_SHARE,
    OPEN_RATE,
    OUT_DIR,
    SERVER_ARGS,
    SETUP_SPAWNS,
    THRESHOLD,
    WORK_DIR,
    WORKLOADS,
    Workload,
    child_env,
    cpu_record,
    generate_records,
    jaccard,
    median,
    peak_rss_mb_of,
    percentile,
    require_source,
)

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150.0
SERVER_START_TIMEOUT_S = 60.0
INF = float("inf")

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput": "1/s",
    "recall": "frac",
    "peak_rss_mb": "MiB",
    "completed_frac": "frac",
}

LAYER_UNITS = {
    "preprocess.busy_s": "s",
    "minhash.busy_s": "s",
    "sketch.busy_s": "s",
    "preprocess.ns_per_token": "ns",
    "collection.lazy_s": "s",
    "candidate.busy_s": "s",
    "candidate.tasks": "count",
    "candidate.small_task_share": "frac",
    "candidate.tree_nodes": "count",
    "filter.busy_s": "s",
    "filter.calls": "count",
    "filter.pairs_in": "count",
    "filter.pairs_out": "count",
    "filter.survival": "frac",
    "filter.ns_per_pair": "ns",
    "verify.busy_s": "s",
    "verify.pairs_in": "count",
    "verify.pairs_out": "count",
    "verify.yield": "frac",
    "engine.flushes": "count",
    "engine.self_s": "s",
    "repetition.busy_s": "s",
    "repetition.single_recall": "frac",
    "index.build_s": "s",
    "index.query_batch_ms": "ms",
    "index.batch_queries": "count",
    "index.query_us_per_query": "us",
    "index.candidates_per_match": "ratio",
    "index.insert_ms": "ms",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "admission.wait_p50_ms": "ms",
    "admission.wait_p99_ms": "ms",
    "admission.shed": "count",
    "coalescer.batch_mean": "count",
    "coalescer.submit_p50_ms": "ms",
    "coalescer.submit_p99_ms": "ms",
    "wal.append_p50_ms": "ms",
    "wal.append_p99_ms": "ms",
    "wal.snapshots": "count",
    "wal.snapshot_s": "s",
    "wal.bytes_per_user_byte": "ratio",
    "loadgen.late_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.completed": "count",
    "loadgen.request_p99_ms": "ms",
    "loadgen.query_p50_ms": "ms",
    "loadgen.query_p99_ms": "ms",
    "loadgen.insert_p50_ms": "ms",
    "loadgen.insert_p95_ms": "ms",
    "obs.trace_overhead": "ratio",
    "obs.span_agreement": "ratio",
}

SPAN_AGREEMENT_FLOOR = 0.5
SPAN_AGREEMENT_SLACK = 0.02
"""The external candidate/filter/verify spans nest inside the engine's own
``JoinStats`` stage timers, so each covers at most all of its timer (plus
clock noise) and, with the engine's per-task bookkeeping outside them, at
least half of it; anything else means the spans and timers disagree."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer(layers: Dict[str, Any], name: str) -> Dict[str, Any]:
    return layers.get(name) or {"calls": 0, "busy": 0.0, "counts": {}, "durations": []}


def _durations_median(layer: Dict[str, Any]) -> float:
    return median(layer.get("durations") or [])


def _durations_percentile(layer: Dict[str, Any], share: float) -> float:
    return percentile(layer.get("durations") or [], share)


# ====================================================================== join workloads
@dataclass
class JoinRun:
    workload: Workload
    records: List[tuple]
    worker: Dict[str, Any]
    exact_pairs: set
    index_layers: Dict[str, Any] = field(default_factory=dict)


def run_join(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> JoinRun:
    out = work / "join.json"
    command = [sys.executable, str(BENCH_DIR / "join_worker.py"), "--workload", workload.name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out", str(out)]
    if trace:
        command += ["--trace-out", str(OUT_DIR / f"{workload.name}-seed{seed}-join.json")]
    if workload.scale != WORKLOADS[workload.name].scale:
        command += ["--scale", str(workload.scale)]
    subprocess.run(command, check=True, timeout=CHILD_TIMEOUT_S, env=child_env())
    worker = json.loads(out.read_text(encoding="utf-8"))

    # The exact reference runs after the worker has exited, outside every
    # timed region, with the exact SimilarityIndex (not AllPairs).
    from repro.index import SimilarityIndex

    recorder = None
    if trace:
        from tracer import Recorder, install_index_layer

        recorder = Recorder()
        install_index_layer(recorder)
    records = generate_records(workload, seed)
    reference = SimilarityIndex.build(records, THRESHOLD, candidates="exact", backend=BACKEND,
                                      executor=EXECUTOR, workers=1)
    exact = reference.self_join_pairs()
    index_layers: Dict[str, Any] = {}
    if recorder is not None:
        recorder.uninstall()
        index_layers = recorder.dump()["layers"]
    return JoinRun(workload, records, worker, exact, index_layers)


def check_join(run: JoinRun) -> List[str]:
    """Wrong answers of a join run (an empty list means every check passed)."""
    errors: List[str] = []
    iterations = run.worker["iterations"] + run.worker.get("traced_iterations", [])
    first = iterations[0]
    pairs = [tuple(pair) for pair in first["pairs"]]
    if len(set(pairs)) != len(pairs):
        errors.append("join reported a pair twice")
    for iteration in iterations:
        if iteration.get("pairs") is not None and len(iteration["pairs"]) != iteration["results"]:
            errors.append(f"{len(iteration['pairs'])} pairs reported but the join counted "
                          f"{iteration['results']} results")
        for key in ("digest", "results", "pre_candidates", "candidates", "verified",
                    "tree_nodes", "subset_tasks", "point_tasks"):
            if iteration[key] != first[key]:
                errors.append(f"{key} differs between joins at one seed: "
                              f"{iteration[key]} != {first[key]}")
    if "layers" in run.worker:
        for stage, ratio in span_agreement(run.worker).items():
            if not SPAN_AGREEMENT_FLOOR <= ratio <= 1.0 + SPAN_AGREEMENT_SLACK:
                errors.append(f"external {stage} spans cover {ratio:.3f} of the engine's "
                              f"{stage}_seconds")
    for a, b in pairs:
        if not (0 <= a < b < len(run.records)):
            errors.append(f"pair ({a}, {b}) is not a canonical pair of record ids")
            continue
        score = jaccard(run.records[a], run.records[b])
        if score < THRESHOLD:
            errors.append(f"pair ({a}, {b}) re-scores {score:.4f} < {THRESHOLD}")
    return errors


def span_agreement(worker: Dict[str, Any]) -> Dict[str, float]:
    """External span time over the engine's own timer, per stage (traced phase)."""
    traced = worker["traced_iterations"]
    return {stage: _ratio(_layer(worker["layers"], stage)["busy"],
                          sum(iteration[f"{stage}_seconds"] for iteration in traced))
            for stage in ("candidate", "filter", "verify")}


def join_metrics(run: JoinRun) -> Dict[str, float]:
    iterations = run.worker["iterations"]
    join_times = [iteration["join_s"] for iteration in iterations]
    pairs = {tuple(pair) for pair in iterations[0]["pairs"]}
    recall = _ratio(len(pairs & run.exact_pairs), len(run.exact_pairs)) if run.exact_pairs else 1.0
    return {
        "setup_s": median([iteration["setup_s"] for iteration in iterations]),
        "latency_p50_ms": median(join_times) * 1e3,
        "throughput": len(run.records) / median(join_times),
        "recall": recall,
        "peak_rss_mb": iterations[0]["peak_rss_mb"],
        "completed_frac": 1.0,
    }


def join_layers(run: JoinRun) -> Dict[str, float]:
    worker = run.worker
    layers = worker["layers"]
    traced = worker["traced_iterations"]
    joins = len(traced)
    candidate = _layer(layers, "candidate")
    filt = _layer(layers, "filter")
    verify = _layer(layers, "verify")
    repetition = _layer(layers, "repetition")
    join_total = sum(iteration["join_s"] for iteration in traced)
    child_total = candidate["busy"] + filt["busy"] + verify["busy"]
    exact = run.exact_pairs
    single = [_ratio(len({tuple(pair) for pair in pairs} & exact), len(exact)) if exact else 1.0
              for pairs in worker.get("repetition_pairs", [])]
    preprocess = sum(iteration["setup_s"] for iteration in traced) / joins
    metrics = {
        "preprocess.busy_s": preprocess,
        "minhash.busy_s": _layer(layers, "minhash")["busy"] / joins,
        "sketch.busy_s": _layer(layers, "sketch")["busy"] / joins,
        "preprocess.ns_per_token": preprocess / worker["tokens"] * 1e9,
        "collection.lazy_s": _layer(layers, "collection")["busy"] / joins,
        "candidate.busy_s": candidate["busy"] / joins,
        "candidate.tasks": candidate["counts"].get("tasks", 0.0) / joins,
        "candidate.small_task_share": _ratio(candidate["counts"].get("small_subset_tasks", 0.0),
                                             candidate["counts"].get("subset_tasks", 0.0)),
        "candidate.tree_nodes": traced[0]["tree_nodes"],
        "filter.busy_s": filt["busy"] / joins,
        "filter.calls": filt["calls"] / joins,
        "filter.pairs_in": filt["counts"].get("pairs_in", 0.0) / joins,
        "filter.pairs_out": filt["counts"].get("pairs_out", 0.0) / joins,
        "filter.survival": _ratio(filt["counts"].get("pairs_out", 0.0), filt["counts"].get("pairs_in", 0.0)),
        "filter.ns_per_pair": _ratio(filt["busy"], filt["counts"].get("pairs_in", 0.0)) * 1e9,
        "verify.busy_s": verify["busy"] / joins,
        "verify.pairs_in": verify["counts"].get("pairs_in", 0.0) / joins,
        "verify.pairs_out": verify["counts"].get("pairs_out", 0.0) / joins,
        "verify.yield": _ratio(verify["counts"].get("pairs_out", 0.0), verify["counts"].get("pairs_in", 0.0)),
        # The engine verifies once per flushed batch that has survivors.
        "engine.flushes": verify["calls"] / joins,
        "engine.self_s": (join_total - child_total) / joins,
        "repetition.busy_s": repetition["busy"] / joins,
        "repetition.single_recall": sum(single) / len(single) if single else 0.0,
        "obs.trace_overhead": _ratio(median([iteration["join_s"] for iteration in traced]),
                                     median([iteration["join_s"] for iteration in worker["iterations"]])),
        "obs.span_agreement": min(span_agreement(worker).values()),
    }
    metrics.update(index_layer_metrics(run.index_layers))
    return metrics


# ====================================================================== serve workloads
@dataclass
class ServeRun:
    workload: Workload
    records: List[tuple]
    num_base: int
    expected: List[list]  # offline base-index answer per record
    outcomes: list  # loadgen.Outcome
    window_s: float
    setup_times: List[float]
    peak_rss_mb: float
    sample: List[int]  # record indices re-queried after the run
    sample_answers: List[list]
    grown_answers: List[list] = field(default_factory=list)
    traced_outcomes: Optional[list] = None
    traced_window_s: float = 0.0
    server_layers: Dict[str, Any] = field(default_factory=dict)


class Server:
    """One ``launch_server.py`` subprocess with its own data directory."""

    def __init__(self, work: Path, name: str, base_file: Path,
                 trace_out: Optional[Path] = None) -> None:
        self.port_file = work / f"{name}.port"
        command = [sys.executable, str(BENCH_DIR / "launch_server.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", str(base_file), "--data-dir", str(work / f"{name}.state"),
                    "--port-file", str(self.port_file), "--seed", str(HASH_SEED), *SERVER_ARGS]
        self.port_file.unlink(missing_ok=True)
        self.log = open(work / f"{name}.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(command, env=child_env(), stdout=self.log, stderr=subprocess.STDOUT)
        while not self.port_file.exists() or not self.port_file.read_text().endswith("\n"):
            if self.process.poll() is not None:
                self.log.close()
                raise RuntimeError(f"server exited with {self.process.returncode} during start-up: "
                                   + (work / f"{name}.log").read_text(errors="replace")[-2000:])
            if time.perf_counter() - started > SERVER_START_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server did not start in time")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        host, port = self.port_file.read_text().split()
        self.host, self.port = host, int(port)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def _as_lists(matches) -> List[list]:
    """Matches as ``[[id, similarity], ...]``, the shape a served answer has."""
    return [[int(record_id), float(score)] for record_id, score in matches]


def traffic_plan(workload: Workload, records: Sequence[tuple], num_base: int, seed: int,
                 seconds: float):
    """Seeded requests: open loop → a fixed plan; closed loop → a query stream."""
    import numpy as np

    rng = np.random.default_rng([seed, 0x5E4E])
    if workload.traffic == "open":
        count = int(OPEN_RATE * seconds)
        is_insert = rng.random(count) < INSERT_SHARE
        queries = rng.integers(0, len(records), size=count)
        tail = len(records) - num_base
        plan, inserted = [], 0
        for index in range(count):
            if is_insert[index]:
                record = num_base + inserted % tail
                inserted += 1
                plan.append(("insert", record, records[record]))
            else:
                record = int(queries[index])
                plan.append(("query", record, records[record]))
        return plan
    stream: List[int] = []

    def record_at(index: int):
        while index >= len(stream):
            stream.extend(int(value) for value in rng.integers(0, len(records), size=4096))
        return stream[index], records[stream[index]]

    return record_at


def drive(workload: Workload, server: Server, plan, seconds: float):
    from loadgen import closed_loop, open_loop

    if workload.traffic == "open":
        outcomes = asyncio.run(open_loop(server.host, server.port, plan, OPEN_RATE, CONNECTIONS))
        done = [outcome.done for outcome in outcomes if outcome.done is not None]
        window = (max(done) if done else outcomes[-1].due) - outcomes[0].due
        return outcomes, window
    return asyncio.run(closed_loop(server.host, server.port, plan, seconds, CONNECTIONS, CLOSED_DEPTH))


def run_serve(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> ServeRun:
    import numpy as np

    from repro.datasets.base import Dataset
    from repro.datasets.io import write_dataset
    from repro.index import SimilarityIndex
    from repro.service.client import ServiceClient

    if trace:
        seconds /= 2.0  # an untraced and a traced phase share the run's time
    records = generate_records(workload, seed)
    num_base = int(len(records) * BASE_SHARE)
    base_file = work / "base.txt"
    write_dataset(Dataset(records[:num_base], name=workload.profile), base_file)
    offline = SimilarityIndex.build(records[:num_base], THRESHOLD, candidates="exact", backend=BACKEND,
                                    executor=EXECUTOR, workers=1)
    expected = [_as_lists(matches) for matches in offline.query_batch(records)]
    sample = [int(value) for value in
              np.random.default_rng([seed, 0xC4EC]).integers(0, len(records), size=CHECK_SAMPLE)]

    setup_times: List[float] = []
    server = None
    for spawn in range(SETUP_SPAWNS):
        server = Server(work, f"server{spawn}", base_file)
        setup_times.append(server.setup_s)
        if spawn < SETUP_SPAWNS - 1:
            server.stop()
    try:
        plan = traffic_plan(workload, records, num_base, seed, seconds)
        outcomes, window = drive(workload, server, plan, seconds)
        with ServiceClient.connect(server.host, server.port, timeout=60.0) as client:
            sample_answers = [_as_lists(matches) for matches in
                              client.query_batch([records[index] for index in sample])]
        peak = peak_rss_mb_of(server.process.pid)
    finally:
        server.stop()
    run = ServeRun(workload, records, num_base, expected, outcomes, window, setup_times, peak,
                   sample, sample_answers)

    # Offline index grown with the acknowledged inserts, in record-id order.
    for record_id, record in sorted(acknowledged_inserts(outcomes).items()):
        offline.insert(records[record])
    run.grown_answers = [_as_lists(matches) for matches in
                         offline.query_batch([records[index] for index in sample])]

    if trace:
        trace_file = OUT_DIR / f"{workload.name}-seed{seed}-server.json"
        traced = Server(work, "traced", base_file, trace_out=trace_file)
        try:
            plan = traffic_plan(workload, records, num_base, seed, seconds)
            run.traced_outcomes, run.traced_window_s = drive(workload, traced, plan, seconds)
        finally:
            traced.stop()
        run.server_layers = json.loads(trace_file.read_text(encoding="utf-8"))["layers"]
    return run


def acknowledged_inserts(outcomes) -> Dict[int, int]:
    """Record id → index of the inserted record, for every acknowledged insert."""
    return {int(outcome.response["result"]["record_id"]): outcome.record
            for outcome in outcomes if outcome.op == "insert" and outcome.ok}


def check_answers(run: ServeRun, outcomes) -> List[str]:
    """Wrong answers among one phase's responses (a fresh server per phase)."""
    errors: List[str] = []
    inserted = acknowledged_inserts(outcomes)
    if sorted(inserted) != list(range(run.num_base, run.num_base + len(inserted))):
        errors.append("acknowledged insert ids are not contiguous after the base collection")
    for slot in range(CONNECTIONS):
        acks = [int(outcome.response["result"]["record_id"])
                for index, outcome in enumerate(outcomes)
                if index % CONNECTIONS == slot and outcome.op == "insert" and outcome.ok]
        if acks != sorted(acks):
            errors.append(f"insert ids on connection {slot} are out of request order")
    for outcome in outcomes:
        if outcome.op != "query" or not outcome.ok:
            continue
        matches = outcome.response["result"]["matches"]
        base = [match for match in matches if match[0] < run.num_base]
        if base != run.expected[outcome.record]:
            errors.append(f"query for record {outcome.record}: base matches {base[:4]}... differ "
                          f"from the offline index {run.expected[outcome.record][:4]}...")
        for record_id, score in matches:
            if record_id < run.num_base:
                continue
            if record_id not in inserted:
                errors.append(f"query for record {outcome.record} matched unknown id {record_id}")
                continue
            real = jaccard(run.records[outcome.record], run.records[inserted[record_id]])
            if real < THRESHOLD or abs(real - score) > 1e-9:
                errors.append(f"query for record {outcome.record}: inserted match {record_id} "
                              f"scored {score}, re-scores {real:.6f}")
    return errors


def check_serve(run: ServeRun) -> List[str]:
    """Wrong answers of a serve run (an empty list means every check passed)."""
    errors = check_answers(run, run.outcomes)
    if run.traced_outcomes is not None:
        errors += check_answers(run, run.traced_outcomes)
    if run.sample_answers != run.grown_answers:
        wrong = sum(served != grown for served, grown in zip(run.sample_answers, run.grown_answers))
        errors.append(f"{wrong} of {len(run.sample)} re-queried records differ from an offline "
                      "index grown with the acknowledged inserts")
    return errors[:20]


def _latencies(outcomes, origin: str, op: Optional[str] = None) -> List[float]:
    latencies = []
    for outcome in outcomes:
        if op is not None and outcome.op != op:
            continue
        start = outcome.due if origin == "due" else outcome.sent
        latencies.append((outcome.done - start) if outcome.ok else INF)
    return latencies


def serve_metrics(run: ServeRun) -> Dict[str, float]:
    origin = "due" if run.workload.traffic == "open" else "sent"
    latencies = _latencies(run.outcomes, origin)
    completed = sum(outcome.ok for outcome in run.outcomes)
    found = total = 0
    for outcome in run.outcomes:
        if outcome.op == "query" and outcome.ok:
            expected = run.expected[outcome.record]
            served = {match[0] for match in outcome.response["result"]["matches"]}
            total += len(expected)
            found += sum(match[0] in served for match in expected)
    return {
        "setup_s": median(run.setup_times),
        "latency_p50_ms": percentile(latencies, 0.50) * 1e3,
        "throughput": completed / run.window_s,
        "recall": _ratio(found, total),
        "peak_rss_mb": run.peak_rss_mb,
        "completed_frac": completed / len(run.outcomes),
    }


def serve_layers(run: ServeRun) -> Dict[str, float]:
    layers = run.server_layers
    outcomes = run.traced_outcomes
    origin = "due" if run.workload.traffic == "open" else "sent"
    traced_latencies = _latencies(outcomes, origin)
    untraced_latencies = _latencies(run.outcomes, origin)
    if run.workload.traffic == "open":
        overhead = _ratio(percentile(traced_latencies, 0.5), percentile(untraced_latencies, 0.5))
    else:
        traced_rate = sum(outcome.ok for outcome in outcomes) / run.traced_window_s
        untraced_rate = sum(outcome.ok for outcome in run.outcomes) / run.window_s
        overhead = _ratio(untraced_rate, traced_rate)
    # The load generator's own numbers describe the untraced measurement.
    untraced = run.outcomes
    late = [outcome.sent - outcome.due for outcome in untraced] if origin == "due" else [0.0]
    admission = _layer(layers, "admission.acquire")
    submit = _layer(layers, "coalescer.submit")
    query_batch = _layer(layers, "index.query_batch")
    wal = _layer(layers, "wal.append")
    snapshot = _layer(layers, "wal.snapshot")
    metrics = index_layer_metrics(layers)
    metrics.update({
        "protocol.decode_us": _durations_median(_layer(layers, "protocol.decode")) * 1e6,
        "protocol.encode_us": _durations_median(_layer(layers, "protocol.encode")) * 1e6,
        "admission.wait_p50_ms": _durations_percentile(admission, 0.50) * 1e3,
        "admission.wait_p99_ms": _durations_percentile(admission, 0.99) * 1e3,
        "admission.shed": admission["counts"].get("shed", 0.0),
        "coalescer.batch_mean": _ratio(submit["calls"], query_batch["calls"]),
        "coalescer.submit_p50_ms": _durations_percentile(submit, 0.50) * 1e3,
        "coalescer.submit_p99_ms": _durations_percentile(submit, 0.99) * 1e3,
        "wal.append_p50_ms": _durations_percentile(wal, 0.50) * 1e3,
        "wal.append_p99_ms": _durations_percentile(wal, 0.99) * 1e3,
        "wal.snapshots": float(snapshot["calls"]),
        "wal.snapshot_s": _durations_median(snapshot),
        "wal.bytes_per_user_byte": _ratio(
            wal["counts"].get("bytes", 0.0) + snapshot["counts"].get("bytes", 0.0),
            wal["counts"].get("user_bytes", 0.0)),
        "loadgen.late_p99_ms": percentile(late, 0.99) * 1e3,
        "loadgen.sent": float(len(untraced)),
        "loadgen.completed": float(sum(outcome.ok for outcome in untraced)),
        "loadgen.request_p99_ms": percentile(untraced_latencies, 0.99) * 1e3,
        "loadgen.query_p50_ms": percentile(_latencies(untraced, origin, "query"), 0.50) * 1e3,
        "loadgen.query_p99_ms": percentile(_latencies(untraced, origin, "query"), 0.99) * 1e3,
        "loadgen.insert_p50_ms": percentile(_latencies(untraced, origin, "insert"), 0.50) * 1e3,
        "loadgen.insert_p95_ms": percentile(_latencies(untraced, origin, "insert"), 0.95) * 1e3,
        "obs.trace_overhead": overhead,
    })
    return metrics


def index_layer_metrics(layers: Dict[str, Any]) -> Dict[str, float]:
    query_batch = _layer(layers, "index.query_batch")
    queries = query_batch["counts"].get("queries", 0.0)
    return {
        "index.build_s": _layer(layers, "index.build")["busy"],
        "index.query_batch_ms": _durations_median(query_batch) * 1e3,
        "index.batch_queries": _ratio(queries, query_batch["calls"]),
        "index.query_us_per_query": _ratio(query_batch["busy"], queries) * 1e6,
        "index.candidates_per_match": _ratio(query_batch["counts"].get("candidates", 0.0),
                                             query_batch["counts"].get("matches", 0.0)),
        "index.insert_ms": _durations_median(_layer(layers, "index.insert")) * 1e3,
    }


# ====================================================================== entry point
def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run, check and summarize one workload; returns (errors, attempted, failed, metrics)."""
    if workload.kind == "join":
        run = run_join(workload, seed, seconds, trace, work)
        errors = check_join(run)
        attempted = len(run.worker["iterations"])
        failed = 0
        metrics = join_layers(run) if trace else join_metrics(run)
    else:
        run = run_serve(workload, seed, seconds, trace, work)
        errors = check_serve(run)
        attempted = len(run.outcomes)
        failed = sum(not outcome.ok for outcome in run.outcomes)
        metrics = serve_layers(run) if trace else serve_metrics(run)
    units = LAYER_UNITS if trace else E2E_UNITS
    full = {name: float(metrics.get(name, 0.0)) for name in units}
    return errors, attempted, failed, {name: {"value": value, "unit": units[name]}
                                       for name, value in full.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark: one workload, checked.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's collection scale (smoke tests only)")
    args = parser.parse_args(argv)

    require_source()
    workload = WORKLOADS[args.workload]
    if args.scale is not None:
        workload = replace(workload, scale=args.scale)
    work = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        errors, attempted, failed, metrics = measure(workload, args.seed, args.seconds,
                                                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"# CHECK FAILED: {error}", file=sys.stderr)
    print("# env " + json.dumps({"workload": workload.name, "seed": args.seed, "scale": workload.scale,
                                 **cpu_record()}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
