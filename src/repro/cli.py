"""Command-line interface for the reproduction.

Seven subcommands cover the day-to-day uses of the library without writing
any Python:

* ``repro-join join`` — run a similarity self-join over a token-set file
  (one record per line, whitespace-separated integer tokens) and print or
  save the resulting pairs.  With ``--right`` a second dataset file turns the
  run into an R ⋈ S join (native side-aware path for the randomized
  algorithms): the reported pairs are (left index, right index).
* ``repro-join index`` — the build-once/query-many workflow: ``index build``
  constructs a :class:`repro.index.SimilarityIndex` over a dataset file and
  saves its settings and records (a pickle-free archive; old pickle files are
  refused); ``index query`` rebuilds the index from the file and runs point
  lookups from a query file (optionally
  inserting each query afterwards, the streaming deduplication shape);
  ``index query-topk`` keeps only each query's k best matches.  ``join``,
  ``index build`` and ``serve`` accept ``--measure`` to join/query under any
  registered similarity measure (default Jaccard).
* ``repro-join serve`` — the online version of the above: keep a
  :class:`SimilarityIndex` resident in an asyncio server
  (:mod:`repro.service`) answering ``query``/``insert``/``stats``/``health``
  over a JSON-lines TCP protocol, with micro-batched queries and optional
  snapshot + WAL persistence (``--data-dir``) surviving kills.
  ``--metrics`` additionally records the library-level join/index metrics
  into the registry served by the ``metrics`` operation, and
  ``--trace-file`` appends every request's span tree as JSON lines.
* ``repro-join trace`` — pretty-print a span file written by
  ``serve --trace-file`` (or any :class:`repro.obs.TraceWriter`) as
  indented per-trace trees with millisecond durations.
* ``repro-join generate`` — generate one of the surrogate datasets (or a
  synthetic TOKENS / UNIFORM / ZIPF collection) and write it in the same
  format.
* ``repro-join stats`` — print the Table I statistics of a dataset file.
* ``repro-join experiment`` — run one of the paper's experiments by name
  (``table1``, ``table2``, ``figure2``, ``figure3``, ``table4``,
  ``tokens``, ``ablation-stopping``, ``ablation-sketches``, ``rs-bench``).
  Join and serving timings are the repository benchmark's job
  (``perfbench/``), not an experiment's.

Examples::

    repro-join generate NETFLIX --scale 0.3 --out netflix.txt
    repro-join join netflix.txt --threshold 0.7 --algorithm cpsjoin --out pairs.csv
    repro-join index build netflix.txt --threshold 0.7 --out netflix.idx
    repro-join index query netflix.idx queries.txt --out matches.csv
    repro-join serve netflix.txt --threshold 0.7 --port 7777 --data-dir ./serve-state
    repro-join stats netflix.txt
    repro-join experiment figure2 --scale 0.2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.config import CPSJoinConfig
from repro.datasets.io import read_dataset, write_dataset
from repro.datasets.profiles import generate_profile_dataset
from repro.evaluation.reports import rows_to_csv
from repro.join import ALGORITHMS, similarity_join, similarity_join_rs
from repro.similarity.measures import MEASURE_NAMES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-join`` CLI."""
    parser = argparse.ArgumentParser(prog="repro-join", description="Set similarity join (CPSJOIN reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    join_parser = subparsers.add_parser("join", help="run a similarity self-join over a token-set file")
    join_parser.add_argument("input", type=str, help="dataset file (one record per line of integer tokens)")
    join_parser.add_argument(
        "--right",
        type=str,
        default=None,
        help="second dataset file: compute the R ⋈ S join of INPUT (R) and this file (S) "
        "instead of a self-join; pairs are (left index, right index)",
    )
    join_parser.add_argument(
        "--threshold", type=float, default=0.5,
        help="similarity threshold on the measure's own scale (default 0.5)",
    )
    join_parser.add_argument(
        "--measure", choices=MEASURE_NAMES, default=None,
        help="similarity measure (default jaccard); non-default thresholds are "
        "translated for the randomized algorithms through the measure's Jaccard floor",
    )
    join_parser.add_argument("--algorithm", choices=ALGORITHMS, default="cpsjoin")
    join_parser.add_argument("--seed", type=int, default=None, help="random seed for the randomized algorithms")
    join_parser.add_argument("--repetitions", type=int, default=None, help="CPSJOIN repetitions (default 10)")
    join_parser.add_argument(
        "--backend",
        choices=["python", "numpy"],
        default=None,
        help="execution backend for the filter and verify kernels (default numpy; "
        "python is the per-pair oracle, same pairs)",
    )
    join_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for the randomized algorithms (default 1; results are "
        "seed-deterministic): cpsjoin parallelizes its repetitions, minhash its bucketing "
        "rounds; bayeslsh has no parallel path and rejects workers > 1 with a clear error",
    )
    join_parser.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="how parallel workers are dispatched (default threads): 'processes' shares the "
        "preprocessed collection through shared memory for true multi-core execution",
    )
    join_parser.add_argument("--out", type=str, default=None, help="write pairs as CSV to this path (default stdout)")

    index_parser = subparsers.add_parser(
        "index", help="build a persistent SimilarityIndex / run point lookups against one"
    )
    index_subparsers = index_parser.add_subparsers(dest="index_command", required=True)

    index_build = index_subparsers.add_parser(
        "build", help="build a SimilarityIndex over a dataset file and save it"
    )
    index_build.add_argument("input", type=str, help="dataset file (one record per line of integer tokens)")
    index_build.add_argument("--out", type=str, required=True, help="output index file path")
    index_build.add_argument(
        "--threshold", type=float, default=0.5,
        help="similarity threshold on the measure's own scale (default 0.5)",
    )
    index_build.add_argument(
        "--measure", choices=MEASURE_NAMES, default=None,
        help="similarity measure of the index (default jaccard; persisted with it)",
    )
    index_build.add_argument(
        "--candidates",
        choices=["exact", "chosenpath", "lsh"],
        default="exact",
        help="candidate structure: exact inverted index (query results match an exact "
        "batch join) or an approximate chosen-path / LSH structure",
    )
    index_build.add_argument(
        "--backend",
        choices=["python", "numpy"],
        default=None,
        help="verification backend for queries (default numpy)",
    )
    index_build.add_argument("--seed", type=int, default=None, help="seed for the index hashing")
    index_build.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for the bulk signature build and for query batches "
        "(stored on the index; default 1)",
    )
    index_build.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="how index workers are dispatched (default threads)",
    )

    index_query = index_subparsers.add_parser(
        "query", help="run point lookups from a query file against a saved index"
    )
    index_query.add_argument("index", type=str, help="index file written by `index build`")
    index_query.add_argument("queries", type=str, help="query dataset file (same token-set format)")
    index_query.add_argument(
        "--insert",
        action="store_true",
        help="insert each query record into the index after querying it (streaming "
        "dedup shape) and rewrite the index file afterwards",
    )
    index_query.add_argument(
        "--out", type=str, default=None, help="write matches as CSV to this path (default stdout)"
    )
    index_query.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the loaded index's parallel query workers for this run",
    )
    index_query.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="override the loaded index's executor for this run",
    )

    index_topk = index_subparsers.add_parser(
        "query-topk",
        help="run top-k lookups from a query file against a saved index",
    )
    index_topk.add_argument("index", type=str, help="index file written by `index build`")
    index_topk.add_argument("queries", type=str, help="query dataset file (same token-set format)")
    index_topk.add_argument(
        "--k", type=int, required=True,
        help="matches to keep per query: the first k entries of the "
        "corresponding threshold query (decreasing similarity, ties by id)",
    )
    index_topk.add_argument(
        "--floor", type=float, default=None,
        help="also cut each result at the first match below this similarity "
        "(a per-query tightening of the index threshold)",
    )
    index_topk.add_argument(
        "--out", type=str, default=None, help="write matches as CSV to this path (default stdout)"
    )
    index_topk.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the loaded index's parallel query workers for this run",
    )
    index_topk.add_argument(
        "--executor",
        choices=["serial", "threads", "processes"],
        default=None,
        help="override the loaded index's executor for this run",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="serve a resident SimilarityIndex over TCP (JSON-lines protocol)"
    )
    serve_parser.add_argument(
        "input",
        type=str,
        nargs="?",
        default=None,
        help="dataset file for the initial index build; omit to start empty or to "
        "resume purely from --data-dir (an existing snapshot always wins over this)",
    )
    serve_parser.add_argument(
        "--data-dir",
        type=str,
        default=None,
        help="directory for snapshot + write-ahead-log persistence: inserts are "
        "WAL-logged before they are acknowledged and replayed on restart, so a "
        "killed server loses nothing (omit for a pure in-memory server)",
    )
    serve_parser.add_argument(
        # None defaults (not 0.5/"exact") so a snapshot-mismatch warning can
        # tell an explicit flag from an untouched default.
        "--threshold", type=float, default=None,
        help="similarity threshold on the measure's own scale (default 0.5)",
    )
    serve_parser.add_argument(
        "--measure", choices=MEASURE_NAMES, default=None,
        help="similarity measure of the served index (default jaccard)",
    )
    serve_parser.add_argument(
        "--candidates", choices=["exact", "chosenpath", "lsh"], default=None,
        help="candidate structure of the served index (default exact)",
    )
    serve_parser.add_argument(
        "--backend", choices=["python", "numpy"], default=None,
        help="verification backend for queries (default numpy)",
    )
    serve_parser.add_argument("--seed", type=int, default=None, help="seed for the index hashing")
    serve_parser.add_argument(
        "--workers", type=int, default=None, help="parallel query workers of the served index"
    )
    serve_parser.add_argument(
        "--executor", choices=["serial", "threads", "processes"], default=None,
        help="executor of the served index (default threads)",
    )
    serve_parser.add_argument("--host", type=str, default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=0, help="bind port (default 0: pick an ephemeral port)"
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=64,
        help="coalescer: dispatch a query batch at this many pending queries (default 64)",
    )
    serve_parser.add_argument(
        "--max-linger-ms", type=float, default=2.0,
        help="coalescer: dispatch at most this many ms after the first pending query "
        "(default 2.0; 0 coalesces only queries arriving in the same event-loop tick)",
    )
    serve_parser.add_argument(
        "--snapshot-every", type=int, default=512,
        help="write a snapshot and truncate the WAL every N inserts (default 512; "
        "0 snapshots only on clean shutdown)",
    )
    serve_parser.add_argument(
        "--no-wal-sync", action="store_true",
        help="skip the per-insert fsync of the WAL (faster; still survives a process "
        "kill, but not an OS crash)",
    )
    serve_parser.add_argument(
        "--max-inflight", type=int, default=64,
        help="overload policy: work requests executing concurrently before new "
        "ones queue (default 64)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=256,
        help="overload policy: requests waiting for an execution slot (and "
        "pending inserts in the writer queue) before the server sheds with a "
        "'busy' error (default 256)",
    )
    serve_parser.add_argument(
        "--max-conn-inflight", type=int, default=32,
        help="overload policy: responses outstanding on one connection before "
        "its further requests are shed with 'busy' (default 32)",
    )
    serve_parser.add_argument(
        "--request-deadline-ms", type=float, default=0.0,
        help="drop requests not answered within this many milliseconds — the "
        "client has typically stopped waiting (default 0: no deadline)",
    )
    serve_parser.add_argument(
        "--port-file", type=str, default=None,
        help="write 'host port' to this file once the server is listening "
        "(for scripts starting the server in the background)",
    )
    serve_parser.add_argument(
        "--metrics", action="store_true",
        help="record library-level join/index metrics into the served registry, "
        "so the 'metrics' operation exposes engine counters alongside the "
        "per-request latency histograms it always carries",
    )
    serve_parser.add_argument(
        "--trace-file", type=str, default=None,
        help="append every request's trace spans to this file as JSON lines "
        "(pretty-print with `repro-join trace FILE`)",
    )
    serve_parser.add_argument(
        "--slow-log", type=int, default=32,
        help="slowest requests kept in the in-memory slow-query log surfaced "
        "by the 'stats' operation (default 32; 0 disables it)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="pretty-print a span JSON-lines file as per-trace trees"
    )
    trace_parser.add_argument("input", type=str, help="span file written by serve --trace-file")
    trace_parser.add_argument(
        "--trace-id", type=str, default=None, help="show only this trace (e.g. req-17)"
    )
    trace_parser.add_argument(
        "--limit", type=int, default=0,
        help="print at most this many traces (default 0: all of them)",
    )
    trace_parser.add_argument(
        "--min-ms", type=float, default=0.0,
        help="show only traces whose root span took at least this many milliseconds",
    )

    generate_parser = subparsers.add_parser("generate", help="generate a surrogate or synthetic dataset")
    generate_parser.add_argument("name", type=str, help="profile name, e.g. NETFLIX, AOL, TOKENS10K, UNIFORM005")
    generate_parser.add_argument("--scale", type=float, default=1.0)
    generate_parser.add_argument("--seed", type=int, default=42)
    generate_parser.add_argument("--out", type=str, required=True, help="output dataset file")

    stats_parser = subparsers.add_parser("stats", help="print Table I statistics of a dataset file")
    stats_parser.add_argument("input", type=str)

    experiment_parser = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment_parser.add_argument(
        "name",
        choices=[
            "table1",
            "table2",
            "figure2",
            "figure3",
            "table4",
            "tokens",
            "ablation-stopping",
            "ablation-sketches",
            "rs-bench",
        ],
    )
    experiment_parser.add_argument("--scale", type=float, default=0.3)
    experiment_parser.add_argument("--seed", type=int, default=42)
    return parser


def _command_join(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input)
    # seed/backend/workers are threaded as similarity_join kwargs (one code
    # path for every algorithm, explicit kwargs win over config fields); a
    # config is only needed to carry the cpsjoin repetition override.
    config = None
    if args.algorithm == "cpsjoin" and args.repetitions is not None:
        config = CPSJoinConfig(repetitions=args.repetitions)
    if args.right is not None:
        right_dataset = read_dataset(args.right)
        result = similarity_join_rs(
            dataset.records,
            right_dataset.records,
            args.threshold,
            algorithm=args.algorithm,
            config=config,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            executor=args.executor,
            measure=args.measure,
        )
    else:
        result = similarity_join(
            dataset.records,
            args.threshold,
            algorithm=args.algorithm,
            config=config,
            seed=args.seed,
            backend=args.backend,
            workers=args.workers,
            executor=args.executor,
            measure=args.measure,
        )

    rows = [{"first": first, "second": second} for first, second in sorted(result.pairs)]
    csv_text = rows_to_csv(rows, columns=["first", "second"])
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    stats = result.stats
    print(
        f"# {stats.algorithm or args.algorithm}: {len(result.pairs)} pairs, "
        f"{stats.candidates} candidates, {stats.elapsed_seconds:.3f}s join time",
        file=sys.stderr,
    )
    return 0


def _command_index(args: argparse.Namespace) -> int:
    from repro.index import IndexPersistenceError, SimilarityIndex

    if args.index_command == "build":
        dataset = read_dataset(args.input)
        options = {}
        if args.workers is not None:
            options["workers"] = args.workers
        if args.executor is not None:
            options["executor"] = args.executor
        index = SimilarityIndex.build(
            dataset.records,
            args.threshold,
            candidates=args.candidates,
            backend=args.backend,
            seed=args.seed,
            measure=args.measure,
            **options,
        )
        index.save(args.out)
        print(
            f"indexed {len(index)} records at threshold {index.threshold} "
            f"({index.measure.name} measure, {index.candidates} candidates, "
            f"{index.backend} backend) in "
            f"{index.stats.index_build_seconds:.3f}s -> {args.out}"
        )
        return 0

    # index query / query-topk
    try:
        index = SimilarityIndex.load(args.index)
    except IndexPersistenceError as error:
        raise SystemExit(str(error))
    if args.workers is not None:
        if args.workers < 1:
            raise SystemExit("workers must be at least 1")
        index.workers = args.workers
    if args.executor is not None:
        index.executor = args.executor
    queries = read_dataset(args.queries)
    inserting = getattr(args, "insert", False)
    # A loaded index carries the stats of its rebuild; report the timing of
    # *this* run's queries as deltas against them.
    before = index.stats.snapshot()
    rows = []
    if args.index_command == "query-topk":
        from repro.index.similarity_index import topk_from_matches

        if args.k < 1:
            raise SystemExit("--k must be a positive integer")
        # Batched lookups plus the shared truncation rule: identical to
        # calling index.query_topk per record, with the batching amortized.
        for query_id, matches in enumerate(index.query_batch(queries.records)):
            for record_id, similarity in topk_from_matches(matches, args.k, args.floor):
                rows.append(
                    {"query": query_id, "match": record_id, "similarity": f"{similarity:.6f}"}
                )
    elif inserting:
        # Streaming shape: each query must see the records inserted before it,
        # so queries and inserts interleave per record.
        for query_id, record in enumerate(queries.records):
            for record_id, similarity in index.query(record):
                rows.append(
                    {"query": query_id, "match": record_id, "similarity": f"{similarity:.6f}"}
                )
            index.insert(record)
    else:
        for query_id, matches in enumerate(index.query_batch(queries.records)):
            for record_id, similarity in matches:
                rows.append(
                    {"query": query_id, "match": record_id, "similarity": f"{similarity:.6f}"}
                )
    csv_text = rows_to_csv(rows, columns=["query", "match", "similarity"])
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    if inserting:
        index.save(args.index)
    session = index.stats.delta(before)
    candidate = session["candidate_seconds"]
    filtering = session["filter_seconds"]
    verify = session["verify_seconds"]
    print(
        f"# {len(queries.records)} queries, {len(rows)} matches, "
        f"{candidate + filtering + verify:.3f}s query time "
        f"(candidate {candidate:.3f}s / filter {filtering:.3f}s / verify {verify:.3f}s)"
        + (f"; index grown to {len(index)} records" if inserting else ""),
        file=sys.stderr,
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.index import SimilarityIndex
    from repro.service import SimilarityServer

    threshold = 0.5 if args.threshold is None else args.threshold
    candidates = "exact" if args.candidates is None else args.candidates

    def factory() -> SimilarityIndex:
        options = {}
        if args.workers is not None:
            options["workers"] = args.workers
        if args.executor is not None:
            options["executor"] = args.executor
        if args.input is not None:
            dataset = read_dataset(args.input)
            return SimilarityIndex.build(
                dataset.records,
                threshold,
                candidates=candidates,
                backend=args.backend,
                seed=args.seed,
                measure=args.measure,
                **options,
            )
        return SimilarityIndex(
            threshold,
            candidates=candidates,
            backend=args.backend,
            seed=args.seed,
            measure=args.measure,
            **options,
        )

    server = SimilarityServer(
        index_factory=factory,
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_linger_ms=args.max_linger_ms,
        snapshot_every=args.snapshot_every,
        wal_sync=not args.no_wal_sync,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_conn_inflight=args.max_conn_inflight,
        request_deadline_ms=args.request_deadline_ms,
        slow_log_capacity=args.slow_log,
    )

    trace_writer = None
    if args.trace_file is not None:
        from repro.obs import TraceWriter, enable_tracing

        trace_writer = TraceWriter(args.trace_file)
        enable_tracing(trace_writer)
    if args.metrics:
        # Point the process-global registry at the server's own: the join
        # engine and index instrumentation then record straight into the
        # registry the `metrics` operation serves.
        from repro.obs import enable_metrics

        enable_metrics(server.metrics)

    async def _serve() -> None:
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signal_number in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signal_number, stop_event.set)
            except (NotImplementedError, RuntimeError):  # platforms without it
                pass
        await server.start()
        # --workers/--executor are runtime settings, not data: apply them to
        # the served index even when it came from a snapshot (mirroring the
        # `index query` overrides).
        if args.workers is not None:
            server.index.workers = args.workers
        if args.executor is not None:
            server.index.executor = args.executor
        # An existing snapshot wins over the command line (it IS the served
        # index); warn when an *explicitly passed* flag disagrees with it.
        requested = {
            "threshold": args.threshold,
            "measure": args.measure,
            "candidates": args.candidates,
            "backend": args.backend,
        }
        actual = {
            "threshold": server.index.threshold,
            "measure": server.index.measure.name,
            "candidates": server.index.candidates,
            "backend": server.index.backend,
        }
        for key, value in requested.items():
            if value is not None and value != actual[key]:
                print(
                    f"# warning: --{key} {value} ignored — the {args.data_dir} "
                    f"snapshot was built with {key}={actual[key]} and wins on restart",
                    file=sys.stderr,
                )
        print(
            f"# serving {len(server.index)} records "
            f"(threshold {server.index.threshold}, {server.index.measure.name} measure, "
            f"{server.index.candidates} candidates, "
            f"{server.index.backend} backend) on {server.host}:{server.port}"
            + (f"; persistence in {args.data_dir}" if args.data_dir else "; in-memory only"),
            file=sys.stderr,
            flush=True,
        )
        if args.port_file:
            Path(args.port_file).write_text(f"{server.host} {server.port}\n", encoding="utf-8")
        try:
            await stop_event.wait()
        finally:
            await server.stop()
            if trace_writer is not None:
                trace_writer.close()

    from repro.index import IndexPersistenceError
    from repro.service.wal import WalCorruptionError

    try:
        asyncio.run(_serve())
    except (IndexPersistenceError, WalCorruptionError, RuntimeError) as error:
        # Startup refusals (foreign/corrupt snapshot, corrupt WAL, locked
        # data dir) exit with the message, not an asyncio traceback.
        raise SystemExit(str(error))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    import json

    path = Path(args.input)
    if not path.exists():
        raise SystemExit(f"trace file {args.input!r} does not exist")
    # Group the flat JSON-lines records by trace id, preserving file order
    # (spans are emitted on exit, so a parent appears *after* its children;
    # the tree below is rebuilt from the parent pointers, not file order).
    traces: dict = {}
    order = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                print(f"# skipping malformed line {line_number}", file=sys.stderr)
                continue
            trace_id = record.get("trace", "?")
            if trace_id not in traces:
                traces[trace_id] = []
                order.append(trace_id)
            traces[trace_id].append(record)
    if args.trace_id is not None:
        if args.trace_id not in traces:
            raise SystemExit(f"trace {args.trace_id!r} not found in {args.input}")
        order = [args.trace_id]

    def _describe(record: dict) -> tuple:
        duration = record.get("duration_seconds", 0.0)
        label = f"{duration * 1000.0:10.3f}ms" if duration else "     event "
        extra = record.get("extra")
        suffix = ""
        if isinstance(extra, dict) and extra:
            suffix = "  [" + " ".join(f"{key}={value}" for key, value in sorted(extra.items())) + "]"
        return label, suffix

    printed = 0
    for trace_id in order:
        spans = traces[trace_id]
        known = {record.get("span") for record in spans}
        children: dict = {}
        roots = []
        for record in sorted(spans, key=lambda r: (r.get("start_unix", 0.0), str(r.get("span")))):
            parent = record.get("parent")
            if parent is None or parent not in known:
                roots.append(record)
            else:
                children.setdefault(parent, []).append(record)
        root_ms = max((r.get("duration_seconds", 0.0) for r in roots), default=0.0) * 1000.0
        if root_ms < args.min_ms:
            continue
        if args.limit and printed >= args.limit:
            print(f"# --limit {args.limit} reached; more traces follow")
            break
        printed += 1
        print(f"trace {trace_id}  ({len(spans)} spans)")

        def _print_tree(record: dict, depth: int) -> None:
            label, suffix = _describe(record)
            print(f"  {label}  {'  ' * depth}{record.get('name', '?')}{suffix}")
            for child in children.get(record.get("span"), ()):
                _print_tree(child, depth + 1)

        for root in roots:
            _print_tree(root, 0)
    if printed == 0:
        print("# no traces matched", file=sys.stderr)
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    dataset = generate_profile_dataset(args.name, scale=args.scale, seed=args.seed)
    write_dataset(dataset, args.out)
    statistics = dataset.statistics()
    print(
        f"wrote {statistics.num_records} records to {args.out} "
        f"(avg set size {statistics.average_set_size:.1f}, "
        f"{statistics.average_sets_per_token:.1f} sets/token)"
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.input)
    statistics = dataset.statistics()
    print(f"dataset:          {dataset.name}")
    print(f"records:          {statistics.num_records}")
    print(f"universe size:    {statistics.universe_size}")
    print(f"avg set size:     {statistics.average_set_size:.2f}")
    print(f"sets per token:   {statistics.average_sets_per_token:.2f}")
    print(f"set size range:   [{statistics.min_set_size}, {statistics.max_set_size}]")
    print(f"frequency skew:   {statistics.token_frequency_skew:.3f}")
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablation_sketches,
        ablation_stopping,
        figure2,
        figure3,
        rs_bench,
        table1,
        table2,
        table4,
        tokens_scaling,
    )
    from repro.experiments.common import format_table

    name = args.name
    if name == "table1":
        print(format_table(table1.run(scale=args.scale, seed=args.seed)))
    elif name == "table2":
        print(format_table(table2.run(scale=args.scale, seed=args.seed)))
    elif name == "figure2":
        print(format_table(figure2.run(scale=args.scale, seed=args.seed)))
    elif name == "figure3":
        for key, rows in figure3.run(scale=args.scale, seed=args.seed).items():
            print(f"\n== Figure {key} ==")
            print(format_table(rows))
    elif name == "table4":
        print(format_table(table4.run(scale=args.scale, seed=args.seed)))
    elif name == "tokens":
        print(format_table(tokens_scaling.run(scale=args.scale, seed=args.seed)))
    elif name == "ablation-stopping":
        print(format_table(ablation_stopping.run(scale=args.scale, seed=args.seed)))
    elif name == "ablation-sketches":
        print(format_table(ablation_sketches.run(scale=args.scale, seed=args.seed)))
    elif name == "rs-bench":
        print(format_table(rs_bench.run(scale=args.scale, seed=args.seed)))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "join": _command_join,
        "index": _command_index,
        "serve": _command_serve,
        "generate": _command_generate,
        "stats": _command_stats,
        "trace": _command_trace,
        "experiment": _command_experiment,
    }
    try:
        return commands[args.command](args)
    except ValueError as error:
        # The library rejects bad settings (a threshold outside (0, 1],
        # workers < 1, ...) with ValueError: a usage error, not a crash.
        parser.exit(2, f"{parser.prog} {args.command}: error: {error}\n")


if __name__ == "__main__":
    raise SystemExit(main())
