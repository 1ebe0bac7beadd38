"""Asyncio similarity-search server over a resident :class:`SimilarityIndex`.

The batch joins answer "all similar pairs of a static collection"; this
server answers the online version — point lookups and live inserts against
a collection that stays resident in one process — over a stdlib-only TCP
JSON-lines protocol (:mod:`repro.service.protocol`).  Three design points
carry the subsystem:

* **Micro-batched queries.**  Every ``query`` request is submitted to a
  :class:`repro.service.coalescer.QueryCoalescer`; concurrently pending
  queries run as one ``query_batch`` call, so the vectorized kernels are
  amortized across users exactly like they are across records offline.
  Results are therefore *identical* to offline ``query_batch`` on the same
  index — coalescing changes scheduling, never answers.
* **Single engine thread.**  All index access (query batches, inserts,
  snapshots) runs on one dedicated worker thread, so queries never observe
  a half-applied insert and the asyncio loop never blocks on numpy.  Insert
  requests are serialized through a writer queue ahead of that thread.
* **WAL + snapshots.**  With a ``data_dir``, every insert is appended to a
  write-ahead log before it is acknowledged, and every ``snapshot_every``
  inserts (plus on clean shutdown) the index is snapshotted atomically and
  the WAL truncated (:mod:`repro.service.wal`).  A killed server replays
  WAL-on-snapshot at startup and answers exactly as before the kill.
* **Bounded overload.**  Work requests (``query``/``query_batch``/
  ``insert``) pass an :class:`repro.service.admission.AdmissionGate`:
  ``max_inflight`` execute concurrently, ``max_queue`` wait, everything
  beyond that is shed *at admission* with a ``busy`` error instead of
  growing queues without bound.  Per-connection pipelining is capped the
  same way (``max_conn_inflight``), the insert writer queue is bounded,
  requests past ``request_deadline_ms`` are dropped (their client stopped
  waiting), and the server pauses reading from a connection whose write
  buffer is full, so a slow reader backpressures itself instead of
  ballooning server memory.  Admission changes *whether* a request runs,
  never its answer — the offline-parity guarantee covers every admitted
  request.

Run it via ``repro-join serve``, embed it with :func:`serve_in_thread`
(tests, benchmarks, examples), or drive :class:`SimilarityServer` directly
from your own event loop.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.index.similarity_index import (
    SimilarityIndex,
    normalized_tokens,
    topk_from_matches,
)
from repro.obs.metrics import (
    MetricsRegistry,
    active_metrics,
    merge_snapshots,
    render_exposition,
)
from repro.obs.process import process_rss_bytes, process_start_metadata
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import ensure_tracing, event, span
from repro.service.admission import AdmissionGate, ServerOverloadedError
from repro.service.coalescer import QueryCoalescer
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    busy_response,
    decode_message,
    encode_matches,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.wal import PersistentIndexStore

__all__ = ["SimilarityServer", "ServerHandle", "serve_in_thread"]

Record = Tuple[int, ...]
IndexFactory = Callable[[], SimilarityIndex]

GATED_OPERATIONS = frozenset({"query", "query_batch", "query_topk", "insert"})
"""Operations that cost index work and therefore pass admission control.

``stats``, ``health`` and ``metrics`` stay ungated on purpose: they are how
operators (and the CI flood smoke leg) observe an overloaded server, so
they must keep answering precisely when the gate is shedding everything
else.
"""


_TIMING_FIELDS = (
    "candidate_seconds",
    "filter_seconds",
    "verify_seconds",
    "index_build_seconds",
)
"""Per-stage timing fields surfaced as the ``timings`` block of ``stats``."""


class _DeadlineExceeded(Exception):
    """A request ran past ``request_deadline_ms`` and was dropped."""


def _peek_request_id(line: bytes) -> Optional[Any]:
    """Best-effort extraction of the request id from a raw line.

    Used when a request is shed *before* being handled (per-connection
    cap), so the busy response can still be matched by the client; a
    malformed line just gets a null id.
    """
    try:
        raw_id = decode_message(line).get("id")
    except ProtocolError:
        return None
    return raw_id if isinstance(raw_id, (int, str)) else None


def _normalize_record(tokens: Sequence[int], what: str) -> Record:
    # The index's own normalization (sort/dedup/range check), surfaced as a
    # protocol error: the wire and the storage can never disagree on what a
    # record means, which the WAL-replay parity guarantee relies on.
    try:
        return normalized_tokens(tokens, what)
    except ValueError as error:
        raise ProtocolError(str(error)) from None


class SimilarityServer:
    """The serving subsystem: one resident index behind a TCP endpoint.

    Parameters
    ----------
    index:
        A ready :class:`SimilarityIndex` to serve.  Mutually exclusive with
        ``index_factory``.
    index_factory:
        Zero-argument callable building the index when no snapshot exists
        (with ``data_dir``) or at startup (without).
    data_dir:
        Directory for the snapshot + WAL pair; ``None`` disables
        persistence (a pure in-memory server).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, reported on
        :attr:`port` after :meth:`start`.
    max_batch / max_linger_ms:
        The coalescing knobs (see :class:`QueryCoalescer`).
    snapshot_every:
        Take a snapshot after this many inserts since the last one
        (``0`` disables periodic snapshots; a final one is still written on
        clean shutdown).
    wal_sync:
        fsync WAL appends before acknowledging inserts (durability across
        OS crashes; disable for benchmarks).
    max_inflight / max_queue:
        The overload policy: at most ``max_inflight`` work requests
        (``query``/``query_batch``/``insert``) execute concurrently and at
        most ``max_queue`` wait for a slot; anything beyond is shed with a
        ``busy`` error at admission time.  The insert writer queue is
        bounded by ``max_queue`` as well.
    max_conn_inflight:
        Per-connection pipelining cap: a connection with this many
        responses outstanding has further requests shed with ``busy``.
    request_deadline_ms:
        Drop requests (queued or executing) that have not been answered
        this many milliseconds after arrival — the client has typically
        stopped waiting.  ``0`` disables deadlines.
    write_buffer_high:
        High-water mark (bytes) of each connection's send buffer; above it
        the server stops reading that connection's requests until the
        client drains its responses.  ``None`` keeps asyncio's default
        (64 KiB); tests set it low to exercise the backpressure path.
    slow_log_capacity:
        How many of the slowest requests the in-memory slow-query log
        retains (surfaced in the ``stats`` payload with their span
        breakdowns).
    """

    def __init__(
        self,
        index: Optional[SimilarityIndex] = None,
        *,
        index_factory: Optional[IndexFactory] = None,
        data_dir: Optional[Union[str, Path]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        max_linger_ms: float = 2.0,
        snapshot_every: int = 512,
        wal_sync: bool = True,
        max_inflight: int = 64,
        max_queue: int = 256,
        max_conn_inflight: int = 32,
        request_deadline_ms: float = 0.0,
        write_buffer_high: Optional[int] = None,
        slow_log_capacity: int = 32,
    ) -> None:
        if (index is None) == (index_factory is None):
            raise ValueError("provide exactly one of index= or index_factory=")
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if max_conn_inflight < 1:
            raise ValueError("max_conn_inflight must be at least 1")
        if request_deadline_ms < 0:
            raise ValueError("request_deadline_ms must be non-negative")
        self._factory: IndexFactory = index_factory if index_factory is not None else (lambda: index)
        self._data_dir = None if data_dir is None else Path(data_dir)
        self.host = host
        self.port = port
        self.max_batch = max_batch
        self.max_linger_ms = max_linger_ms
        self.snapshot_every = snapshot_every
        self.wal_sync = wal_sync
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.max_conn_inflight = max_conn_inflight
        self.request_deadline_ms = request_deadline_ms
        self._write_buffer_high = write_buffer_high

        self._index: Optional[SimilarityIndex] = None
        self._store: Optional[PersistentIndexStore] = None
        self._engine: Optional[ThreadPoolExecutor] = None
        self._coalescer: Optional[QueryCoalescer] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._write_queue: Optional[asyncio.Queue] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._connection_tasks: set = set()
        self._connection_writers: set = set()
        self._stats_origin: Dict[str, float] = {}
        self._wal_replayed = 0
        self._inserts_since_snapshot = 0
        self._wal_failed = False
        self._started_at = 0.0  # wall clock, human-facing only
        self._started_monotonic = 0.0  # durations (NTP steps must not move uptime)
        self._admission = AdmissionGate(max_inflight, max_queue)
        #: Per-server metrics: request latency histograms by op, response
        #: outcomes, coalescer batch shapes.  Always on — the registry is
        #: cheap — and scraped through the ungated ``metrics`` protocol op.
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog(slow_log_capacity)
        self._request_ids = itertools.count(1)
        self.counters: Dict[str, float] = {
            "connections": 0,
            "requests": 0,
            "inserts": 0,
            "snapshots": 0,
            "snapshot_failures": 0,
            "protocol_errors": 0,
            "shed_connection": 0,
            "shed_writer": 0,
            "deadline_drops": 0,
            "cancelled_inserts": 0,
        }

    @property
    def index(self) -> SimilarityIndex:
        """The resident index (available between :meth:`start` and :meth:`stop`)."""
        if self._index is None:
            raise RuntimeError(
                "server is not running: start() has not completed or stop() already "
                "released the index"
            )
        return self._index

    @property
    def shed_total(self) -> int:
        """Requests shed with ``busy`` across every admission point."""
        return int(
            self._admission.counters["shed_total"]
            + self.counters["shed_connection"]
            + self.counters["shed_writer"]
        )

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Recover/build the index and start accepting connections."""
        loop = asyncio.get_running_loop()
        # Sink-less tracing is enough for span trees and the slow-query
        # log's breakdowns; `repro-join serve --trace-file` attaches a sink.
        ensure_tracing()
        try:
            if self._data_dir is not None:
                self._store = PersistentIndexStore(self._data_dir, sync=self.wal_sync)
                self._index, self._wal_replayed = await loop.run_in_executor(
                    None, self._store.load, self._factory
                )
            else:
                self._index = await loop.run_in_executor(None, self._factory)
            self._stats_origin = self._index.stats.snapshot()
            self._engine = ThreadPoolExecutor(max_workers=1, thread_name_prefix="simidx-engine")
            self._coalescer = QueryCoalescer(
                self._run_query_batch, max_batch=self.max_batch, max_linger_ms=self.max_linger_ms
            )
            self._coalescer.on_batch = self._observe_batch
            # Bounded like the admission queue: an insert burst beyond it is
            # shed with busy instead of growing the queue (and memory).
            self._write_queue = asyncio.Queue(maxsize=max(1, self.max_queue))
            self._writer_task = asyncio.ensure_future(self._writer_loop())
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
            )
        except BaseException:
            # Release everything a partial start acquired — above all the
            # data directory's advisory lock, or a fixed-and-retried start
            # on the same directory would be refused as "already in use".
            await self._release_partial_start()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        self._started_monotonic = time.monotonic()

    async def _release_partial_start(self) -> None:
        if self._writer_task is not None:
            self._write_queue.put_nowait(None)
            try:
                await self._writer_task
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            self._writer_task = None
        if self._engine is not None:
            self._engine.shutdown(wait=False)
            self._engine = None
        if self._store is not None:
            self._store.close()
            self._store = None
        if self._index is not None:
            self._index.close()
            self._index = None

    async def stop(self) -> None:
        """Drain in-flight work, write a final snapshot, release everything.

        Idempotent: a second ``stop()`` — or one on a server that never
        started — is a no-op.  Every resource reference is cleared once
        released, so a repeated call can never snapshot on a closed store
        or close a closed index.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connection_writers):
            writer.close()
        if self._connection_tasks:
            await asyncio.gather(*tuple(self._connection_tasks), return_exceptions=True)
        if self._coalescer is not None:
            await self._coalescer.drain()
            self._coalescer = None
        if self._writer_task is not None:
            await self._write_queue.put(None)
            await self._writer_task
            self._writer_task = None
            self._write_queue = None
        if self._store is not None:
            # Final snapshot only when it adds something (inserts since the
            # last one, or no snapshot yet) and never after a WAL failure:
            # the live index then holds a record whose insert was NACKed,
            # and snapshotting it would resurrect that phantom on restart.
            wanted = self._index is not None and not self._wal_failed and (
                self._inserts_since_snapshot > 0 or not self._store.snapshot_path.exists()
            )
            if wanted:
                loop = asyncio.get_running_loop()
                try:
                    await loop.run_in_executor(self._engine, self._store.snapshot, self._index)
                except Exception:
                    # The WAL already covers every acknowledged insert; a
                    # failed final snapshot must not block the cleanup.
                    self.counters["snapshot_failures"] += 1
                else:
                    self.counters["snapshots"] += 1
                    self._inserts_since_snapshot = 0
            self._store.close()
            self._store = None
        if self._engine is not None:
            self._engine.shutdown(wait=True)
            self._engine = None
        if self._index is not None:
            self._index.close()
            self._index = None

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Convenience loop: :meth:`start`, wait for the event, :meth:`stop`."""
        await self.start()
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------ engine plumbing
    def _run_on_engine(self, call: Callable, *args: Any) -> Awaitable[Any]:
        assert self._engine is not None
        # run_in_executor does not copy contextvars, so without the explicit
        # copy the index's spans on the engine thread would start fresh
        # traces instead of nesting under the request span.
        context = contextvars.copy_context()
        return asyncio.get_running_loop().run_in_executor(
            self._engine, lambda: context.run(call, *args)
        )

    async def _run_query_batch(self, records: List[Record]) -> List[List[Tuple[int, float]]]:
        """The coalescer's batch runner: one ``query_batch`` on the engine thread."""
        assert self._index is not None
        return await self._run_on_engine(self._index.query_batch, records)

    async def _writer_loop(self) -> None:
        """Apply inserts strictly in arrival order: index first, WAL second,
        acknowledge last, snapshot outside the acknowledgement.

        Apply-then-log means a failed apply leaves no WAL entry (a phantom
        entry would replay a never-acknowledged record and shadow the next
        insert's id), while a failed log leaves an unacknowledged record.
        But a failed log also leaves its id occupied in the live index, so
        any *later* logged insert would sit behind a permanent id gap the
        recovery path refuses — the writer therefore stops accepting
        inserts after the first WAL failure instead of handing out
        durability acknowledgements it cannot keep (queries stay up).
        Everything runs on the single engine thread, so appends never stall
        the event loop on their fsync and WAL order equals insert order.
        """
        assert self._write_queue is not None
        while True:
            item = await self._write_queue.get()
            if item is None:
                return
            normalized, future = item
            if future.done():
                # The submitter is gone (deadline or disconnected client
                # cancelled its future) and was never acknowledged — skip
                # the work entirely instead of inserting for no one.
                self.counters["cancelled_inserts"] += 1
                continue
            try:
                if self._wal_failed:
                    raise RuntimeError(
                        "inserts disabled: a write-ahead-log append failed earlier, "
                        "so new inserts could not be made durable; restart the server"
                    )
                record_id = await self._run_on_engine(self._index.insert, normalized)
                if self._store is not None:
                    try:
                        await self._run_on_engine(
                            self._store.log_insert, record_id, normalized
                        )
                    except Exception:
                        self._wal_failed = True
                        raise
                self.counters["inserts"] += 1
                self._inserts_since_snapshot += 1
            except Exception as error:
                if not future.done():
                    future.set_exception(error)
                continue
            if not future.done():
                future.set_result(record_id)
            # The periodic snapshot happens *after* the acknowledgement: the
            # insert above is already durable in the WAL, so a snapshot
            # failure must not be reported as a failed insert (a client
            # retrying would double-insert a record that is being served).
            if (
                self._store is not None
                and self.snapshot_every
                and self._inserts_since_snapshot >= self.snapshot_every
            ):
                try:
                    await self._run_on_engine(self._store.snapshot, self._index)
                except Exception:
                    self.counters["snapshot_failures"] += 1
                else:
                    self.counters["snapshots"] += 1
                    self._inserts_since_snapshot = 0

    # ------------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self._connection_writers.add(writer)
        if self._write_buffer_high is not None:
            writer.transport.set_write_buffer_limits(high=self._write_buffer_high)
        write_lock = asyncio.Lock()
        request_tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # Oversized line: the stream is no longer in sync with the
                    # protocol; drop the connection rather than guess.
                    break
                if not line:
                    break
                self.counters["requests"] += 1
                if len(request_tasks) >= self.max_conn_inflight:
                    # Per-connection cap: this client already has a full
                    # pipeline outstanding — shed before spawning a task.
                    self.counters["shed_connection"] += 1
                    response = busy_response(
                        _peek_request_id(line),
                        f"connection at capacity: {len(request_tasks)} requests in "
                        f"flight on this connection (max_conn_inflight="
                        f"{self.max_conn_inflight}); retry with backoff",
                    )
                    if not await self._write_response(writer, write_lock, response):
                        break
                    continue
                request_task = asyncio.ensure_future(
                    self._handle_request(line, writer, write_lock)
                )
                request_tasks.add(request_task)
                request_task.add_done_callback(request_tasks.discard)
                # Slow-client backpressure: when this connection's send
                # buffer is above its high-water mark the client is not
                # reading its responses — pause reading its requests until
                # it drains, instead of buffering unbounded work for it.
                async with write_lock:
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break
        finally:
            if request_tasks:
                # The client is gone (EOF, desync, or server shutdown):
                # nobody can receive these responses, so stop working on
                # them.  Cancelled coalescer futures are dropped at flush
                # and cancelled inserts are skipped by the writer loop.
                for request_task in tuple(request_tasks):
                    request_task.cancel()
                await asyncio.gather(*tuple(request_tasks), return_exceptions=True)
            self._connection_writers.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write_response(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: Dict[str, Any]
    ) -> bool:
        """Serialize one response onto the connection; ``False`` if it died."""
        async with write_lock:
            writer.write(encode_message(response))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                return False
        return True

    async def _handle_request(
        self, line: bytes, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        request_id: Optional[Any] = None
        operation = "unknown"
        outcome = "ok"
        started = time.perf_counter()
        trace_id = f"req-{next(self._request_ids)}"
        # One span tree per request, decode to response write, correlated by
        # the server-assigned trace id (never randomness).
        with span("request", trace_id=trace_id) as root:
            try:
                message = decode_message(line)
                raw_id = message.get("id")
                if isinstance(raw_id, (int, str)):
                    request_id = raw_id
                request = parse_request(message)
                operation = request["op"]
                root.annotate(op=operation, request_id=request_id)
                if operation in GATED_OPERATIONS:
                    result = await self._dispatch_gated(request)
                else:
                    result = await self._dispatch(request)
                response = ok_response(request["id"], result)
            except ServerOverloadedError as error:
                # Shed at admission: no index work happened, safe to retry.
                outcome = "busy"
                response = busy_response(request_id, str(error))
            except _DeadlineExceeded as error:
                self.counters["deadline_drops"] += 1
                outcome = "deadline"
                response = error_response(request_id, str(error))
            except ProtocolError as error:
                self.counters["protocol_errors"] += 1
                outcome = "protocol_error"
                response = error_response(request_id, str(error))
            except ValueError as error:  # domain errors (bad record, bad state)
                outcome = "error"
                response = error_response(request_id, str(error))
            except asyncio.CancelledError:
                raise  # connection teardown; no one is listening for a response
            except Exception as error:  # keep the connection alive on server bugs
                outcome = "internal_error"
                response = error_response(request_id, f"internal error: {error!r}")
            root.annotate(outcome=outcome)
            with span("write"):
                await self._write_response(writer, write_lock, response)
        self._observe_request(operation, outcome, time.perf_counter() - started, trace_id, root)

    async def _dispatch_gated(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one work request under admission control and its deadline.

        The deadline covers the whole server-side life of the request —
        waiting for an admission slot *and* executing — because a client
        that stopped waiting does not care which stage its answer is stuck
        in.  Cancellation raised by the deadline releases the admission
        slot (or removes the queued waiter) on the way out.
        """
        if self.request_deadline_ms <= 0:
            return await self._admit_and_dispatch(request)
        try:
            return await asyncio.wait_for(
                self._admit_and_dispatch(request), self.request_deadline_ms / 1000.0
            )
        except asyncio.TimeoutError:
            raise _DeadlineExceeded(
                f"request dropped: not answered within the "
                f"{self.request_deadline_ms:g} ms deadline"
            ) from None

    async def _admit_and_dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with span("admission.wait"):
            await self._admission.acquire()
        try:
            return await self._dispatch(request)
        finally:
            self._admission.release()

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        assert self._index is not None and self._coalescer is not None
        operation = request["op"]
        if operation == "query":
            record = _normalize_record(request["record"], "query with")
            with span("coalesce.wait"):
                matches = await self._coalescer.submit(record)
            return {"matches": encode_matches(matches)}
        if operation == "query_topk":
            # Rides the same coalescer as plain queries (top-k requests
            # batch with everything else); the truncation is the shared
            # topk_from_matches rule, so the answer is by construction the
            # prefix of the corresponding threshold query.
            record = _normalize_record(request["record"], "query with")
            with span("coalesce.wait"):
                matches = await self._coalescer.submit(record)
            top = topk_from_matches(matches, request["k"], request["floor"])
            return {"matches": encode_matches(top)}
        if operation == "query_batch":
            records = [
                _normalize_record(tokens, "query with") for tokens in request["records"]
            ]
            if not records:
                return {"matches": []}
            results = await self._run_on_engine(self._index.query_batch, records)
            return {"matches": [encode_matches(matches) for matches in results]}
        if operation == "insert":
            normalized = _normalize_record(request["record"], "insert")
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            try:
                self._write_queue.put_nowait((normalized, future))
            except asyncio.QueueFull:
                self.counters["shed_writer"] += 1
                raise ServerOverloadedError(
                    f"insert writer queue full ({self._write_queue.maxsize} inserts "
                    f"pending); retry with backoff"
                ) from None
            with span("writer.wait"):
                record_id = await future
            return {"record_id": int(record_id)}
        if operation == "stats":
            return await self._stats_payload()
        if operation == "metrics":
            return self._metrics_payload()
        # health
        return {"status": "ok", "records": len(self._index)}

    # ------------------------------------------------------------------ observability
    def _observe_batch(self, batch_size: int, linger_seconds: float, reason: str) -> None:
        """Coalescer dispatch hook: batch shape and linger distributions."""
        metrics = self.metrics
        metrics.counter(
            "repro_service_coalesce_batches_total",
            "Coalesced query batches dispatched, by flush reason.",
            reason=reason,
        ).inc()
        metrics.histogram(
            "repro_service_coalesce_batch_size",
            "Queries per dispatched coalescer batch.",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        ).observe(batch_size)
        metrics.histogram(
            "repro_service_coalesce_linger_seconds",
            "Time the first query of each batch waited before dispatch.",
        ).observe(linger_seconds)
        event("coalesce.batch", size=batch_size, linger_seconds=linger_seconds, reason=reason)

    def _observe_request(
        self, operation: str, outcome: str, duration_seconds: float, trace_id: str, root
    ) -> None:
        """Fold one finished request into histograms and the slow-query log."""
        metrics = self.metrics
        metrics.histogram(
            "repro_service_request_seconds",
            "Server-side request latency, protocol decode to response write.",
            op=operation,
        ).observe(duration_seconds)
        metrics.counter(
            "repro_service_responses_total",
            "Responses written, by operation and outcome.",
            op=operation,
            outcome=outcome,
        ).inc()
        breakdown = root.child_seconds if root.enabled else None
        self.slow_log.record(
            operation, duration_seconds, trace_id=trace_id, breakdown=breakdown, outcome=outcome
        )

    def _metrics_payload(self) -> Dict[str, Any]:
        """The ungated ``metrics`` op: exposition text plus the JSON snapshot.

        The server's own registry is combined with the process-global one
        (when enabled via ``repro-join serve --metrics`` or
        :func:`repro.obs.enable_metrics`), so engine/index series scrape
        through the same endpoint.  Plain ``self.counters`` mirrors use
        ``set_total`` — the registry enforces that the sources never
        decrease.
        """
        metrics = self.metrics
        for name, value in self.counters.items():
            metrics.counter(
                f"repro_service_{name}_total", "Mirrored server counter."
            ).set_total(value)
        gate = self._admission
        for name in ("shed_total", "admitted_total"):
            metrics.counter(
                f"repro_service_admission_{name}", "Mirrored admission-gate counter."
            ).set_total(gate.counters[name])
        metrics.gauge(
            "repro_service_uptime_seconds", "Time since the server started."
        ).set(time.monotonic() - self._started_monotonic)
        metrics.gauge(
            "repro_service_rss_bytes", "Peak resident set size of the server process."
        ).set(process_rss_bytes())
        metrics.gauge("repro_service_inflight", "Requests executing now.").set(gate.inflight)
        metrics.gauge(
            "repro_service_queue_depth", "Requests waiting for an admission slot."
        ).set(gate.queue_depth)
        metrics.gauge(
            "repro_service_insert_queue_depth", "Inserts waiting for the writer."
        ).set(self._write_queue.qsize() if self._write_queue is not None else 0)
        metrics.gauge(
            "repro_service_records", "Records resident in the served index."
        ).set(len(self._index) if self._index is not None else 0)

        snapshot = metrics.snapshot()
        global_registry = active_metrics()
        if global_registry is not None and global_registry is not metrics:
            snapshot = merge_snapshots(snapshot, global_registry.snapshot())
        return {"text": render_exposition(snapshot), "values": snapshot}

    async def _stats_payload(self) -> Dict[str, Any]:
        """The ``stats`` endpoint: index totals, session delta, server counters."""
        index = self._index
        assert index is not None

        def _collect() -> Dict[str, Any]:
            # On the engine thread, so the counters are not mid-update.
            totals = index.stats.as_dict()
            session = index.stats.delta(self._stats_origin)
            return {
                "records": len(index),
                "threshold": index.threshold,
                "measure": index.measure.name,
                "candidates": index.candidates,
                "backend": index.backend,
                "index": totals,
                "session": session,
                # Where query time goes, split by pipeline stage — lifetime
                # totals next to what this server session contributed.
                "timings": {
                    "total": {field: totals[field] for field in _TIMING_FIELDS},
                    "session": {field: session[field] for field in _TIMING_FIELDS},
                },
            }

        payload = await self._run_on_engine(_collect)
        gate = self._admission
        payload["server"] = {
            # Monotonic for the duration (an NTP step must not jump uptime);
            # the wall-clock start stays for humans correlating with logs.
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "started_at_unix": self._started_at,
            "rss_bytes": process_rss_bytes(),
            **process_start_metadata(),
            "wal_replayed": self._wal_replayed,
            "inserts_since_snapshot": self._inserts_since_snapshot,
            "persistence": self._store is not None,
            "max_batch": self.max_batch,
            "max_linger_ms": self.max_linger_ms,
            "coalescer": dict(self._coalescer.counters),
            "inflight": gate.inflight,
            "queue_depth": gate.queue_depth,
            "insert_queue_depth": self._write_queue.qsize(),
            "shed_total": self.shed_total,
            "shed_admission": gate.counters["shed_total"],
            "admitted_total": gate.counters["admitted_total"],
            "inflight_peak": gate.counters["inflight_peak"],
            "queue_peak": gate.counters["queue_peak"],
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "max_conn_inflight": self.max_conn_inflight,
            "request_deadline_ms": self.request_deadline_ms,
            **dict(self.counters),
        }
        payload["slow_queries"] = self.slow_log.entries()
        return payload


class ServerHandle:
    """A server running on a background thread (see :func:`serve_in_thread`)."""

    def __init__(
        self, server: SimilarityServer, thread: threading.Thread, stop: Callable[[], None]
    ) -> None:
        self.server = server
        self._thread = thread
        self._stop = stop

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Signal the server loop to shut down cleanly and join its thread."""
        self._stop()
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - deadlock safety net
            raise RuntimeError("server thread did not shut down in time")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_thread(server: SimilarityServer, start_timeout: float = 30.0) -> ServerHandle:
    """Run a server on a dedicated thread with its own event loop.

    The embedding entry point used by the tests and the live-server mode of
    ``examples/streaming_dedup.py``: the caller gets a :class:`ServerHandle`
    once the port is bound and talks to it through
    :class:`repro.service.client.ServiceClient`.
    """
    ready = threading.Event()
    failures: List[BaseException] = []
    control: Dict[str, Any] = {}

    async def _main() -> None:
        stop_event = asyncio.Event()
        control["loop"] = asyncio.get_running_loop()
        control["stop_event"] = stop_event
        try:
            await server.start()
        except BaseException as error:
            failures.append(error)
            ready.set()
            return
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(_main()), daemon=True)
    thread.start()
    if not ready.wait(start_timeout):
        raise RuntimeError("server did not start in time")
    if failures:
        thread.join()
        raise failures[0]

    def _signal_stop() -> None:
        loop: asyncio.AbstractEventLoop = control["loop"]
        try:
            loop.call_soon_threadsafe(control["stop_event"].set)
        except RuntimeError:  # loop already gone
            pass

    return ServerHandle(server, thread, _signal_stop)
