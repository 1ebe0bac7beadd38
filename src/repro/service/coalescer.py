"""Micro-batching request coalescer for concurrent point queries.

The vectorized kernels behind :meth:`repro.index.SimilarityIndex.query_batch`
amortize their per-call overhead (signature blocks, sketch packing, numpy
dispatch) across a batch, so a server answering each in-flight request with
its own ``query(record)`` call throws that advantage away exactly when it
matters — under concurrent load.  :class:`QueryCoalescer` recovers it: every
point query is submitted as a future, concurrently pending queries are
collected into one batch, and the whole batch runs as a single
``query_batch`` call whose per-query results resolve the individual futures.

A batch is dispatched when either

* **size** — ``max_batch`` queries are pending (latency never waits on a
  full linger window under saturation), or
* **linger** — ``max_linger_ms`` elapsed since the first query of the batch
  arrived (an isolated query is never delayed by more than the linger).

``max_linger_ms=0`` still coalesces: the flush is scheduled on the next
event-loop iteration, so queries arriving in the same scheduling tick share
a batch but none waits on wall-clock time.

A batch the runner rejects with ``ValueError`` (a malformed query) is re-run
one query at a time, so only the offending queries fail; any other error
fails the whole batch.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["QueryCoalescer"]

Record = Sequence[int]
BatchRunner = Callable[[List[Record]], Awaitable[List[Any]]]
BatchObserver = Callable[[int, float, str], None]


class QueryCoalescer:
    """Batch concurrently submitted queries into single ``query_batch`` runs.

    Parameters
    ----------
    runner:
        Async callable executing one batch; receives the list of pending
        records and must return one result per record, aligned with the
        input order.  (The server runs ``SimilarityIndex.query_batch`` on
        its engine thread here.)
    max_batch:
        Dispatch as soon as this many queries are pending.
    max_linger_ms:
        Dispatch at most this many milliseconds after the first pending
        query arrived, even if the batch is not full.
    """

    def __init__(self, runner: BatchRunner, max_batch: int = 64, max_linger_ms: float = 2.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_linger_ms < 0:
            raise ValueError("max_linger_ms must be non-negative")
        self._runner = runner
        self.max_batch = max_batch
        self.max_linger_seconds = max_linger_ms / 1000.0
        #: Optional hook called at every dispatch with
        #: ``(batch_size, linger_seconds, reason)`` — the server points this
        #: at its metrics registry to record batch-size and linger
        #: distributions without the coalescer importing any of it.
        self.on_batch: Optional[BatchObserver] = None
        self._first_pending_at: float = 0.0
        self._pending: List[Tuple[Record, asyncio.Future]] = []
        self._linger_handle: asyncio.TimerHandle | None = None
        self._inflight: set = set()
        self.counters: Dict[str, float] = {
            "queries": 0,
            "batches": 0,
            "size_flushes": 0,
            "linger_flushes": 0,
            "drain_flushes": 0,
            "max_batch_observed": 0,
            "cancelled_dropped": 0,
            "split_batches": 0,
        }

    async def submit(self, record: Record) -> Any:
        """Enqueue one query; resolves with its slice of the batch result."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if not self._pending:
            self._first_pending_at = time.perf_counter()
        self._pending.append((record, future))
        self.counters["queries"] += 1
        if len(self._pending) >= self.max_batch:
            self._flush("size_flushes")
        elif self._linger_handle is None:
            if self.max_linger_seconds <= 0.0:
                self._linger_handle = loop.call_soon(self._linger_expired)
            else:
                self._linger_handle = loop.call_later(
                    self.max_linger_seconds, self._linger_expired
                )
        return await future

    async def drain(self) -> None:
        """Dispatch anything pending and wait for all in-flight batches."""
        if self._pending:
            self._flush("drain_flushes")
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight), return_exceptions=True)

    # ------------------------------------------------------------------ internals
    def _linger_expired(self) -> None:
        self._linger_handle = None
        if self._pending:
            self._flush("linger_flushes")

    def _flush(self, reason: str) -> None:
        if self._linger_handle is not None:
            self._linger_handle.cancel()
            self._linger_handle = None
        # A submitter cancelled while pending (deadline, shed, vanished
        # client) has a done future: executing its record would be pure
        # waste — and under overload, waste is exactly what balloons the
        # queue — so drop it here and only batch live queries.
        batch = [(record, future) for record, future in self._pending if not future.done()]
        self.counters["cancelled_dropped"] += len(self._pending) - len(batch)
        linger_seconds = time.perf_counter() - self._first_pending_at
        self._pending = []
        if not batch:
            return
        self.counters["batches"] += 1
        self.counters[reason] += 1
        self.counters["max_batch_observed"] = max(
            self.counters["max_batch_observed"], len(batch)
        )
        if self.on_batch is not None:
            self.on_batch(len(batch), linger_seconds, reason)
        task = asyncio.ensure_future(self._run_batch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, batch: List[Tuple[Record, asyncio.Future]]) -> None:
        records = [record for record, _ in batch]
        try:
            results = await self._runner(records)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results for {len(batch)} queries"
                )
        except ValueError as error:
            if len(batch) == 1:
                self._fail(batch, error)
                return
            # The runner rejected some query of the batch (e.g. a token the
            # index cannot hash).  Re-run every query alone, so only the
            # offending ones fail — not the queries that shared their batch.
            self.counters["split_batches"] += 1
            for item in batch:
                if not item[1].done():
                    await self._run_batch([item])
            return
        except Exception as error:
            self._fail(batch, error)
            return
        for (_, future), result in zip(batch, results):
            if not future.done():  # the submitter may have been cancelled
                future.set_result(result)

    @staticmethod
    def _fail(batch: List[Tuple[Record, asyncio.Future]], error: Exception) -> None:
        for _, future in batch:
            if not future.done():
                future.set_exception(error)
