"""Tests for the micro-batching query coalescer."""

from __future__ import annotations

import asyncio
from typing import List

import pytest

from repro.service.coalescer import QueryCoalescer


class _RecordingRunner:
    """A batch runner that records the batches it was handed."""

    def __init__(self, delay: float = 0.0, fail: bool = False) -> None:
        self.batches: List[List] = []
        self.delay = delay
        self.fail = fail

    async def __call__(self, records):
        self.batches.append(list(records))
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail:
            raise RuntimeError("runner exploded")
        # Echo each record back, tagged, so per-future alignment is checkable.
        return [("result", record) for record in records]


class TestValidation:
    def test_max_batch_positive(self) -> None:
        with pytest.raises(ValueError):
            QueryCoalescer(_RecordingRunner(), max_batch=0)

    def test_linger_non_negative(self) -> None:
        with pytest.raises(ValueError):
            QueryCoalescer(_RecordingRunner(), max_linger_ms=-1.0)


class TestCoalescing:
    def test_concurrent_submits_share_batches(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=50.0)
            records = [(index, index + 1) for index in range(10)]
            results = await asyncio.gather(*(coalescer.submit(r) for r in records))
            return runner, results, records

        runner, results, records = asyncio.run(scenario())
        # All ten submits were pending together -> exactly one batch.
        assert len(runner.batches) == 1
        assert runner.batches[0] == records
        assert results == [("result", record) for record in records]

    def test_size_flush_caps_batches(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=4, max_linger_ms=50.0)
            results = await asyncio.gather(*(coalescer.submit((i,)) for i in range(10)))
            return runner, results

        runner, results = asyncio.run(scenario())
        assert all(len(batch) <= 4 for batch in runner.batches)
        assert sum(len(batch) for batch in runner.batches) == 10
        assert coalesced_order(runner) == [(i,) for i in range(10)]
        assert results == [("result", (i,)) for i in range(10)]

    def test_linger_zero_still_coalesces_same_tick(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=0.0)
            results = await asyncio.gather(*(coalescer.submit((i,)) for i in range(5)))
            return runner, results

        runner, results = asyncio.run(scenario())
        assert len(runner.batches) == 1
        assert results == [("result", (i,)) for i in range(5)]

    def test_isolated_query_dispatched_by_linger(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=1.0)
            result = await asyncio.wait_for(coalescer.submit((7,)), timeout=5.0)
            return runner, result

        runner, result = asyncio.run(scenario())
        assert result == ("result", (7,))
        assert runner.batches == [[(7,)]]

    def test_counters_track_flushes(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=2, max_linger_ms=1.0)
            await asyncio.gather(*(coalescer.submit((i,)) for i in range(5)))
            return coalescer

        coalescer = asyncio.run(scenario())
        counters = coalescer.counters
        assert counters["queries"] == 5
        assert counters["batches"] == (
            counters["size_flushes"] + counters["linger_flushes"] + counters["drain_flushes"]
        )
        assert counters["drain_flushes"] == 0  # nothing was shut down mid-batch
        assert 0 < counters["max_batch_observed"] <= 2

    def test_drain_dispatches_pending(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            # Huge linger: without drain() the submit would sit pending.
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=60_000.0)
            task = asyncio.ensure_future(coalescer.submit((1, 2)))
            await asyncio.sleep(0)  # let the submit enqueue itself
            await coalescer.drain()
            result = await asyncio.wait_for(task, timeout=5.0)
            return result, dict(coalescer.counters)

        result, counters = asyncio.run(scenario())
        assert result == ("result", (1, 2))
        assert counters["drain_flushes"] == 1  # not mis-counted as a size flush
        assert counters["size_flushes"] == 0


class TestCancelledSubmitters:
    def test_cancelled_futures_dropped_at_flush(self) -> None:
        # A submitter cancelled while its query is pending (deadline, shed,
        # vanished client) must not have its record executed in the batch.
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=60_000.0)
            tasks = [asyncio.ensure_future(coalescer.submit((index,))) for index in range(3)]
            await asyncio.sleep(0)  # let every submit enqueue itself
            tasks[0].cancel()
            tasks[2].cancel()
            await asyncio.sleep(0)  # let the cancellations reach the futures
            await coalescer.drain()
            settled = await asyncio.gather(*tasks, return_exceptions=True)
            return runner, coalescer, settled

        runner, coalescer, settled = asyncio.run(scenario())
        assert runner.batches == [[(1,)]]  # only the live query was executed
        assert coalescer.counters["cancelled_dropped"] == 2
        assert isinstance(settled[0], asyncio.CancelledError)
        assert settled[1] == ("result", (1,))
        assert isinstance(settled[2], asyncio.CancelledError)

    def test_all_cancelled_skips_the_batch_entirely(self) -> None:
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=60_000.0)
            tasks = [asyncio.ensure_future(coalescer.submit((index,))) for index in range(2)]
            await asyncio.sleep(0)
            for task in tasks:
                task.cancel()
            await asyncio.sleep(0)
            await coalescer.drain()
            await asyncio.gather(*tasks, return_exceptions=True)
            return runner, coalescer

        runner, coalescer = asyncio.run(scenario())
        assert runner.batches == []  # the runner never fired
        assert coalescer.counters["batches"] == 0
        assert coalescer.counters["cancelled_dropped"] == 2

    def test_size_flush_also_drops_cancelled(self) -> None:
        # The drop happens at every flush path, not just drain.
        async def scenario():
            runner = _RecordingRunner()
            coalescer = QueryCoalescer(runner, max_batch=3, max_linger_ms=60_000.0)
            tasks = [asyncio.ensure_future(coalescer.submit((index,))) for index in range(2)]
            await asyncio.sleep(0)
            tasks[0].cancel()
            await asyncio.sleep(0)
            final = asyncio.ensure_future(coalescer.submit((2,)))  # triggers the size flush
            await asyncio.sleep(0)
            results = await asyncio.gather(*tasks, final, return_exceptions=True)
            return runner, coalescer, results

        runner, coalescer, results = asyncio.run(scenario())
        assert runner.batches == [[(1,), (2,)]]
        assert coalescer.counters["cancelled_dropped"] == 1
        assert results[1] == ("result", (1,))
        assert results[2] == ("result", (2,))


class TestFailurePropagation:
    def test_runner_exception_reaches_every_future(self) -> None:
        async def scenario():
            coalescer = QueryCoalescer(_RecordingRunner(fail=True), max_batch=64, max_linger_ms=1.0)
            return await asyncio.gather(
                *(coalescer.submit((i,)) for i in range(3)), return_exceptions=True
            )

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_result_count_mismatch_is_an_error(self) -> None:
        async def bad_runner(records):
            return [None]  # wrong arity on purpose

        async def scenario():
            coalescer = QueryCoalescer(bad_runner, max_batch=64, max_linger_ms=1.0)
            return await asyncio.gather(
                coalescer.submit((1,)), coalescer.submit((2,)), return_exceptions=True
            )

        results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_rejected_query_fails_alone(self) -> None:
        poison = (666,)

        class _RejectingRunner(_RecordingRunner):
            async def __call__(self, records):
                if poison in records:
                    self.batches.append(list(records))
                    raise ValueError(f"cannot hash {poison}")
                return await super().__call__(records)

        runner = _RejectingRunner()

        async def scenario():
            coalescer = QueryCoalescer(runner, max_batch=64, max_linger_ms=50.0)
            records = [(1,), poison, (2,)]
            results = await asyncio.gather(
                *(coalescer.submit(record) for record in records), return_exceptions=True
            )
            return coalescer, results

        coalescer, results = asyncio.run(scenario())
        assert results[0] == ("result", (1,))
        assert isinstance(results[1], ValueError)
        assert results[2] == ("result", (2,))
        # One shared batch, then each query re-run alone.
        assert runner.batches == [[(1,), poison, (2,)], [(1,)], [poison], [(2,)]]
        assert coalescer.counters["split_batches"] == 1

    def test_value_error_of_a_single_query_is_not_retried(self) -> None:
        calls = []

        async def rejecting_runner(records):
            calls.append(list(records))
            raise ValueError("bad query")

        async def scenario():
            coalescer = QueryCoalescer(rejecting_runner, max_batch=64, max_linger_ms=1.0)
            return await asyncio.gather(coalescer.submit((1,)), return_exceptions=True)

        results = asyncio.run(scenario())
        assert isinstance(results[0], ValueError)
        assert calls == [[(1,)]]


def coalesced_order(runner: _RecordingRunner) -> List:
    """All records in dispatch order (flattened batches)."""
    return [record for batch in runner.batches for record in batch]
