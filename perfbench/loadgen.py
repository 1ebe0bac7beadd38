"""Load generators for the serve workloads: one process, several connections.

* :func:`open_loop` sends a fixed plan on a schedule (``rate`` requests per
  second in total, dealt round-robin to the connections) whatever the server
  does, and times each request from when it was *due*, so a stall also
  charges the requests queued behind it.  How late the sender ran is kept
  per request.
* :func:`closed_loop` keeps ``depth`` requests outstanding per connection
  and sends the next one when a response arrives, for ``seconds``.

Both speak the JSON-lines protocol directly and keep every response, so the
caller can check each answer.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf = time.perf_counter

DRAIN_TIMEOUT_S = 10.0
"""A request unanswered this long after the last send counts as timed out."""


@dataclass
class Outcome:
    op: str
    record: int  # index into the workload's record list
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    response: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.response is not None and bool(self.response.get("ok"))


def _line(request_id: int, op: str, tokens: Sequence[int]) -> bytes:
    return (json.dumps({"id": request_id, "op": op, "record": list(tokens)}) + "\n").encode("ascii")


async def _read_responses(reader: asyncio.StreamReader, outcomes: Dict[int, Outcome],
                          expected: int, on_response: Optional[Callable[[Outcome], None]] = None) -> None:
    received = 0
    while received < expected:
        line = await reader.readline()
        if not line:
            return
        message = json.loads(line)
        outcome = outcomes.get(message.get("id"))
        if outcome is None or outcome.done is not None:
            continue
        outcome.done = perf()
        outcome.response = message
        received += 1
        if on_response is not None:
            on_response(outcome)


async def open_loop(host: str, port: int, plan: Sequence[Tuple[str, int, Sequence[int]]],
                    rate: float, connections: int) -> List[Outcome]:
    """Send ``plan[i]`` at ``start + i / rate`` on connection ``i % connections``."""
    streams = [await asyncio.open_connection(host, port, limit=1 << 24) for _ in range(connections)]
    start = perf() + 0.05
    outcomes = [Outcome(op, record, start + index / rate) for index, (op, record, _) in enumerate(plan)]

    async def drive(slot: int) -> None:
        reader, writer = streams[slot]
        mine = {index: outcomes[index] for index in range(slot, len(plan), connections)}
        reading = asyncio.ensure_future(_read_responses(reader, mine, len(mine)))
        for index, outcome in mine.items():
            delay = outcome.due - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            op, _, tokens = plan[index]
            writer.write(_line(index, op, tokens))
            outcome.sent = perf()
            await writer.drain()
        try:
            await asyncio.wait_for(reading, DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(*(drive(slot) for slot in range(connections)))
    return outcomes


async def closed_loop(host: str, port: int, record_at: Callable[[int], Tuple[int, Sequence[int]]],
                      seconds: float, connections: int, depth: int) -> Tuple[List[Outcome], float]:
    """Keep ``depth`` queries outstanding per connection for ``seconds``.

    ``record_at(i)`` gives the ``i``-th query as ``(record index, tokens)``.
    Returns the outcomes and the measured window (first send to last answer).
    """
    streams = [await asyncio.open_connection(host, port, limit=1 << 24) for _ in range(connections)]
    outcomes: List[Outcome] = []
    start = perf()
    end = start + seconds

    async def drive(slot: int) -> None:
        reader, writer = streams[slot]
        mine: Dict[int, Outcome] = {}
        finished = asyncio.get_running_loop().create_future()
        outstanding = 0

        def send() -> None:
            nonlocal outstanding
            index = len(outcomes)
            record, tokens = record_at(index)
            now = perf()
            outcome = Outcome("query", record, now, sent=now)
            outcomes.append(outcome)
            mine[index] = outcome
            outstanding += 1
            writer.write(_line(index, "query", tokens))

        def on_response(outcome: Outcome) -> None:
            nonlocal outstanding
            outstanding -= 1
            if perf() < end:
                send()
            elif outstanding == 0 and not finished.done():
                finished.set_result(None)

        for _ in range(depth):
            send()
        reading = asyncio.ensure_future(
            _read_responses(reader, mine, expected=1 << 62, on_response=on_response))
        try:
            await asyncio.wait_for(finished, seconds + DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        reading.cancel()
        await asyncio.gather(reading, return_exceptions=True)
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(*(drive(slot) for slot in range(connections)))
    last = max((outcome.done for outcome in outcomes if outcome.done is not None), default=end)
    return outcomes, last - start
