"""End-to-end tests for the asyncio similarity-search server.

Every test runs a real server on an ephemeral port (via
:func:`repro.service.serve_in_thread`) and talks to it through the blocking
client — the same path the CI smoke leg and the examples use.  The central
assertion throughout: server answers are bit-identical to offline
:meth:`SimilarityIndex.query_batch` on the same data.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.index import SimilarityIndex
from repro.service import (
    ServerBusyError,
    ServiceClient,
    ServiceError,
    SimilarityServer,
    serve_in_thread,
)

BASE_RECORDS = [
    (1, 2, 3, 4),
    (2, 3, 4, 5),
    (10, 11, 12, 13),
    (10, 11, 12, 14),
    (1, 2, 3, 4, 5),
    (20, 21, 22, 23),
]


def make_index(records=BASE_RECORDS, **options) -> SimilarityIndex:
    options.setdefault("backend", "numpy")
    options.setdefault("seed", 17)
    return SimilarityIndex.build(list(records), 0.5, **options)


@pytest.fixture
def running_server():
    server = SimilarityServer(index_factory=make_index, max_linger_ms=1.0)
    handle = serve_in_thread(server)
    try:
        yield handle
    finally:
        handle.stop()


class TestQueryParity:
    def test_point_queries_match_offline_query_batch(self, running_server) -> None:
        offline = make_index()
        expected = offline.query_batch(BASE_RECORDS)
        with ServiceClient.connect(*running_server.address) as client:
            served = [client.query(record) for record in BASE_RECORDS]
        assert served == expected

    def test_query_batch_endpoint_matches_offline(self, running_server) -> None:
        offline = make_index()
        with ServiceClient.connect(*running_server.address) as client:
            assert client.query_batch(BASE_RECORDS) == offline.query_batch(BASE_RECORDS)
            assert client.query_batch([]) == []

    def test_concurrent_queries_coalesce_without_changing_answers(self, running_server) -> None:
        offline = make_index()
        queries = [BASE_RECORDS[position % len(BASE_RECORDS)] for position in range(48)]
        expected = offline.query_batch(queries)

        def one_client(shard):
            with ServiceClient.connect(*running_server.address) as client:
                return [client.query(record) for record in shard]

        shards = [queries[start::4] for start in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(one_client, shards))
        served = [matches for outcome in outcomes for matches in outcome]
        expected_sharded = [match for start in range(4) for match in expected[start::4]]
        assert served == expected_sharded

        with ServiceClient.connect(*running_server.address) as client:
            coalescer = client.stats()["server"]["coalescer"]
        assert coalescer["queries"] >= 48
        # Coalescing must actually have happened at least once under
        # 4-way concurrency (48 queries in ≥ 1 shared batch).
        assert coalescer["batches"] <= coalescer["queries"]


class TestInserts:
    def test_insert_assigns_sequential_ids_and_serves_them(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            first = client.insert([100, 101, 102])
            second = client.insert([100, 101, 103])
            assert (first, second) == (len(BASE_RECORDS), len(BASE_RECORDS) + 1)
            matches = client.query([100, 101, 102])
            assert [record_id for record_id, _ in matches[:1]] == [first]
            assert client.health()["records"] == len(BASE_RECORDS) + 2

    def test_interleaved_inserts_match_fresh_offline_build(self, running_server) -> None:
        extra = [(40, 41, 42), (40, 41, 43), (2, 3, 4)]
        queries = list(BASE_RECORDS) + extra
        with ServiceClient.connect(*running_server.address) as client:
            for record in extra:
                client.insert(record)
            served = [client.query(record) for record in queries]
        fresh = make_index(list(BASE_RECORDS) + extra)
        assert served == fresh.query_batch(queries)

    def test_insert_visible_after_pool_cached_queries_processes_executor(self) -> None:
        # The server path of the pool-invalidation satellite: a processes-
        # executor index caches its worker pool per record count; an insert
        # through the server must invalidate it so later queries see the new
        # record (stale workers would answer from their pickled copy).
        records = [tuple(range(start, start + 6)) for start in range(0, 120, 3)]
        server = SimilarityServer(
            index_factory=lambda: make_index(
                records, workers=2, executor="processes", batch_size=8
            ),
            max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                client.query_batch(records[:20])  # builds (and caches) the worker pool
                record_id = client.insert([0, 1, 2, 3, 4, 500])
                after = client.query_batch([[0, 1, 2, 3, 4, 500]])
                assert [m for m, _ in after[0][:1]] == [record_id]
                # Every post-insert answer equals a fresh offline build over
                # the grown collection — a stale cached pool could not.
                fresh = make_index(
                    records + [(0, 1, 2, 3, 4, 500)], workers=2, executor="processes", batch_size=8
                )
                assert client.query_batch(records[:20]) == fresh.query_batch(records[:20])
                fresh.close()
        finally:
            handle.stop()


class TestErrorHandling:
    def test_unknown_operation_answered_not_dropped(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            with pytest.raises(ServiceError, match="unknown operation"):
                client.call({"op": "qeury", "record": [1]})
            assert client.health()["status"] == "ok"  # connection still alive

    def test_empty_records_rejected(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            with pytest.raises(ServiceError, match="empty record"):
                client.insert([])
            with pytest.raises(ServiceError, match="empty record"):
                client.query([])
            assert client.health()["records"] == len(BASE_RECORDS)

    def test_out_of_range_token_rejected_without_corrupting_the_index(self, running_server) -> None:
        # A token beyond int64 must be refused at the wire: a half-applied
        # insert would occupy a record id the WAL never sees, and a bad
        # query must not poison the coalesced batch it rides in.
        with ServiceClient.connect(*running_server.address) as client:
            with pytest.raises(ServiceError, match="64-bit"):
                client.insert([2**70])
            with pytest.raises(ServiceError, match="64-bit"):
                client.query([2**70])
            assert client.health()["records"] == len(BASE_RECORDS)  # nothing half-applied
            record_id = client.insert([100, 101])  # inserts still work and line up
            assert record_id == len(BASE_RECORDS)

    def test_unhashable_token_insert_is_an_error_and_ids_stay_contiguous(self, tmp_path) -> None:
        # A sketching index hashes every record; a token that fits int64 but
        # is no 32-bit hash key fails the insert as an ordinary error before
        # the index or the WAL is touched, so a restart rebuilds the same ids.
        def factory():
            return make_index(candidates="chosenpath")

        options = dict(data_dir=tmp_path / "state", wal_sync=False, max_linger_ms=0.0)
        handle = serve_in_thread(SimilarityServer(index_factory=factory, **options))
        try:
            with ServiceClient.connect(*handle.address) as client:
                with pytest.raises(ServiceError, match="32-bit tabulation key") as failure:
                    client.insert([1, 2**40])
                assert "internal error" not in str(failure.value)
                assert client.insert([100, 101]) == len(BASE_RECORDS)
                snapshot = client.metrics()["values"]
        finally:
            handle.stop()
        outcomes = {
            series["labels"]["outcome"]: series["value"]
            for series in snapshot["repro_service_responses_total"]["series"]
            if series["labels"]["op"] == "insert"
        }
        assert outcomes == {"error": 1, "ok": 1}

        handle = serve_in_thread(SimilarityServer(index_factory=factory, **options))
        try:
            with ServiceClient.connect(*handle.address) as client:
                assert client.health()["records"] == len(BASE_RECORDS) + 1
                assert client.query([100, 101])[0] == (len(BASE_RECORDS), 1.0)
                assert client.insert([200, 201]) == len(BASE_RECORDS) + 1
        finally:
            handle.stop()

    def test_unhashable_query_fails_alone_in_a_shared_batch(self) -> None:
        # On a sketching index a token beyond 32 bits fails the whole
        # query_batch; the coalescer re-runs the batch query by query, so a
        # valid query that shared the batch is still answered.
        def factory():
            return make_index(candidates="lsh", seed=1)

        valid, bad = list(BASE_RECORDS[0]), [1, 2, 2**40]
        expected = factory().query(valid)
        server = SimilarityServer(index_factory=factory, max_linger_ms=1000.0)
        handle = serve_in_thread(server)
        try:
            def ask(record):
                with ServiceClient.connect(*handle.address) as client:
                    try:
                        return client.query(record)
                    except ServiceError as error:
                        return error

            with ThreadPoolExecutor(max_workers=2) as pool:
                answers = list(pool.map(ask, [valid, bad]))
            with ServiceClient.connect(*handle.address) as client:
                stats = client.stats()
                snapshot = client.metrics()["values"]
        finally:
            handle.stop()
        assert answers[0] == expected
        assert isinstance(answers[1], ServiceError)
        assert "32-bit tabulation key" in str(answers[1])
        assert stats["server"]["coalescer"]["batches"] == 1
        assert stats["server"]["coalescer"]["split_batches"] == 1
        outcomes = {
            series["labels"]["outcome"]: series["value"]
            for series in snapshot["repro_service_responses_total"]["series"]
            if series["labels"]["op"] == "query"
        }
        assert outcomes == {"error": 1, "ok": 1}

    def test_malformed_line_answered_with_error(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            client._socket.sendall(b"{not json}\n")
            import json

            response = json.loads(client._reader.readline())
            assert response["ok"] is False
            assert "malformed" in response["error"]
            assert client.health()["status"] == "ok"


class TestWalFailureFailStop:
    def test_inserts_disabled_after_wal_append_failure(self, tmp_path) -> None:
        # After a WAL append fails the server must stop acknowledging
        # inserts (their durability could not be kept: the failed insert's
        # id is occupied in memory, so later logged inserts would hide
        # behind a permanent id gap) — while queries stay up.
        server = SimilarityServer(
            index_factory=make_index, data_dir=tmp_path / "state",
            wal_sync=False, max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            server._store._wal.close()  # simulate the WAL device failing
            with ServiceClient.connect(*handle.address) as client:
                with pytest.raises(ServiceError):
                    client.insert([100, 101])
                with pytest.raises(ServiceError, match="inserts disabled"):
                    client.insert([100, 102])
                # Read availability is unaffected.
                assert client.query([1, 2, 3, 4])
                assert client.health()["status"] == "ok"
        finally:
            handle.stop()

        # The NACKed record lived only in the failed server's memory; the
        # clean shutdown must NOT have snapshotted it into persistence.
        restarted = SimilarityServer(
            index_factory=make_index, data_dir=tmp_path / "state",
            wal_sync=False, max_linger_ms=0.0,
        )
        handle = serve_in_thread(restarted)
        try:
            with ServiceClient.connect(*handle.address) as client:
                assert client.health()["records"] == len(BASE_RECORDS)
        finally:
            handle.stop()

    def test_failed_start_releases_the_data_dir_lock(self, tmp_path) -> None:
        data_dir = tmp_path / "state"
        data_dir.mkdir()
        (data_dir / "snapshot.idx").write_bytes(b"definitely not an index")
        broken = SimilarityServer(index_factory=make_index, data_dir=data_dir)
        with pytest.raises(Exception, match="not a saved SimilarityIndex"):
            serve_in_thread(broken)
        # After removing the corrupt snapshot, the directory must be usable
        # again in this same process (the failed start released its lock).
        (data_dir / "snapshot.idx").unlink()
        handle = serve_in_thread(
            SimilarityServer(index_factory=make_index, data_dir=data_dir, wal_sync=False)
        )
        try:
            with ServiceClient.connect(*handle.address) as client:
                assert client.health()["records"] == len(BASE_RECORDS)
        finally:
            handle.stop()


class _SlowIndex:
    """A real index whose ``query_batch`` holds the engine thread.

    Overload needs the server to be *busy* deterministically; sleeping on
    the engine thread (exactly where a big batch would spend its time)
    pins capacity without inventing load.  Everything else delegates to
    the wrapped :class:`SimilarityIndex`, so answers keep offline parity.
    """

    def __init__(self, inner: SimilarityIndex, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def query_batch(self, records):
        time.sleep(self._delay)
        return self._inner.query_batch(records)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOverloadPolicy:
    def test_flood_beyond_capacity_sheds_busy_admitted_answers_exact(self) -> None:
        # Capacity 1 in flight + 1 queued, every batch pinned for 150 ms:
        # six simultaneous queries must shed at least one 'busy', every
        # admitted answer must equal offline query_batch, and the stats
        # endpoint must expose the shed.
        offline = make_index()
        expected = offline.query_batch(BASE_RECORDS)
        server = SimilarityServer(
            index_factory=lambda: _SlowIndex(make_index(), 0.15),
            max_inflight=1,
            max_queue=1,
            max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            barrier = threading.Barrier(6)

            def one_client(position):
                record = BASE_RECORDS[position % len(BASE_RECORDS)]
                with ServiceClient.connect(*handle.address) as client:
                    barrier.wait()
                    try:
                        return ("ok", client.query(record), position % len(BASE_RECORDS))
                    except ServerBusyError:
                        return ("busy", None, None)

            with ThreadPoolExecutor(max_workers=6) as pool:
                outcomes = list(pool.map(one_client, range(6)))
            shed = [outcome for outcome in outcomes if outcome[0] == "busy"]
            admitted = [outcome for outcome in outcomes if outcome[0] == "ok"]
            assert shed, "a 6-way flood against capacity 2 must shed"
            assert admitted, "admission control must still admit work"
            for _, matches, position in admitted:
                assert matches == expected[position]

            with ServiceClient.connect(*handle.address) as probe:
                # Health answers while/after the flood — shedding, not wedging.
                assert probe.health()["status"] == "ok"
                stats = probe.stats()["server"]
            assert stats["shed_total"] >= len(shed)
            assert stats["queue_peak"] <= 1  # the configured bound held
            assert stats["inflight_peak"] <= 1
        finally:
            handle.stop()

    def test_per_connection_pipeline_cap_sheds_excess(self) -> None:
        # One connection pipelines 5 queries while each batch takes 200 ms:
        # with max_conn_inflight=2 the first two are admitted and answered,
        # the rest are shed with busy (matched by id).
        offline = make_index()
        server = SimilarityServer(
            index_factory=lambda: _SlowIndex(make_index(), 0.2),
            max_conn_inflight=2,
            max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            sock = socket.create_connection(handle.address, timeout=30.0)
            try:
                reader = sock.makefile("rb")
                record = list(BASE_RECORDS[0])
                payload = b"".join(
                    (json.dumps({"id": position, "op": "query", "record": record}) + "\n").encode()
                    for position in range(5)
                )
                sock.sendall(payload)
                responses = [json.loads(reader.readline()) for _ in range(5)]
            finally:
                sock.close()
            by_id = {response["id"]: response for response in responses}
            assert len(by_id) == 5
            busy = [response for response in responses if response.get("busy")]
            ok = [response for response in responses if response["ok"]]
            assert len(ok) == 2 and len(busy) == 3
            expected = offline.query_batch([BASE_RECORDS[0]])[0]
            for response in ok:
                matches = [(int(i), float(s)) for i, s in response["result"]["matches"]]
                assert matches == expected
            with ServiceClient.connect(*handle.address) as probe:
                assert probe.stats()["server"]["shed_connection"] == 3
        finally:
            handle.stop()

    def test_request_deadline_drops_stuck_requests(self) -> None:
        # Every batch takes 300 ms but the deadline is 50 ms: the request is
        # dropped with a deadline error (not busy — no point retrying the
        # same deadline), counted, and the connection survives.
        server = SimilarityServer(
            index_factory=lambda: _SlowIndex(make_index(), 0.3),
            request_deadline_ms=50.0,
            max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                with pytest.raises(ServiceError, match="deadline") as caught:
                    client.query(BASE_RECORDS[0])
                assert not isinstance(caught.value, ServerBusyError)
                assert client.health()["status"] == "ok"
                stats = client.stats()["server"]
                assert stats["deadline_drops"] == 1
                assert stats["request_deadline_ms"] == 50.0
        finally:
            handle.stop()

    def test_slow_client_backpressure_no_wedge_all_answers_exact(self) -> None:
        # A client pipelines 50 queries and reads *nothing* against a tiny
        # 256-byte write buffer: the server must pause reading its requests
        # (bounding per-connection work) yet keep serving other clients, and
        # once the slow client finally reads, every response is there and
        # exact.  max_conn_inflight=8 bounds what the slow client can have
        # outstanding; backpressure is what keeps the rest unread.
        offline = make_index()
        expected = offline.query_batch([BASE_RECORDS[1]])[0]
        server = SimilarityServer(
            index_factory=make_index,
            max_linger_ms=0.0,
            max_conn_inflight=8,
            write_buffer_high=256,
        )
        handle = serve_in_thread(server)
        try:
            slow = socket.create_connection(handle.address, timeout=30.0)
            try:
                record = list(BASE_RECORDS[1])
                payload = b"".join(
                    (json.dumps({"id": position, "op": "query", "record": record}) + "\n").encode()
                    for position in range(50)
                )
                slow.sendall(payload)
                time.sleep(0.2)  # let the server fill the 256-byte buffer and pause
                # A well-behaved client on another connection is unaffected.
                with ServiceClient.connect(*handle.address) as healthy:
                    assert healthy.query(BASE_RECORDS[1]) == expected
                    assert healthy.health()["status"] == "ok"
                # Now the slow client drains: all 50 answers, all exact or busy.
                reader = slow.makefile("rb")
                answered = 0
                for _ in range(50):
                    response = json.loads(reader.readline())
                    if response["ok"]:
                        matches = [(int(i), float(s)) for i, s in response["result"]["matches"]]
                        assert matches == expected
                        answered += 1
                    else:
                        assert response.get("busy"), response
                assert answered > 0
            finally:
                slow.close()
        finally:
            handle.stop()

    def test_insert_writer_queue_is_bounded(self) -> None:
        # max_queue bounds the insert writer queue too: with the engine
        # pinned by a slow query batch, a burst of pipelined inserts beyond
        # max_queue must shed with busy instead of growing the queue.
        server = SimilarityServer(
            index_factory=lambda: _SlowIndex(make_index(), 0.4),
            max_inflight=16,
            max_queue=2,
            max_conn_inflight=16,
            max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            sock = socket.create_connection(handle.address, timeout=30.0)
            try:
                reader = sock.makefile("rb")
                # Pin the engine thread with one slow query...
                query = {"id": "q", "op": "query", "record": list(BASE_RECORDS[0])}
                sock.sendall((json.dumps(query) + "\n").encode())
                time.sleep(0.05)
                # ...then burst 8 inserts: the writer queue holds 2, the rest shed.
                payload = b"".join(
                    (
                        json.dumps({"id": position, "op": "insert", "record": [900 + position]})
                        + "\n"
                    ).encode()
                    for position in range(8)
                )
                sock.sendall(payload)
                responses = [json.loads(reader.readline()) for _ in range(9)]
            finally:
                sock.close()
            insert_responses = [r for r in responses if r["id"] != "q"]
            busy = [r for r in insert_responses if r.get("busy")]
            ok = [r for r in insert_responses if r["ok"]]
            assert busy, "insert burst beyond the writer queue bound must shed"
            assert ok, "bounded writer queue must still accept inserts"
            with ServiceClient.connect(*handle.address) as probe:
                stats = probe.stats()["server"]
                assert stats["shed_writer"] >= 1
                assert stats["insert_queue_depth"] == 0  # drained afterwards
        finally:
            handle.stop()


class TestStopIdempotence:
    def test_double_stop_and_stop_without_start(self, tmp_path) -> None:
        async def scenario():
            server = SimilarityServer(
                index_factory=make_index, data_dir=tmp_path / "state", wal_sync=False
            )
            await server.start()
            await server.stop()
            await server.stop()  # idempotent: no snapshot on a closed store
            never_started = SimilarityServer(index_factory=make_index)
            await never_started.stop()  # no-op
            return server

        server = asyncio.run(scenario())
        with pytest.raises(RuntimeError, match="not running"):
            server.index  # the property must not hand out a closed index

    def test_data_dir_reusable_after_double_stop(self, tmp_path) -> None:
        # The second stop() must not have corrupted the persisted state or
        # left the directory lock held.
        async def scenario():
            server = SimilarityServer(
                index_factory=make_index, data_dir=tmp_path / "state", wal_sync=False
            )
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(scenario())
        handle = serve_in_thread(
            SimilarityServer(index_factory=make_index, data_dir=tmp_path / "state", wal_sync=False)
        )
        try:
            with ServiceClient.connect(*handle.address) as client:
                assert client.health()["records"] == len(BASE_RECORDS)
        finally:
            handle.stop()


class TestStatsEndpoint:
    def test_session_delta_counts_this_servers_queries(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            for record in BASE_RECORDS[:4]:
                client.query(record)
            payload = client.stats()
        assert payload["records"] == len(BASE_RECORDS)
        assert payload["session"]["queries"] == 4
        # The index totals include the session (same stats object underneath).
        assert payload["index"]["verified"] >= payload["session"]["verified"]
        server_counters = payload["server"]
        assert server_counters["persistence"] is False
        assert server_counters["coalescer"]["queries"] == 4
        assert server_counters["requests"] >= 5
        # The overload-policy gauges are visible even when nothing sheds.
        assert server_counters["shed_total"] == 0
        assert server_counters["deadline_drops"] == 0
        assert server_counters["inflight"] >= 0
        assert server_counters["queue_depth"] == 0
        assert server_counters["max_inflight"] == 64
        assert server_counters["uptime_seconds"] >= 0.0
        assert server_counters["started_at_unix"] > 0.0


class TestPersistenceLifecycle:
    def test_clean_restart_serves_identical_answers(self, tmp_path) -> None:
        data_dir = tmp_path / "state"
        probes = list(BASE_RECORDS) + [(100, 101, 102), (1, 2, 3)]
        server = SimilarityServer(
            index_factory=make_index, data_dir=data_dir, wal_sync=False, max_linger_ms=0.0
        )
        handle = serve_in_thread(server)
        with ServiceClient.connect(*handle.address) as client:
            client.insert([100, 101, 102])
            expected = client.query_batch(probes)
        handle.stop()  # clean: final snapshot

        restarted = SimilarityServer(
            index_factory=make_index, data_dir=data_dir, wal_sync=False, max_linger_ms=0.0
        )
        handle = serve_in_thread(restarted)
        try:
            with ServiceClient.connect(*handle.address) as client:
                assert client.query_batch(probes) == expected
                assert client.stats()["server"]["wal_replayed"] == 0  # snapshot covered it
        finally:
            handle.stop()

    def test_kill_restart_replays_wal_to_identical_answers(self, tmp_path) -> None:
        # Simulate a kill -9: copy the snapshot+WAL state *before* the clean
        # shutdown writes its final snapshot, and restart from the copy.
        data_dir = tmp_path / "state"
        killed_dir = tmp_path / "killed"
        probes = list(BASE_RECORDS) + [(100, 101, 102), (60, 61, 62, 63)]
        server = SimilarityServer(
            index_factory=make_index, data_dir=data_dir, wal_sync=False, max_linger_ms=0.0
        )
        handle = serve_in_thread(server)
        with ServiceClient.connect(*handle.address) as client:
            client.insert([100, 101, 102])
            client.insert([60, 61, 62, 63])
            expected = client.query_batch(probes)
            shutil.copytree(data_dir, killed_dir)  # the state a kill leaves behind
        handle.stop()

        restarted = SimilarityServer(
            index_factory=make_index, data_dir=killed_dir, wal_sync=False, max_linger_ms=0.0
        )
        handle = serve_in_thread(restarted)
        try:
            with ServiceClient.connect(*handle.address) as client:
                assert client.query_batch(probes) == expected
                assert client.stats()["server"]["wal_replayed"] == 2
        finally:
            handle.stop()

    def test_snapshot_every_truncates_wal_mid_flight(self, tmp_path) -> None:
        data_dir = tmp_path / "state"
        server = SimilarityServer(
            index_factory=make_index,
            data_dir=data_dir,
            wal_sync=False,
            snapshot_every=3,
            max_linger_ms=0.0,
        )
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                for offset in range(7):
                    client.insert([1000 + offset, 2000 + offset])
                payload = client.stats()
            assert payload["server"]["snapshots"] >= 2  # 7 inserts / snapshot_every=3
            assert payload["server"]["inserts_since_snapshot"] == 1
        finally:
            handle.stop()


class TestStatsTimings:
    def test_stats_expose_per_stage_timing_split(self, running_server) -> None:
        with ServiceClient.connect(*running_server.address) as client:
            origin = client.stats()
            for record in BASE_RECORDS[:3]:
                client.query(record)
            payload = client.stats()
        fields = {"candidate_seconds", "filter_seconds", "verify_seconds", "index_build_seconds"}
        timings = payload["timings"]
        assert set(timings["total"]) == fields
        assert set(timings["session"]) == fields
        for field in fields:
            # Totals include everything the index ever did; the session delta
            # only what this server accumulated since it started.
            assert timings["total"][field] >= timings["session"][field] >= 0.0
        # Queries since the origin snapshot must have spent candidate time.
        assert timings["session"]["candidate_seconds"] >= origin["timings"]["session"]["candidate_seconds"]
        # The index was built before the server started serving, so the
        # session delta must not re-count the build.
        assert timings["session"]["index_build_seconds"] == 0.0
        assert timings["total"]["index_build_seconds"] > 0.0
