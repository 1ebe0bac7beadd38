"""End-to-end observability through the served request path.

The acceptance tests of the observability layer: a served query emits one
complete span tree (admission → coalesce → write) correlated by a single
request trace id; the ``metrics`` operation exposes per-op latency
histograms and mirrored counters; the slow-query log and process metadata
surface through ``stats``; and consecutive scrapes never show a monotone
series decreasing.
"""

from __future__ import annotations

import time

import pytest

from repro.index import SimilarityIndex
from repro.obs import (
    Histogram,
    MetricsRegistry,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    percentile,
)
from repro.service import ServiceClient, SimilarityServer, serve_in_thread

RECORDS = [
    (1, 2, 3, 4),
    (2, 3, 4, 5),
    (10, 11, 12, 13),
    (10, 11, 12, 14),
    (1, 2, 3, 4, 5),
]


def make_index(records=RECORDS, **options) -> SimilarityIndex:
    options.setdefault("backend", "numpy")
    options.setdefault("seed", 17)
    return SimilarityIndex.build(list(records), 0.5, **options)


class _PacedIndex:
    """A real index whose ``query_batch`` takes a fixed engine time.

    3.5 ms per batch, or 35 ms when the batch holds ``slow_record``;
    everything else delegates to the wrapped index.
    """

    def __init__(self, inner: SimilarityIndex, slow_record) -> None:
        self._inner = inner
        self._slow_record = tuple(slow_record)

    def query_batch(self, records):
        slow = any(tuple(record) == self._slow_record for record in records)
        time.sleep(0.035 if slow else 0.0035)
        return self._inner.query_batch(records)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture(autouse=True)
def clean_globals():
    disable_metrics()
    disable_tracing()
    yield
    disable_metrics()
    disable_tracing()


@pytest.fixture
def running_server():
    server = SimilarityServer(index_factory=make_index, max_linger_ms=1.0)
    handle = serve_in_thread(server)
    try:
        yield handle, server
    finally:
        handle.stop()


def _series(snapshot, name, **labels):
    for series in snapshot.get(name, {}).get("series", []):
        series_labels = series.get("labels") or {}
        if all(series_labels.get(key) == value for key, value in labels.items()):
            return series
    return None


class TestRequestSpanTree:
    def test_query_emits_one_correlated_span_tree(self) -> None:
        records = []
        enable_tracing(records.append)
        server = SimilarityServer(index_factory=make_index, max_linger_ms=1.0)
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                client.query(RECORDS[0])
        finally:
            handle.stop()
        roots = [r for r in records if r["name"] == "request"]
        query_roots = [r for r in roots if (r.get("extra") or {}).get("op") == "query"]
        assert len(query_roots) == 1
        root = query_roots[0]
        trace_id = root["trace"]
        assert trace_id.startswith("req-")
        tree = [r for r in records if r["trace"] == trace_id]
        names = {r["name"] for r in tree}
        # The complete served path: admission wait, coalescer linger, the
        # engine-side index work, and the response write — one trace id
        # from protocol decode to response write.
        assert {"request", "admission.wait", "coalesce.wait", "write"} <= names
        assert "index.query_batch" in names
        assert (root.get("extra") or {}).get("outcome") == "ok"
        # Every non-root span in the tree hangs off a span of the same tree.
        ids = {r["span"] for r in tree}
        for record in tree:
            if record is not root:
                assert record["parent"] in ids

    def test_coalesce_batch_event_rides_the_trace(self) -> None:
        records = []
        enable_tracing(records.append)
        server = SimilarityServer(index_factory=make_index, max_linger_ms=1.0)
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                client.query(RECORDS[1])
        finally:
            handle.stop()
        batches = [r for r in records if r["name"] == "coalesce.batch"]
        assert batches
        assert batches[0]["extra"]["size"] >= 1
        assert batches[0]["extra"]["reason"] in (
            "size_flushes", "linger_flushes", "drain_flushes"
        )


class TestMetricsOperation:
    def test_per_op_latency_histograms_and_counters(self, running_server) -> None:
        handle, _server = running_server
        with ServiceClient.connect(*handle.address) as client:
            for record in RECORDS:
                client.query(record)
            client.insert([50, 51, 52])
            payload = client.metrics()
        assert "text" in payload and "values" in payload
        snapshot = payload["values"]
        latency = _series(snapshot, "repro_service_request_seconds", op="query")
        assert latency is not None
        assert latency["count"] == len(RECORDS)
        rebuilt = Histogram.from_snapshot(latency)
        assert rebuilt.count == len(RECORDS)
        assert rebuilt.quantile(0.99) >= 0.0
        insert_latency = _series(snapshot, "repro_service_request_seconds", op="insert")
        assert insert_latency is not None and insert_latency["count"] == 1
        ok = _series(snapshot, "repro_service_responses_total", op="query", outcome="ok")
        assert ok is not None and ok["value"] == len(RECORDS)
        batches = _series(snapshot, "repro_service_coalesce_batches_total")
        assert batches is not None and batches["value"] >= 1
        assert _series(snapshot, "repro_service_coalesce_batch_size") is not None
        assert _series(snapshot, "repro_service_uptime_seconds")["value"] >= 0.0
        assert 'repro_service_request_seconds_bucket{op="query"' in payload["text"]

    def test_server_latency_percentiles_agree_with_client_within_one_bucket(self) -> None:
        # The served latency histogram and a client's stopwatch describe the
        # same requests, so p50/p95/p99 must land in the same or an adjacent
        # bucket.  Engine time is pinned (3.5 ms per query, 35 ms for one
        # record) so the percentiles sit mid-bucket and differ from each other.
        slow_record = RECORDS[2]
        server = SimilarityServer(
            index_factory=lambda: _PacedIndex(make_index(), slow_record), max_linger_ms=0.0
        )
        handle = serve_in_thread(server)
        client_seconds = []
        try:
            with ServiceClient.connect(*handle.address) as client:
                for position in range(40):
                    record = slow_record if position % 10 == 9 else RECORDS[position % 2]
                    started = time.perf_counter()
                    client.query(record)
                    client_seconds.append(time.perf_counter() - started)
                series = _series(
                    client.metrics()["values"], "repro_service_request_seconds", op="query"
                )
        finally:
            handle.stop()
        histogram = Histogram.from_snapshot(series)
        assert histogram.count == len(client_seconds)
        client_seconds.sort()
        for fraction in (0.50, 0.95, 0.99):
            client_value = percentile(client_seconds, fraction)
            server_value = histogram.quantile(fraction)
            distance = abs(
                histogram.bucket_index(client_value) - histogram.bucket_index(server_value)
            )
            assert distance <= 1, (fraction, client_value, server_value)
        assert histogram.quantile(0.50) < 0.01 < histogram.quantile(0.99)

    def test_consecutive_scrapes_are_monotone(self, running_server) -> None:
        handle, _server = running_server
        with ServiceClient.connect(*handle.address) as client:
            client.query(RECORDS[0])
            first = client.metrics()["values"]
            for record in RECORDS:
                client.query(record)
            second = client.metrics()["values"]
        for name, family in first.items():
            if family["type"] == "gauge":
                continue
            for series in family["series"]:
                later = _series(second, name, **(series.get("labels") or {}))
                assert later is not None, f"{name} vanished between scrapes"
                if family["type"] == "counter":
                    assert later["value"] >= series["value"]
                else:
                    assert later["count"] >= series["count"]
                    for before, after in zip(series["counts"], later["counts"]):
                        assert after >= before

    def test_global_registry_series_merge_into_the_scrape(self, running_server) -> None:
        handle, _server = running_server
        enable_metrics(MetricsRegistry())
        with ServiceClient.connect(*handle.address) as client:
            client.query(RECORDS[0])
            snapshot = client.metrics()["values"]
        # Index instrumentation reports into the process-global registry;
        # the metrics op must fold those series into the same scrape.
        queries = _series(snapshot, "repro_index_queries_total")
        assert queries is not None and queries["value"] >= 1
        assert _series(snapshot, "repro_index_query_batch_seconds") is not None

    def test_metrics_is_ungated(self) -> None:
        # With zero admission capacity every gated op sheds, but metrics —
        # like stats/health — must keep answering.
        server = SimilarityServer(
            index_factory=make_index, max_inflight=1, max_queue=0, max_linger_ms=1.0
        )
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                payload = client.metrics()
        finally:
            handle.stop()
        assert "text" in payload


class TestStatsSurface:
    def test_process_metadata_and_slow_queries(self, running_server) -> None:
        handle, server = running_server
        with ServiceClient.connect(*handle.address) as client:
            for record in RECORDS:
                client.query(record)
            report = client.stats()
        server_stats = report["server"]
        assert server_stats["rss_bytes"] > 0
        assert server_stats["uptime_seconds"] >= 0.0
        assert server_stats["pid"] > 0
        assert server_stats["python"].count(".") == 2
        assert server_stats["process_started_unix"] > 0
        slow = report["slow_queries"]
        assert slow, "slow-query log empty after five queries"
        assert len(slow) <= server.slow_log.capacity
        durations = [entry["duration_seconds"] for entry in slow]
        assert durations == sorted(durations, reverse=True)
        query_entries = [entry for entry in slow if entry["op"] == "query"]
        assert query_entries
        # Sink-less tracing is installed by the server itself, so even with
        # no tracer configured the entries carry span breakdowns.
        assert any("breakdown" in entry for entry in query_entries)
        breakdown = next(e["breakdown"] for e in query_entries if "breakdown" in e)
        assert "coalesce.wait" in breakdown

    def test_slow_log_capacity_zero_disables(self) -> None:
        server = SimilarityServer(
            index_factory=make_index, max_linger_ms=1.0, slow_log_capacity=0
        )
        handle = serve_in_thread(server)
        try:
            with ServiceClient.connect(*handle.address) as client:
                client.query(RECORDS[0])
                report = client.stats()
        finally:
            handle.stop()
        assert report["slow_queries"] == []
