"""Unit tests for trace spans: nesting, propagation, and the disabled path."""

from __future__ import annotations

import contextvars
import json
from concurrent.futures import ThreadPoolExecutor

from repro.obs import (
    NullSpan,
    TraceWriter,
    current_span,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    event,
    span,
)


class _ListSink:
    def __init__(self) -> None:
        self.records = []

    def __call__(self, record) -> None:
        self.records.append(record)


class TestDisabled:
    def test_span_is_shared_noop_singleton(self) -> None:
        disable_tracing()
        first = span("engine.execute", detail=1)
        second = span("engine.verify")
        assert first is second
        assert isinstance(first, NullSpan)
        assert not first.enabled
        with first as opened:
            opened.annotate(anything="goes")
            assert current_span() is None
        assert first.child_seconds == {}

    def test_event_is_noop(self) -> None:
        disable_tracing()
        event("engine.dedup", seen=3)  # must not raise or allocate a tracer
        assert current_trace_id() is None


class TestSpanTrees:
    def setup_method(self) -> None:
        self.sink = _ListSink()
        enable_tracing(self.sink)

    def teardown_method(self) -> None:
        disable_tracing()

    def test_nesting_builds_parent_links_and_shared_trace(self) -> None:
        with span("request", trace_id="req-1") as root:
            with span("admission.wait"):
                pass
            with span("engine.execute") as engine:
                with span("engine.verify"):
                    pass
            assert engine.trace_id == "req-1"
        by_name = {record["name"]: record for record in self.sink.records}
        assert set(by_name) == {"request", "admission.wait", "engine.execute", "engine.verify"}
        assert all(record["trace"] == "req-1" for record in self.sink.records)
        assert by_name["admission.wait"]["parent"] == by_name["request"]["span"]
        assert by_name["engine.verify"]["parent"] == by_name["engine.execute"]["span"]
        assert by_name["request"]["parent"] is None
        # Children are emitted before their parent (exit order), and the
        # root accumulated per-child durations for the slow-query breakdown.
        assert self.sink.records[-1]["name"] == "request"
        assert set(root.child_seconds) == {"admission.wait", "engine.execute"}
        assert root.child_seconds["engine.execute"] >= engine.duration_seconds

    def test_sibling_durations_accumulate_by_name(self) -> None:
        with span("request") as root:
            for _ in range(3):
                with span("engine.repetition"):
                    pass
        assert len(root.child_seconds) == 1
        assert root.child_seconds["engine.repetition"] > 0.0

    def test_exception_annotates_error_and_still_emits(self) -> None:
        try:
            with span("engine.execute"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (record,) = self.sink.records
        assert record["extra"]["error"] == "RuntimeError"
        assert current_span() is None  # the contextvar was reset on the way out

    def test_event_lands_under_current_span(self) -> None:
        with span("engine.filter") as parent:
            event("engine.dedup", seen=7)
        dedup = next(r for r in self.sink.records if r["name"] == "engine.dedup")
        assert dedup["parent"] == parent.span_id
        assert dedup["duration_seconds"] == 0.0
        assert dedup["extra"] == {"seen": 7}

    def test_ids_are_deterministic_counters(self) -> None:
        with span("a") as first:
            pass
        with span("b") as second:
            pass
        assert (first.trace_id, first.span_id) == ("t1", "s1")
        assert (second.trace_id, second.span_id) == ("t2", "s2")


class TestThreadHandoff:
    def test_copy_context_parents_worker_spans_correctly(self) -> None:
        sink = _ListSink()
        enable_tracing(sink)
        try:
            def worker(repetition: int) -> None:
                with span("join.repetition", repetition=repetition):
                    pass

            with span("join", trace_id="req-9"):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    futures = [
                        pool.submit(contextvars.copy_context().run, worker, repetition)
                        for repetition in range(4)
                    ]
                    for future in futures:
                        future.result()
        finally:
            disable_tracing()
        children = [r for r in sink.records if r["name"] == "join.repetition"]
        root = next(r for r in sink.records if r["name"] == "join")
        assert len(children) == 4
        assert all(r["trace"] == "req-9" for r in children)
        assert all(r["parent"] == root["span"] for r in children)


class TestTraceWriter:
    def test_round_trip_and_close_is_idempotent(self, tmp_path) -> None:
        path = tmp_path / "spans.jsonl"
        writer = TraceWriter(str(path))
        enable_tracing(writer)
        try:
            with span("request", trace_id="req-3"):
                with span("write"):
                    pass
        finally:
            disable_tracing()
            writer.close()
        writer.close()  # second close must be a no-op
        writer({"dropped": "after close"})  # writes after close are swallowed
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["name"] for record in lines] == ["write", "request"]
        assert all(record["trace"] == "req-3" for record in lines)


class TestPreprocessSpans:
    """Preprocessing shows up at runtime under the benchmark's layer names."""

    def test_preprocess_span_has_minhash_and_sketch_children(self) -> None:
        from repro.core.preprocess import preprocess_collection

        sink = _ListSink()
        enable_tracing(sink)
        try:
            with span("join") as join:
                preprocess_collection([[1, 2, 3], [3, 2, 4, 5], [9]], seed=1)
        finally:
            disable_tracing()
        by_name = {record["name"]: record for record in sink.records}
        preprocess = by_name["preprocess"]
        assert preprocess["parent"] == join.span_id
        assert preprocess["extra"] == {"records": 3, "tokens": 8}
        for child in ("minhash", "sketch"):
            assert by_name[child]["parent"] == preprocess["span"]
            assert by_name[child]["trace"] == preprocess["trace"]
            assert by_name[child]["duration_seconds"] <= preprocess["duration_seconds"]
        assert set(join.child_seconds) == {"preprocess"}
