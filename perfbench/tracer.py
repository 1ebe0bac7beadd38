"""Run-time wrappers that time calls into each layer's public functions.

Nothing here edits the library: :func:`install_join_layers`,
:func:`install_index_layer` and :func:`install_server_layers` replace the
named functions with timing wrappers for the life of the process, and
every call is recorded in a :class:`Recorder` in memory.  The recorder is
written out (aggregates plus the coarse spans) only when the run ends.

High-volume layers (one call per candidate task) are kept as running
aggregates; layers whose percentiles are reported keep every duration.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter


class Layer:
    """Call count, busy seconds, optional per-call durations and counters."""

    __slots__ = ("calls", "busy", "durations", "counts")

    def __init__(self, keep: bool) -> None:
        self.calls = 0
        self.busy = 0.0
        self.durations: Optional[List[float]] = [] if keep else None
        self.counts: Dict[str, float] = {}

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.busy += seconds
        if self.durations is not None:
            self.durations.append(seconds)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"calls": self.calls, "busy": self.busy, "counts": dict(self.counts)}
        if self.durations is not None:
            out["durations"] = list(self.durations)
        return out


class Recorder:
    """In-memory span store; appends are single bytecode ops under the GIL."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self.spans: List[tuple] = []  # coarse spans: (name, start, end, thread)
        self.samples: Dict[str, list] = {}  # per-call results a check needs
        self._restore: List[Callable[[], None]] = []

    def layer(self, name: str, keep: bool = False) -> Layer:
        """The named layer's accumulator (created while installing, one thread)."""
        return self.layers.setdefault(name, Layer(keep))

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, threading.get_ident()))

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, replacement)
        self._restore.append(lambda: setattr(owner, attribute, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def dump(self) -> Dict[str, Any]:
        return {
            "layers": {name: layer.as_dict() for name, layer in self.layers.items()},
            "spans": [list(span) for span in self.spans],
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.dump()), encoding="utf-8")


# ---------------------------------------------------------------------- wrappers
def timed(recorder: Recorder, name: str, function: Callable, keep: bool = False,
          after: Optional[Callable] = None, coarse: bool = False) -> Callable:
    """Synchronous wrapper; ``after(layer, args, result)`` adds counters."""
    layer = recorder.layer(name, keep)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = perf()
        result = function(*args, **kwargs)
        ended = perf()
        layer.add(ended - started)
        if coarse:
            recorder.span(name, started, ended)
        if after is not None:
            after(layer, args, result)
        return result

    return wrapper


def timed_async(recorder: Recorder, name: str, function: Callable, keep: bool = True,
                failure: Optional[type] = None) -> Callable:
    """Coroutine wrapper; a ``failure`` exception is counted as ``shed``."""
    layer = recorder.layer(name, keep)

    @functools.wraps(function)
    async def wrapper(*args, **kwargs):
        started = perf()
        try:
            return await function(*args, **kwargs)
        except BaseException as error:
            if failure is not None and isinstance(error, failure):
                layer.count("shed")
            raise
        finally:
            layer.add(perf() - started)

    return wrapper


def _wrap_method(recorder: Recorder, owner: type, attribute: str, name: str, **options) -> None:
    recorder.patch(owner, attribute, timed(recorder, name, owner.__dict__[attribute], **options))


# ---------------------------------------------------------------------- join layers
def install_join_layers(recorder: Recorder) -> None:
    """Wrap preprocessing, lazy collection artefacts, candidate/filter/verify
    and the repetition."""
    import repro.store.record_store as record_store
    from repro.core.cpsjoin import ChosenPathCandidateStage, CPSJoin
    from repro.core.preprocess import PreprocessedCollection
    from repro.engine.stages import SketchFilterStage, SubsetCandidates, VerifyStage
    from repro.hashing.minhash import MinHasher

    _wrap_method(recorder, MinHasher, "signatures", "minhash")
    recorder.patch(record_store, "build_sketches",
                   timed(recorder, "sketch", record_store.build_sketches))
    for method in ("signature_rank_matrix", "sketch_bit_matrix", "sketch_bigints"):
        _wrap_method(recorder, PreprocessedCollection, method, "collection")

    candidate = recorder.layer("candidate")
    original_tasks = ChosenPathCandidateStage.__dict__["tasks"]

    @functools.wraps(original_tasks)
    def tasks(self):
        generator = original_tasks(self)
        while True:
            started = perf()
            task = next(generator, None)
            candidate.add(perf() - started)
            if task is None:
                return
            candidate.count("tasks")
            if isinstance(task, SubsetCandidates):
                candidate.count("subset_tasks")
                if len(task.subset) <= 12:
                    candidate.count("small_subset_tasks")
            yield task

    recorder.patch(ChosenPathCandidateStage, "tasks", tasks)

    def count_filter(layer, args, result):
        layer.count("pairs_in", float(result[0]))
        layer.count("pairs_out", float(len(result[1])))

    def count_filter_pairs(layer, args, result):
        layer.count("pairs_in", float(len(args[1])))
        layer.count("pairs_out", float(len(result[0])))

    _wrap_method(recorder, SketchFilterStage, "filter_subset", "filter", after=count_filter)
    _wrap_method(recorder, SketchFilterStage, "filter_point", "filter", after=count_filter)
    _wrap_method(recorder, SketchFilterStage, "filter_pairs", "filter", after=count_filter_pairs)

    def count_verify(layer, args, result):
        layer.count("pairs_in", float(len(args[1])))
        layer.count("pairs_out", float(result.sum()))

    _wrap_method(recorder, VerifyStage, "verify", "verify", after=count_verify)

    def keep_pairs(layer, args, result):
        recorder.samples.setdefault("repetition_pairs", []).append(sorted(result.pairs))

    _wrap_method(recorder, CPSJoin, "run_once", "repetition", after=keep_pairs, coarse=True)


# ---------------------------------------------------------------------- index layer
def install_index_layer(recorder: Recorder) -> None:
    """Wrap ``SimilarityIndex.build`` / ``query_batch`` / ``insert``."""
    from repro.index.similarity_index import SimilarityIndex

    # Inserts made by a bulk build are build time, not live inserts.
    building = threading.local()
    build = timed(recorder, "index.build", SimilarityIndex.__dict__["build"].__func__, coarse=True)

    @functools.wraps(build)
    def build_flagged(cls, *args, **kwargs):
        building.active = True
        try:
            return build(cls, *args, **kwargs)
        finally:
            building.active = False

    recorder.patch(SimilarityIndex, "build", classmethod(build_flagged))

    original_query_batch = SimilarityIndex.__dict__["query_batch"]
    layer = recorder.layer("index.query_batch", keep=True)

    @functools.wraps(original_query_batch)
    def query_batch(self, records, *args, **kwargs):
        candidates_before = self.stats.candidates
        started = perf()
        result = original_query_batch(self, records, *args, **kwargs)
        layer.add(perf() - started)
        layer.count("queries", float(len(records)))
        layer.count("candidates", float(self.stats.candidates - candidates_before))
        layer.count("matches", float(sum(len(matches) for matches in result)))
        return result

    recorder.patch(SimilarityIndex, "query_batch", query_batch)
    original_insert = SimilarityIndex.__dict__["insert"]
    timed_insert = timed(recorder, "index.insert", original_insert, keep=True)

    @functools.wraps(original_insert)
    def insert(self, record):
        if getattr(building, "active", False):
            return original_insert(self, record)
        return timed_insert(self, record)

    recorder.patch(SimilarityIndex, "insert", insert)


# ---------------------------------------------------------------------- server layers
def install_server_layers(recorder: Recorder) -> None:
    """Wrap the index plus the protocol, admission, coalescer and WAL layers."""
    import repro.service.protocol as protocol
    import repro.service.server as server
    from repro.service.admission import AdmissionGate, ServerOverloadedError
    from repro.service.coalescer import QueryCoalescer
    from repro.service.wal import PersistentIndexStore

    install_index_layer(recorder)
    for function_name, layer_name in (("decode_message", "protocol.decode"),
                                      ("encode_message", "protocol.encode")):
        wrapper = timed(recorder, layer_name, getattr(protocol, function_name), keep=True)
        recorder.patch(protocol, function_name, wrapper)
        if hasattr(server, function_name):
            recorder.patch(server, function_name, wrapper)

    recorder.patch(AdmissionGate, "acquire", timed_async(
        recorder, "admission.acquire", AdmissionGate.__dict__["acquire"], failure=ServerOverloadedError))
    recorder.patch(QueryCoalescer, "submit", timed_async(
        recorder, "coalescer.submit", QueryCoalescer.__dict__["submit"]))

    original_log = PersistentIndexStore.__dict__["log_insert"]
    wal = recorder.layer("wal.append", keep=True)

    @functools.wraps(original_log)
    def log_insert(self, record_id, tokens):
        size_before = _file_size(self.wal_path)
        started = perf()
        result = original_log(self, record_id, tokens)
        wal.add(perf() - started)
        wal.count("bytes", float(_file_size(self.wal_path) - size_before))
        wal.count("user_bytes", float(len(json.dumps([int(token) for token in tokens]))))
        return result

    recorder.patch(PersistentIndexStore, "log_insert", log_insert)

    original_snapshot = PersistentIndexStore.__dict__["snapshot"]
    snapshots = recorder.layer("wal.snapshot", keep=True)

    @functools.wraps(original_snapshot)
    def snapshot(self, index):
        started = perf()
        result = original_snapshot(self, index)
        snapshots.add(perf() - started)
        snapshots.count("bytes", float(_file_size(self.snapshot_path)))
        return result

    recorder.patch(PersistentIndexStore, "snapshot", snapshot)


def _file_size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0
