"""Metrics registry: counters, gauges, and fixed-bucket latency histograms.

The registry is the numeric half of the observability layer (spans are the
causal half, :mod:`repro.obs.tracing`).  Three metric kinds cover everything
the serving stack needs:

* :class:`Counter` — a monotone total (requests served, pairs verified).
* :class:`Gauge` — a point-in-time level (queue depth, RSS bytes).
* :class:`Histogram` — a fixed-bucket latency distribution.  Buckets are
  cumulative counts over shared boundaries, so histograms recorded by
  different thread or process workers **merge exactly** (element-wise sums);
  quantiles are then estimated from the merged buckets.

Snapshots are plain JSON-safe dictionaries.  Everything renders to
Prometheus-style text exposition via :func:`render_exposition`, and two
snapshots combine with :func:`merge_snapshots` — which is how per-worker
registries (or a server's registry plus the process-global one) aggregate
without sharing locks.

Nothing here touches randomness or global state: a registry is an ordinary
object, and the process-global convenience instance lives in
:mod:`repro.obs` so library code can check "is anyone listening?" with one
read.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_metrics",
    "disable_metrics",
    "enable_metrics",
    "merge_snapshots",
    "metric_name",
    "percentile",
    "render_exposition",
]

#: Default latency bucket upper bounds, in seconds.  Chosen to resolve the
#: service's operating range (sub-millisecond point lookups up to multi-second
#: overloaded batches); everything slower lands in the +Inf overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

LabelPairs = Tuple[Tuple[str, str], ...]


def metric_name(raw: str) -> str:
    """Coerce an arbitrary key into a valid Prometheus metric-name fragment.

    Used when dynamic keys (``JoinStats.extra`` entries) become metric names:
    invalid characters collapse to ``_`` and a leading digit gets a ``_``
    prefix, so ``"1bit-sketch hits"`` → ``"_1bit_sketch_hits"``.
    """
    cleaned = _NAME_SANITIZE.sub("_", raw)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample.

    The client-side counterpart of :meth:`Histogram.quantile` (a server's
    latency percentiles come from its histogram buckets).  Returns 0.0 for
    an empty sample.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


def _label_pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc by {amount!r})")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Set the absolute total, enforcing monotonicity.

        Used to mirror externally maintained counters (the server's plain
        ``self.counters`` dict) into the registry: a decrease means the
        source violated its own monotone contract, so it raises rather than
        silently regressing the series.
        """
        with self._lock:
            if value < self._value:
                raise ValueError(
                    f"counter {self.name} cannot decrease ({self._value!r} -> {value!r})"
                )
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A level that can go up and down (queue depth, memory, uptime)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the running maximum (used for ``max_``-style depth stats)."""
        with self._lock:
            self._value = max(self._value, float(value))

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-boundary histogram with exact cross-worker merging.

    ``boundaries`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last boundary.  Because the boundaries are
    fixed at construction, two histograms recorded independently (different
    threads, different processes, different scrapes) merge exactly by adding
    counts element-wise — the foundation for aggregating executor fan-out.
    """

    __slots__ = ("name", "labels", "boundaries", "_counts", "_sum", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram boundaries must be strictly increasing: {bounds!r}")
        self.name = name
        self.labels = labels
        self.boundaries = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` falls into (last index = overflow)."""
        return bisect_left(self.boundaries, value)

    def observe(self, value: float) -> None:
        index = bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's observations into this one (exact)."""
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"cannot merge histograms with different boundaries "
                f"({self.name}: {self.boundaries!r} vs {other.name}: {other.boundaries!r})"
            )
        counts, total = other.counts_and_sum()
        self.merge_counts(counts, total)

    def merge_counts(self, counts: Sequence[int], value_sum: float) -> None:
        if len(counts) != len(self._counts):
            raise ValueError(
                f"histogram {self.name}: expected {len(self._counts)} bucket counts, "
                f"got {len(counts)}"
            )
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += int(count)
            self._sum += float(value_sum)

    def counts_and_sum(self) -> Tuple[List[int], float]:
        with self._lock:
            return list(self._counts), self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from bucket counts.

        Linear interpolation inside the containing bucket — the estimate is
        therefore off by at most one bucket width, which is the precision
        contract the served-latency cross-check test asserts.  Observations in
        the overflow bucket report the last finite boundary (there is no
        upper edge to interpolate toward).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        counts, _ = self.counts_and_sum()
        total = sum(counts)
        if total == 0:
            return 0.0
        rank = q * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= rank and count > 0:
                if index >= len(self.boundaries):
                    return self.boundaries[-1]
                lower = self.boundaries[index - 1] if index > 0 else 0.0
                upper = self.boundaries[index]
                fraction = (rank - previous) / count if count else 0.0
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.boundaries[-1]

    @classmethod
    def from_snapshot(cls, series: Mapping[str, Any], name: str = "histogram") -> "Histogram":
        """Rebuild a histogram from one snapshot series (see ``snapshot()``).

        Serve-bench uses this to turn a scraped ``metrics`` payload back
        into a quantile-capable object.
        """
        histogram = cls(name, boundaries=tuple(series["boundaries"]))
        histogram.merge_counts(series["counts"], float(series.get("sum", 0.0)))
        return histogram


Metric = Any  # Counter | Gauge | Histogram


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Metric families are identified by name; within a family, series are
    keyed by their (sorted) label pairs.  Lookups upsert, so call sites can
    just write ``registry.counter("repro_x_total", op="query").inc()`` on
    the hot path — after the first call it is two dict lookups and an add.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._buckets: Dict[str, Tuple[float, ...]] = {}
        self._series: Dict[Tuple[str, LabelPairs], Metric] = {}

    # ------------------------------------------------------------ constructors
    def _get(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: Optional[Mapping[str, str]],
        boundaries: Optional[Sequence[float]] = None,
    ) -> Metric:
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric name {name!r} (use metric_name() to sanitize)")
        pairs = _label_pairs(labels)
        key = (name, pairs)
        metric = self._series.get(key)
        if metric is not None:
            if self._kinds[name] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {self._kinds[name]}, not {kind}"
                )
            return metric
        with self._lock:
            metric = self._series.get(key)
            if metric is not None:
                return metric
            registered = self._kinds.get(name)
            if registered is not None and registered != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {registered}, not {kind}"
                )
            if kind == "counter":
                metric = Counter(name, pairs)
            elif kind == "gauge":
                metric = Gauge(name, pairs)
            else:
                bounds = tuple(boundaries) if boundaries else self._buckets.get(
                    name, DEFAULT_LATENCY_BUCKETS
                )
                metric = Histogram(name, pairs, bounds)
                self._buckets.setdefault(name, metric.boundaries)
            self._kinds[name] = kind
            if help_text:
                self._help[name] = help_text
            self._series[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        return self._get("histogram", name, help, labels, boundaries=buckets)

    # ------------------------------------------------------------ aggregation
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every series, grouped by family."""
        with self._lock:
            series_items = list(self._series.items())
            kinds = dict(self._kinds)
            help_texts = dict(self._help)
        families: Dict[str, Any] = {}
        for (name, pairs), metric in sorted(series_items, key=lambda item: item[0]):
            family = families.setdefault(
                name,
                {"type": kinds[name], "help": help_texts.get(name, ""), "series": []},
            )
            entry: Dict[str, Any] = {"labels": dict(pairs)}
            if isinstance(metric, Histogram):
                counts, value_sum = metric.counts_and_sum()
                entry["boundaries"] = list(metric.boundaries)
                entry["counts"] = counts
                entry["sum"] = value_sum
                entry["count"] = sum(counts)
            else:
                entry["value"] = metric.value
            family["series"].append(entry)
        return families

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histograms add (exact); gauges keep the maximum of the
        two levels, which is the only order-independent choice for merging
        point-in-time values from workers scraped at different instants.
        """
        for name, family in snapshot.items():
            kind = family.get("type")
            for entry in family.get("series", ()):
                labels = entry.get("labels") or {}
                if kind == "counter":
                    self.counter(name, family.get("help", ""), **labels).inc(
                        float(entry.get("value", 0.0))
                    )
                elif kind == "gauge":
                    self.gauge(name, family.get("help", ""), **labels).set_max(
                        float(entry.get("value", 0.0))
                    )
                elif kind == "histogram":
                    histogram = self.histogram(
                        name,
                        family.get("help", ""),
                        buckets=entry.get("boundaries"),
                        **labels,
                    )
                    histogram.merge_counts(entry.get("counts", ()), float(entry.get("sum", 0.0)))
                else:
                    raise ValueError(f"snapshot family {name!r} has unknown type {kind!r}")

    def expose_text(self) -> str:
        """Prometheus text exposition of the current state."""
        return render_exposition(self.snapshot())


_ACTIVE_REGISTRY: Optional[MetricsRegistry] = None


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (or replace) the process-global registry and return it.

    Library code — engine, index, repetition workers — reports into this
    registry when one is installed and does nothing otherwise; the
    "otherwise" check is a single module-global read, which is what keeps
    the disabled path within the <5% overhead budget.
    """
    global _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = registry if registry is not None else MetricsRegistry()
    return _ACTIVE_REGISTRY


def disable_metrics() -> None:
    global _ACTIVE_REGISTRY
    _ACTIVE_REGISTRY = None


def active_metrics() -> Optional[MetricsRegistry]:
    return _ACTIVE_REGISTRY


def merge_snapshots(*snapshots: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge snapshot dicts (counters/histograms add, gauges take the max)."""
    merged = MetricsRegistry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = sorted(labels.items())
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}={json.dumps(str(value))}' for key, value in pairs)
    return "{" + body + "}"


def render_exposition(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot as Prometheus text format (version 0.0.4)."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family.get("type", "untyped")
        help_text = family.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in family.get("series", ()):
            labels = entry.get("labels") or {}
            if kind == "histogram":
                boundaries = list(entry.get("boundaries", ()))
                counts = list(entry.get("counts", ()))
                cumulative = 0
                for boundary, count in zip(boundaries, counts):
                    cumulative += count
                    label_text = _format_labels(labels, ("le", _format_value(boundary)))
                    lines.append(f"{name}_bucket{label_text} {cumulative}")
                if len(counts) > len(boundaries):
                    cumulative += counts[len(boundaries)]
                label_text = _format_labels(labels, ("le", "+Inf"))
                lines.append(f"{name}_bucket{label_text} {cumulative}")
                lines.append(f"{name}_sum{_format_labels(labels)} {_format_value(entry.get('sum', 0.0))}")
                lines.append(f"{name}_count{_format_labels(labels)} {cumulative}")
            else:
                lines.append(
                    f"{name}{_format_labels(labels)} {_format_value(entry.get('value', 0.0))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
