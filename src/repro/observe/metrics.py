"""Metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-shaped, scoped to one rank: each rank owns a registry (see
:mod:`repro.observe.session`), and registries *merge* — counters add,
gauges combine by their declared aggregation, histograms add their
bucket counts and combine their summary statistics with the parallel
Welford merge already proven out in
:meth:`repro.util.timing.TimingStats.merge` (reused directly here).
:meth:`MetricsRegistry.reduce` runs that merge across an SPMD group
through ``Communicator.allgather``.

Exports: :meth:`MetricsRegistry.to_prometheus` (text exposition
format, one sample per line) and :meth:`MetricsRegistry.to_json`.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

from repro.util.timing import TimingStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "DEFAULT_BUCKETS",
    "naming_violations",
]

#: default histogram buckets: seconds, spanning µs-scale broker ops to
#: multi-second solver steps
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_GAUGE_AGGS = ("max", "min", "sum", "last")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _render_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _merge_label_str(labels: str, const_labels: dict[str, str]) -> str:
    """Combine a rendered registry label string with per-metric labels."""
    if not const_labels:
        return labels
    inner = labels[1:-1] if labels else ""
    extra = _render_labels(const_labels)[1:-1]
    merged = ",".join(x for x in (inner, extra) if x)
    return "{" + merged + "}"


class Counter:
    """Monotonically increasing count; merges by summation.

    `const_labels` (e.g. ``{"route": "insitu"}``) distinguish samples
    of the same metric name: each label set is its own registry entry
    and exports its own sample line.
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 const_labels: dict[str, str] | None = None):
        self.name = _check_name(name)
        self.help = help
        self.const_labels = dict(const_labels or {})
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += n

    def merge_from(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value

    def samples(self, labels: str) -> list[str]:
        labels = _merge_label_str(labels, self.const_labels)
        return [f"{self.name}{labels} {_fmt(self.value)}"]

    def as_dict(self) -> dict:
        out = {"type": self.kind, "help": self.help, "value": self.value}
        if self.const_labels:
            out["labels"] = dict(self.const_labels)
        return out


class Gauge:
    """Point-in-time value; `agg` picks the cross-rank combination.

    Like counters, gauges accept `const_labels` (e.g.
    ``{"relay": "2"}``): each label set is its own registry entry with
    its own sample line — the per-relay client-count gauges of the
    serving mesh use this.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", agg: str = "max",
                 const_labels: dict[str, str] | None = None):
        if agg not in _GAUGE_AGGS:
            raise ValueError(f"gauge agg must be one of {_GAUGE_AGGS}, got {agg!r}")
        self.name = _check_name(name)
        self.help = help
        self.agg = agg
        self.const_labels = dict(const_labels or {})
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, v: float) -> None:
        with self._lock:
            self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    def merge_from(self, other: "Gauge") -> None:
        with self._lock:
            if self.agg == "sum":
                self.value += other.value
            elif self.agg == "max":
                self.value = max(self.value, other.value)
            elif self.agg == "min":
                self.value = min(self.value, other.value)
            else:  # "last": the merged-in value wins
                self.value = other.value

    def samples(self, labels: str) -> list[str]:
        labels = _merge_label_str(labels, self.const_labels)
        return [f"{self.name}{labels} {_fmt(self.value)}"]

    def as_dict(self) -> dict:
        out = {"type": self.kind, "help": self.help, "agg": self.agg,
               "value": self.value}
        if self.const_labels:
            out["labels"] = dict(self.const_labels)
        return out


class Histogram:
    """Fixed-bucket histogram plus Welford summary statistics.

    `buckets` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the rest, so ``counts`` has ``len(buckets) + 1`` slots.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted, non-empty sequence")
        self.name = _check_name(name)
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.stats = TimingStats()
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        with self._lock:
            self.counts[bisect.bisect_left(self.buckets, v)] += 1
            self.stats.add(v)

    def merge_from(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket mismatch "
                f"{self.buckets} vs {other.buckets}"
            )
        with self._lock:
            for i, c in enumerate(other.counts):
                self.counts[i] += c
            self.stats.merge(other.stats)

    def samples(self, labels: str) -> list[str]:
        inner = labels[1:-1] if labels else ""
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            le = ",".join(x for x in (inner, f'le="{_fmt(bound)}"') if x)
            lines.append(f"{self.name}_bucket{{{le}}} {cumulative}")
        cumulative += self.counts[-1]
        le = ",".join(x for x in (inner, 'le="+Inf"') if x)
        lines.append(f"{self.name}_bucket{{{le}}} {cumulative}")
        lines.append(f"{self.name}_sum{labels} {_fmt(self.stats.total)}")
        lines.append(f"{self.name}_count{labels} {self.stats.count}")
        return lines

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "stats": self.stats.as_dict(),
        }


def _fmt(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class MetricsRegistry:
    """Get-or-create metric store for one rank (or a merged view).

    `labels` (e.g. ``{"rank": "0"}``) are stamped onto every exported
    sample; a merged cross-rank registry usually carries none.
    """

    enabled = True

    def __init__(self, labels: dict[str, str] | None = None):
        self.labels = dict(labels or {})
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, key: str, name: str, *args, **kwargs):
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, *args, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "",
                const_labels: dict[str, str] | None = None) -> Counter:
        # one registry entry per (name, label set): labeled variants of a
        # metric accumulate and export independently
        key = name + _render_labels(const_labels or {})
        return self._get_or_create(Counter, key, name, help, const_labels)

    def gauge(self, name: str, help: str = "", agg: str = "max",
              const_labels: dict[str, str] | None = None) -> Gauge:
        key = name + _render_labels(const_labels or {})
        return self._get_or_create(Gauge, key, name, help, agg, const_labels)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, name, help, buckets)

    def __iter__(self):
        with self._lock:
            return iter(sorted(
                self._metrics.values(),
                key=lambda m: (m.name,
                               _render_labels(getattr(m, "const_labels", {}))),
            ))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def get(self, name: str):
        with self._lock:
            return self._metrics.get(name)

    # -- merging -------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold `other`'s metrics into this registry (other is unchanged)."""
        for metric in other:
            if isinstance(metric, Counter):
                mine = self.counter(metric.name, metric.help,
                                    metric.const_labels or None)
            elif isinstance(metric, Gauge):
                mine = self.gauge(metric.name, metric.help, metric.agg,
                                  metric.const_labels or None)
            elif isinstance(metric, Histogram):
                mine = self.histogram(metric.name, metric.help, metric.buckets)
            else:  # pragma: no cover - closed type set
                raise TypeError(f"unknown metric type {type(metric).__name__}")
            mine.merge_from(metric)
        return self

    def reduce(self, comm) -> "MetricsRegistry":
        """Merge registries across a communicator; same result everywhere."""
        merged = MetricsRegistry()
        for registry in comm.allgather(self):
            merged.merge(registry)
        return merged

    # -- export --------------------------------------------------------
    def _label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in sorted(self.labels.items()))
        return "{" + inner + "}"

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        labels = self._label_str()
        lines: list[str] = []
        seen: set[str] = set()
        for metric in self:
            if metric.name not in seen:
                # labeled variants of one name share a single HELP/TYPE
                seen.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.samples(labels))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict:
        return {
            "labels": dict(self.labels),
            "metrics": {
                m.name + _render_labels(getattr(m, "const_labels", {})):
                    m.as_dict()
                for m in self
            },
        }


#: unit suffixes a histogram may carry (values are seconds, bytes or
#: solver iterations — anything else belongs in a counter or gauge)
_HISTOGRAM_UNITS = ("_seconds", "_bytes", "_iterations")


def naming_violations(registry) -> list[str]:
    """Audit a registry against the repo's metric-name convention.

    Returns one human-readable complaint per violating metric (empty
    means clean).  The rules, enforced across every registry the test
    suite can reach:

    - every name carries the ``repro_`` prefix (one namespace on a
      shared Prometheus endpoint);
    - counters end in ``_total``;
    - histograms end in a unit suffix (``_seconds``, ``_bytes`` or
      ``_iterations``);
    - gauges never end in ``_total`` (that suffix promises a counter),
      and when they carry a unit it is spelled as a suffix the same
      way (``_bytes``, ``_seconds``, ``_ratio``).
    """
    problems = []
    for metric in registry:
        name = metric.name
        if not name.startswith("repro_"):
            problems.append(f"{name}: missing the repro_ prefix")
        if metric.kind == "counter" and not name.endswith("_total"):
            problems.append(f"{name}: counters must end in _total")
        if metric.kind == "histogram" and not name.endswith(_HISTOGRAM_UNITS):
            problems.append(
                f"{name}: histograms must end in a unit suffix "
                f"{_HISTOGRAM_UNITS}"
            )
        if metric.kind == "gauge" and name.endswith("_total"):
            problems.append(
                f"{name}: _total promises a counter; gauges must not use it"
            )
    return problems


class _NullMetric:
    """Accepts any recording call and does nothing."""

    __slots__ = ()

    def inc(self, n: float = 1.0) -> None: ...
    def dec(self, n: float = 1.0) -> None: ...
    def set(self, v: float) -> None: ...
    def observe(self, v: float) -> None: ...


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """No-op registry: the process default when telemetry is off."""

    enabled = False
    labels: dict = {}

    def counter(self, name: str, help: str = "",
                const_labels: dict[str, str] | None = None) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", agg: str = "max") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> _NullMetric:
        return _NULL_METRIC

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0

    def to_prometheus(self) -> str:
        return ""

    def to_json(self) -> dict:
        return {"labels": {}, "metrics": {}}
