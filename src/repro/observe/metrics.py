"""Metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-shaped, scoped to one rank: each rank owns a registry (see
:mod:`repro.observe.session`), and registries *merge* — counters add,
gauges combine by their declared aggregation, histograms add their
bucket counts and combine their summary statistics with the parallel
Welford merge already proven out in
:meth:`repro.util.timing.TimingStats.merge` (reused directly here).
:meth:`MetricsRegistry.reduce` runs that merge across an SPMD group
through ``Communicator.allgather``.

A counter or gauge registered with ``read=`` (a callable returning an
owner's ledger value, e.g. ``Device.transfers``) is *read-backed*: its
value is the sum of its readers (a gauge: its ``agg`` over them),
evaluated whenever it is read, merged or exported, so each fact is
counted once, by its owner, and a merged registry holds plain numbers.

Exports: :meth:`MetricsRegistry.to_prometheus` (text exposition
format, one sample per line) and :meth:`MetricsRegistry.to_json`.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
import threading
from functools import reduce

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
#: how a gauge combines two values: across ranks on merge, and across
#: the readers of a read-backed gauge
_GAUGE_AGG = {
    "max": max,
    "min": min,
    "sum": operator.add,
    "last": lambda _old, new: new,   # the merged-in value wins
}


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


class _Metric:
    """Counter/gauge core: a stored value or, once a reader is added,
    the combination of its readers' values (see the module docstring)."""

    def __init__(self, name: str, help: str = "",
                 const_labels: dict[str, str] | None = None):
        self.name = _check_name(name)
        self.help = help
        self.const_labels = dict(const_labels or {})
        self._value = 0.0
        self._readers: list = []
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        readers = self._readers
        if not readers:
            return self._value
        return float(reduce(self._combine, (read() for read in readers)))

    def _store(self, update) -> None:
        with self._lock:
            if self._readers:
                raise TypeError(
                    f"metric {self.name!r} reads its owner's ledger; "
                    "it cannot be set or incremented"
                )
            self._value = update(self._value)

    def merge_from(self, other: "_Metric") -> None:
        v = other.value
        self._store(lambda mine: self._combine(mine, v))

    def samples(self, labels: str) -> list[str]:
        labels = _merge_label_str(labels, self.const_labels)
        return [f"{self.name}{labels} {_fmt(self.value)}"]

    def as_dict(self) -> dict:
        out = {"type": self.kind, "help": self.help, "value": self.value}
        if self.const_labels:
            out["labels"] = dict(self.const_labels)
        return out


class Counter(_Metric):
    """Monotonically increasing count; merges by summation.

    `const_labels` (e.g. ``{"route": "insitu"}``) distinguish samples
    of the same metric name: each label set is its own registry entry
    and exports its own sample line.
    """

    kind = "counter"
    _combine = operator.add      # a builtin: never bound to the instance

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._store(lambda v: v + n)

    @property
    def counted(self) -> bool:
        """False for a read-backed counter whose ledger is still at zero:
        it is left out of merges and exports until its first count, the
        moment an incremented counter would have been created."""
        return not self._readers or self.value != 0


class Gauge(_Metric):
    """Point-in-time value; `agg` picks the cross-rank combination.

    Like counters, gauges accept `const_labels`: each label set is its
    own registry entry with its own sample line.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", agg: str = "max",
                 const_labels: dict[str, str] | None = None):
        if agg not in _GAUGE_AGG:
            raise ValueError(
                f"gauge agg must be one of {tuple(_GAUGE_AGG)}, got {agg!r}"
            )
        super().__init__(name, help, const_labels)
        self.agg = agg
        self._combine = _GAUGE_AGG[agg]

    def set(self, v: float) -> None:
        self._store(lambda _old: float(v))

    def inc(self, n: float = 1.0) -> None:
        self._store(lambda v: v + n)

    def dec(self, n: float = 1.0) -> None:
        self.inc(-n)

    def as_dict(self) -> dict:
        return {"agg": self.agg, **super().as_dict()}


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

    def _get_or_create(self, cls, key: str, name: str, *args, read=None):
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, *args)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            if read is not None:
                metric._readers.append(read)
            return metric

    def counter(self, name: str, help: str = "",
                const_labels: dict[str, str] | None = None,
                read=None) -> Counter:
        """Get or create a counter; `read` adds a reader to it (each
        owner registers its ledger once)."""
        # one registry entry per (name, label set): labeled variants of a
        # metric accumulate and export independently
        key = name + _render_labels(const_labels or {})
        return self._get_or_create(Counter, key, name, help, const_labels,
                                   read=read)

    def gauge(self, name: str, help: str = "", agg: str = "max",
              const_labels: dict[str, str] | None = None,
              read=None) -> Gauge:
        key = name + _render_labels(const_labels or {})
        return self._get_or_create(Gauge, key, name, help, agg, const_labels,
                                   read=read)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, name, help, buckets)

    def __iter__(self):
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(
            (m for m in metrics if getattr(m, "counted", True)),
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
                const_labels: dict[str, str] | None = None,
                read=None) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", agg: str = "max",
              const_labels: dict[str, str] | None = None,
              read=None) -> _NullMetric:
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
