"""Counter/gauge/histogram metrics with a thread-safe registry.

The hot path of the reproduction (assembly, selection sweeps, range
queries, the server cache) increments named metrics through the *current*
:class:`MetricsRegistry`.  Components that own a registry (notably
:class:`repro.server.OLAPServer`) activate it around their work so nested
instrumentation lands in the right place; everything else falls back to a
process-wide default registry.

The model is deliberately Prometheus-shaped but dependency-free:

- :class:`Counter` — monotone totals (queries served, cache hits, sweep
  batches).
- :class:`Gauge` — last-written values (cache size, selection epoch).
- :class:`Histogram` — bucketed distributions of observed values
  (operations per assembly, query latency).  Alongside the running
  ``count/sum/min/max``, observations land in exponential buckets, from
  which ``stats()`` estimates p50/p95/p99 by linear interpolation within
  the covering bucket — the SLO quantiles ``health()`` and the Prometheus
  exposition report.

Metrics accept optional ``**labels``; each distinct label combination is an
independent time series.  All mutation goes through one registry lock, so
concurrent query threads can share a server registry safely.

Metric objects are stable handles: :meth:`MetricsRegistry.clear` unlists
every metric and empties its series, and a cleared handle re-registers
itself, with fresh series, on its next write.  A component can therefore
bind its handles once (``lazy=True`` binds without listing the metric
until it is first written) and keep using them across registry resets.

Per-metric label cardinality is bounded (``MetricsRegistry(max_label_sets=
...)``): once a metric holds that many distinct label combinations, writes
carrying *new* combinations fold into a single ``{overflow="true"}`` series
and each folded write increments ``metrics_dropped_series_total`` (labelled
by metric), so a high-cardinality star schema — per-element or per-shard
labels gone wild — degrades into one visible overflow bucket instead of an
unbounded registry.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MAX_LABEL_SETS",
    "MetricsRegistry",
    "OVERFLOW_KEY",
    "current_registry",
    "default_registry",
]

#: Label sets are stored as sorted ``(key, value)`` tuples.
LabelKey = tuple[tuple[str, str], ...]

#: Default per-metric bound on distinct label combinations; the overflow
#: series does not count against it.
MAX_LABEL_SETS = 256

#: Where writes land once a metric's label cardinality bound is hit.
OVERFLOW_KEY: LabelKey = (("overflow", "true"),)


#: ``_label_key`` results for all-``str`` label sets, keyed by the
#: keyword items as passed.  Bounded; past the bound keys are computed.
_LABEL_KEYS: dict[tuple, LabelKey] = {}
_MAX_CACHED_LABEL_KEYS = 4096


def _label_key(labels: dict) -> LabelKey:
    if not labels:
        return ()
    items = tuple(labels.items())
    for _, value in items:
        # Only exact strings are cached: ``1``, ``1.0`` and ``True`` are
        # equal dict keys but render as different label values.
        if type(value) is not str:
            return tuple(sorted((str(k), str(v)) for k, v in items))
    key = _LABEL_KEYS.get(items)
    if key is None:
        key = tuple(sorted(items))
        if len(_LABEL_KEYS) < _MAX_CACHED_LABEL_KEYS:
            _LABEL_KEYS[items] = key
    return key


def _render_labels(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)


class _Metric:
    """Shared bookkeeping for all metric kinds."""

    kind = "metric"

    def __init__(
        self,
        name: str,
        description: str,
        lock: threading.RLock,
        max_series: int | None = None,
        on_overflow=None,
        registry: "MetricsRegistry | None" = None,
    ):
        self.name = name
        self.description = description
        self._lock = lock
        self._series: dict[LabelKey, float | dict] = {}
        self._max_series = max_series
        self._on_overflow = on_overflow
        self._registry = registry
        #: False while the registry does not list this metric (bound
        #: lazily, or cleared); the next write lists it again.
        self._listed = True

    def _write_key(self, key: LabelKey) -> LabelKey:
        """Re-list if unlisted, then apply the cardinality guard (lock held)."""
        if not self._listed:
            self._listed = True
            if self._registry is not None:
                self._registry._relist(self)
        return key if key in self._series else self._admit(key)

    def _admit(self, key: LabelKey) -> LabelKey:
        """Cardinality guard (lock held): the key the write may use.

        Existing series always pass; a *new* combination past the bound is
        folded into :data:`OVERFLOW_KEY` and reported to the registry's
        overflow hook (which feeds ``metrics_dropped_series_total``).
        """
        if (
            self._max_series is None
            or key in self._series
            or len(self._series) < self._max_series
            or key == OVERFLOW_KEY
        ):
            return key
        if self._on_overflow is not None:
            self._on_overflow(self.name)
        return OVERFLOW_KEY

    def labelsets(self) -> tuple[LabelKey, ...]:
        """All label combinations observed so far."""
        with self._lock:
            return tuple(self._series)

    def snapshot(self) -> dict:
        """``{"type", "description", "values"}`` with rendered label keys."""
        with self._lock:
            values = {
                _render_labels(key): (
                    {
                        k: (list(v) if isinstance(v, list) else v)
                        for k, v in series.items()
                    }
                    if isinstance(series, dict)
                    else series
                )
                for key, series in self._series.items()
            }
        return {
            "type": self.kind,
            "description": self.description,
            "values": values,
        }


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be non-negative) to the labelled series."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            key = self._write_key(key)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current total of the labelled series (0 when never incremented)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label combination."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(_Metric):
    """A value that can go up and down; reads return the last write."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set the labelled series to ``value``."""
        key = _label_key(labels)
        with self._lock:
            self._series[self._write_key(key)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Adjust the labelled series by ``amount`` (may be negative)."""
        key = _label_key(labels)
        with self._lock:
            key = self._write_key(key)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value of the labelled series (0 when never set)."""
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


#: Default histogram bucket upper bounds: a geometric ladder wide enough
#: for both millisecond latencies and scalar-operation counts.  The last
#: implicit bucket is +Inf.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    round(base * 10**exp, 6)
    for exp in range(-2, 9)
    for base in (1.0, 2.5, 5.0)
)


class Histogram(_Metric):
    """Bucketed distribution (count/sum/min/max + quantile estimates)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str,
        lock: threading.RLock,
        buckets: tuple[float, ...] | None = None,
        max_series: int | None = None,
        on_overflow=None,
        registry: "MetricsRegistry | None" = None,
    ):
        super().__init__(
            name,
            description,
            lock,
            max_series=max_series,
            on_overflow=on_overflow,
            registry=registry,
        )
        bounds = DEFAULT_BUCKETS if buckets is None else tuple(
            sorted(float(b) for b in buckets)
        )
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds = bounds

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled series."""
        value = float(value)
        key = _label_key(labels)
        index = bisect_right(self.bounds, value)
        with self._lock:
            key = self._write_key(key)
            stats = self._series.get(key)
            if stats is None:
                stats = {
                    "count": 0,
                    "sum": 0.0,
                    "min": value,
                    "max": value,
                    "buckets": [0] * (len(self.bounds) + 1),
                }
                self._series[key] = stats
            stats["count"] += 1
            stats["sum"] += value
            stats["min"] = min(stats["min"], value)
            stats["max"] = max(stats["max"], value)
            stats["buckets"][index] += 1

    def _quantile_locked(self, stats: dict, q: float) -> float:
        """Interpolated quantile from the bucket counts (lock held).

        Finds the bucket containing the q-th ranked observation and
        interpolates linearly inside it, clamped to the observed min/max so
        estimates never leave the data's range (and are exact for q=0/1).
        """
        count = stats["count"]
        if count == 0:
            return 0.0
        rank = q * count
        cum = 0.0
        for index, bucket_count in enumerate(stats["buckets"]):
            if bucket_count == 0:
                continue
            if cum + bucket_count >= rank:
                lo = self.bounds[index - 1] if index > 0 else stats["min"]
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else stats["max"]
                )
                lo = max(lo, stats["min"])
                hi = min(hi, stats["max"])
                if hi <= lo:
                    return min(max(lo, stats["min"]), stats["max"])
                frac = (rank - cum) / bucket_count
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            cum += bucket_count
        return stats["max"]

    def quantile(self, q: float, **labels) -> float:
        """Estimated q-quantile (0 <= q <= 1) of the labelled series."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            stats = self._series.get(_label_key(labels))
            if stats is None:
                return 0.0
            return self._quantile_locked(stats, q)

    def stats(self, **labels) -> dict:
        """``{count, sum, min, max, mean, p50, p95, p99}`` of the series."""
        with self._lock:
            stats = self._series.get(_label_key(labels))
            if stats is None:
                return {
                    "count": 0,
                    "sum": 0.0,
                    "min": 0.0,
                    "max": 0.0,
                    "mean": 0.0,
                    "p50": 0.0,
                    "p95": 0.0,
                    "p99": 0.0,
                }
            out = {k: v for k, v in stats.items() if k != "buckets"}
            out["p50"] = self._quantile_locked(stats, 0.50)
            out["p95"] = self._quantile_locked(stats, 0.95)
            out["p99"] = self._quantile_locked(stats, 0.99)
        out["mean"] = out["sum"] / out["count"]
        return out

    def buckets(self, **labels) -> tuple[tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair has ``float("inf")`` as its bound and equals the
        total observation count.
        """
        with self._lock:
            stats = self._series.get(_label_key(labels))
            counts = list(stats["buckets"]) if stats else [0] * (
                len(self.bounds) + 1
            )
        out = []
        cum = 0
        for bound, count in zip(
            tuple(self.bounds) + (float("inf"),), counts
        ):
            cum += count
            out.append((bound, cum))
        return tuple(out)


class MetricsRegistry:
    """Named metrics, created on first use and shared afterwards.

    ``counter``/``gauge``/``histogram`` are idempotent: asking for an
    existing name returns the existing metric (and raises ``TypeError``
    when the name is already registered as a different kind).  With
    ``lazy=True`` they return the handle without listing it: the metric
    appears in :meth:`names` / :meth:`snapshot` on its first write, so a
    component can bind every handle it may need up front without
    exporting metrics it never writes.
    """

    def __init__(self, max_label_sets: int | None = MAX_LABEL_SETS):
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        #: Known but unlisted handles (bound lazily, or cleared), by name;
        #: asking for the name again returns the same object.
        self._unlisted: dict[str, _Metric] = {}
        #: Per-metric bound on distinct label combinations (``None`` =
        #: unbounded, the pre-guard behaviour).
        self.max_label_sets = max_label_sets

    def _note_series_overflow(self, metric_name: str) -> None:
        """One write folded into an overflow series (guard hook).

        Called with the registry lock held (it is re-entrant); the drop
        counter itself is created unguarded so accounting the overflow can
        never overflow.
        """
        self._get_or_create(
            Counter,
            "metrics_dropped_series_total",
            "metric writes folded into an overflow series by the "
            "label-cardinality guard",
            guarded=False,
        ).inc(metric=metric_name)

    def dropped_series_total(self) -> float:
        """Writes the cardinality guard folded, across all metrics."""
        with self._lock:
            counter = self._metrics.get("metrics_dropped_series_total")
        return float(counter.total()) if counter is not None else 0.0

    def _relist(self, metric: _Metric) -> None:
        """List an unlisted metric on its first write (lock held).

        A name since taken by a metric of another kind keeps this handle
        detached: its writes land on the handle only.
        """
        if metric.name not in self._metrics:
            self._unlisted.pop(metric.name, None)
            self._metrics[metric.name] = metric

    def _get_or_create(
        self,
        cls,
        name: str,
        description: str,
        lazy: bool = False,
        guarded: bool = True,
        **extra,
    ) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {metric.kind}"
                    )
                return metric
            metric = self._unlisted.get(name)
            if metric is None or not isinstance(metric, cls):
                metric = cls(
                    name,
                    description,
                    self._lock,
                    max_series=self.max_label_sets if guarded else None,
                    on_overflow=self._note_series_overflow,
                    registry=self,
                    **extra,
                )
                metric._listed = False
                self._unlisted[name] = metric
            if not lazy:
                metric._listed = True
                self._relist(metric)
            return metric

    def counter(
        self, name: str, description: str = "", *, lazy: bool = False
    ) -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(Counter, name, description, lazy=lazy)

    def gauge(
        self, name: str, description: str = "", *, lazy: bool = False
    ) -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(Gauge, name, description, lazy=lazy)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: tuple[float, ...] | None = None,
        *,
        lazy: bool = False,
    ) -> Histogram:
        """Get or create the named :class:`Histogram`.

        ``buckets`` (upper bounds; +Inf is implicit) only takes effect at
        creation — later calls return the existing histogram unchanged.
        """
        return self._get_or_create(
            Histogram, name, description, lazy=lazy, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        """The named metric, or ``None`` when absent."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> tuple[str, ...]:
        """Registered metric names, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def clear(self) -> None:
        """Drop every metric (tests and long-lived servers).

        The metric objects survive unlisted with empty series, so handles
        bound before the clear re-register themselves on their next write.
        """
        with self._lock:
            for metric in self._metrics.values():
                metric._series = {}
                metric._listed = False
            self._unlisted.update(self._metrics)
            self._metrics.clear()

    def snapshot(self) -> dict:
        """``{name: metric.snapshot()}`` for every registered metric."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name].snapshot() for name in sorted(metrics)}

    @contextmanager
    def activate(self):
        """Make this registry the current one within the ``with`` block."""
        token = _ACTIVE_REGISTRY.set(self)
        try:
            yield self
        finally:
            _ACTIVE_REGISTRY.reset(token)


_DEFAULT_REGISTRY = MetricsRegistry()
_ACTIVE_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_registry", default=None
)


def default_registry() -> MetricsRegistry:
    """The process-wide fallback registry."""
    return _DEFAULT_REGISTRY


def current_registry() -> MetricsRegistry:
    """The registry instrumentation should write to right now.

    The innermost :meth:`MetricsRegistry.activate` wins; outside any
    activation this is :func:`default_registry`.
    """
    return _ACTIVE_REGISTRY.get() or _DEFAULT_REGISTRY
