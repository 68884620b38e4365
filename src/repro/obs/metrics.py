"""The unified metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` holds every metric of a pipeline run under a
dotted namespace (``search.*``, ``executor.*``, ``mapping.*``, ``pool.*``,
``service.*``, ``persist.*``, ``workers.*``).  The scattered stats
dataclasses (``PlanStats``, ``SearchStats``, ``RequestStats``,
``MapperStats``) remain the *collection* surface — they are cheap,
lock-free, and already travel through the sync protocols — but they are now
*views over the registry*: :mod:`repro.obs.views` declares, field by field,
which registry metric each one publishes to (or why it is exempt), and a
completeness test keeps the mapping total so a new stats field can never
silently stay unobservable.

Cross-process semantics mirror the reward table's: per-worker registry
snapshots are picklable plain dicts, and :meth:`MetricsRegistry.merge`
folds them in **worker order** — counters and histograms accumulate
(order-insensitive sums), gauges keep the first writer's value — so the
merged totals are deterministic no matter how the workers were scheduled,
and observability never perturbs determinism.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count (merges by addition)."""

    __slots__ = ("name", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n

    def get(self):
        return self.value


class Gauge:
    """A point-in-time value (merges first-writer-wins, like the reward table)."""

    __slots__ = ("name", "value", "set_count", "_lock")

    kind = "gauge"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0.0
        self.set_count = 0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            self.set_count += 1

    def get(self):
        return self.value


class Histogram:
    """Aggregate distribution summary: count / total / min / max.

    Deliberately bucket-free: the merge must be deterministic and compact
    enough to ship in sync messages, and per-phase latency questions are
    answered by the span tracer, not the registry.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "_lock")

    kind = "histogram"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.vmin is None or value < self.vmin:
                self.vmin = value
            if self.vmax is None or value > self.vmax:
                self.vmax = value

    def get(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }


class MetricsRegistry:
    """Thread-safe name → metric map with deterministic snapshot merging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict = {}

    # -- get-or-create accessors -------------------------------------------

    def _metric(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, self._lock)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._metric(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._metric(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._metric(name, Histogram)

    # -- convenience write paths -------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- read paths ---------------------------------------------------------

    def value(self, name: str, default=None):
        with self._lock:
            metric = self._metrics.get(name)
        return default if metric is None else metric.get()

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def view(self, prefix: str) -> dict:
        """``{name: value}`` for every metric under ``prefix.`` (sorted)."""
        dot = prefix if prefix.endswith(".") else prefix + "."
        with self._lock:
            items = [
                (name, metric)
                for name, metric in self._metrics.items()
                if name.startswith(dot)
            ]
        return {name: metric.get() for name, metric in sorted(items)}

    def as_dict(self) -> dict:
        """Every metric's plain value, sorted by name (for JSON output)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.get() for name, metric in items}

    # -- snapshot / merge (the cross-worker protocol) -----------------------

    def snapshot(self) -> dict:
        """A picklable ``{name: (kind, payload)}`` copy of every metric.

        Counter payloads are ints, gauge payloads floats, histogram payloads
        ``(count, total, min, max)`` tuples — plain builtins only, so the
        snapshot travels inside the existing pickled sync messages.
        """
        with self._lock:
            items = sorted(self._metrics.items())
        out: dict = {}
        for name, metric in items:
            if metric.kind == "histogram":
                out[name] = ("histogram", (metric.count, metric.total,
                                           metric.vmin, metric.vmax))
            else:
                out[name] = (metric.kind, metric.get())
        return out

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold one snapshot in: counters/histograms add, gauges keep the
        first written value.  Callers merge per-worker snapshots in worker
        order, making the result deterministic under any scheduling (the
        reward table's first-writer-wins discipline)."""
        if not snapshot:
            return
        for name in sorted(snapshot):
            kind, payload = snapshot[name]
            if kind == "counter":
                self.counter(name).inc(payload)
            elif kind == "gauge":
                gauge = self.gauge(name)
                with self._lock:
                    if gauge.set_count == 0:
                        gauge.value = payload
                        gauge.set_count = 1
            elif kind == "histogram":
                count, total, vmin, vmax = payload
                hist = self.histogram(name)
                with self._lock:
                    hist.count += count
                    hist.total += total
                    if vmin is not None and (hist.vmin is None or vmin < hist.vmin):
                        hist.vmin = vmin
                    if vmax is not None and (hist.vmax is None or vmax > hist.vmax):
                        hist.vmax = vmax
            else:  # pragma: no cover - forward compatibility
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
