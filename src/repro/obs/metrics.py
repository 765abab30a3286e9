"""Process-wide metrics: counters, gauges, streaming histograms.

The registry replaces every ad-hoc tally the serving stack grew — most
importantly :class:`~repro.serve.session.InferenceSession`'s trimmed
``_latencies`` list, which both raced its own ``stats()`` reader and
could only answer quantile questions over the last N samples.  A
:class:`Histogram` here is a fixed set of bucket counters plus exact
``count/sum/min/max``: constant memory, lock-guarded increments, and
streaming p50/p95/p99 via
:func:`repro.obs.quantiles.histogram_quantile`.

Exposition is Prometheus text format (``# HELP`` / ``# TYPE`` / sample
lines, histograms as cumulative ``_bucket{le=...}`` series) — what
``session.metrics_text()`` and ``repro serve --metrics-file`` emit, and
what the planned asyncio front-end will serve on ``/metrics``.

Instruments are cheap to re-look-up: ``registry.counter(name, labels)``
returns the same object for the same key, so hot paths can also cache
the instrument once and call ``.inc()`` forever after.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .quantiles import histogram_quantile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "global_registry",
]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds, in seconds: 100us .. ~105s in
#: half-decade steps.  Wide enough for cold-start outliers, fine enough
#: that interpolated p50/p95 land within a bucket of the truth.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    1e-4 * (math.sqrt(10.0) ** i) for i in range(12)
)


def _freeze_labels(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(pairs: LabelPairs, extra: str = "") -> str:
    parts = [f'{key}="{_escape(value)}"' for key, value in pairs]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing count.  ``inc()`` is lock-guarded."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        """Zero the count — for ``reset_stats()`` surfaces, not scrapers."""
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (queue depth, inflight requests)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket streaming histogram with exact count/sum/min/max.

    ``observe()`` is O(log buckets) (bisect over the bounds) under a
    lock; quantiles are estimated from the bucket counts without any
    stored samples, clamped to the exact observed envelope.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelPairs = (),
        bounds: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # Bisect over the (immutable) bounds happens outside the lock.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, object]:
        """A consistent copy of the histogram state (counts + envelope)."""
        with self._lock:
            return {
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
            }

    def percentile(self, pct: float) -> float:
        """Streaming percentile estimate in the observed unit (``pct`` 0-100)."""
        snap = self.snapshot()
        if not snap["count"]:
            return 0.0
        return histogram_quantile(
            self.bounds,
            snap["counts"],  # type: ignore[arg-type]
            pct / 100.0,
            minimum=snap["min"],  # type: ignore[arg-type]
            maximum=snap["max"],  # type: ignore[arg-type]
        )

    def mean(self) -> float:
        snap = self.snapshot()
        count = snap["count"]
        return (snap["sum"] / count) if count else 0.0  # type: ignore[operator]

    def summary_ms(self) -> Dict[str, float]:
        """``p50``, ``p95``, ``mean`` and ``max`` of a seconds histogram, in ms."""
        return {
            "p50": self.percentile(50) * 1e3,
            "p95": self.percentile(95) * 1e3,
            "mean": self.mean() * 1e3,
            "max": float(self.snapshot()["max"]) * 1e3,
        }

    def reset(self) -> None:
        """Zero counts and envelope — for ``reset_stats()`` surfaces."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Keyed store of instruments; one process-wide instance by default.

    Instruments are identified by ``(name, sorted label pairs)``;
    re-registering the same key returns the existing instrument, so
    every layer can ask for "its" counter without coordination.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelPairs], object] = {}
        self._help: Dict[str, str] = {}

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Counter:
        return self._get_or_create(Counter, name, labels, help)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        return self._get_or_create(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
        bounds: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        key = (name, _freeze_labels(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(name, key[1], bounds)
                self._instruments[key] = instrument
                if help:
                    self._help.setdefault(name, help)
            elif not isinstance(instrument, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def _get_or_create(self, cls, name, labels, help):
        key = (name, _freeze_labels(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1])
                self._instruments[key] = instrument
                if help:
                    self._help.setdefault(name, help)
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._instruments.values())

    def remove(self, name: str, labels: Optional[Mapping[str, str]] = None) -> None:
        """Drop one instrument (sessions unregister their series on close)."""
        key = (name, _freeze_labels(labels))
        with self._lock:
            self._instruments.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._help.clear()

    def expose_text(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        with self._lock:
            items = list(self._instruments.items())
            help_lines = dict(self._help)

        by_name: Dict[str, List[Tuple[LabelPairs, object]]] = {}
        for (name, labels), instrument in items:
            by_name.setdefault(name, []).append((labels, instrument))

        lines: List[str] = []
        for name in sorted(by_name):
            series = by_name[name]
            kind = series[0][1]
            if isinstance(kind, Counter):
                type_name = "counter"
            elif isinstance(kind, Gauge):
                type_name = "gauge"
            else:
                type_name = "histogram"
            if name in help_lines:
                lines.append(f"# HELP {name} {help_lines[name]}")
            lines.append(f"# TYPE {name} {type_name}")
            for labels, instrument in series:
                if isinstance(instrument, (Counter, Gauge)):
                    lines.append(
                        f"{name}{_format_labels(labels)} "
                        f"{_format_value(instrument.value)}"
                    )
                else:
                    assert isinstance(instrument, Histogram)
                    snap = instrument.snapshot()
                    cumulative = 0
                    counts: Iterable[int] = snap["counts"]  # type: ignore[assignment]
                    for bound, count in zip(
                        list(instrument.bounds) + [math.inf], counts
                    ):
                        cumulative += count
                        le = _format_labels(
                            labels, f'le="{_format_value(bound)}"'
                        )
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    suffix = _format_labels(labels)
                    lines.append(
                        f"{name}_sum{suffix} {_format_value(snap['sum'])}"  # type: ignore[arg-type]
                    )
                    lines.append(f"{name}_count{suffix} {snap['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


_global = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry every layer records into by default."""
    return _global
