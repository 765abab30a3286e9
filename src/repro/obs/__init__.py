"""``repro.obs``: zero-dependency observability for the serving stack.

Three pillars, one spine:

* :mod:`~repro.obs.trace` — per-request spans (``queue_wait``,
  ``window_assembly``, ``engine_execute``, per-conv ``kernel``,
  ``escalation``) collected by a process-wide :class:`Tracer`,
  propagated across threads, the procpool pipe, and cascade stage hops;
  exported as Chrome trace-event JSON.
* :mod:`~repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and fixed-bucket streaming histograms with Prometheus text
  exposition; every ``stats()`` surface is now a view over it.
* :mod:`~repro.obs.profile` — the opt-in per-op :class:`PlanProfiler`
  (wall time + bytes moved per geometry) behind the per-layer table of
  ``perfbench/run.py --trace 1``.

:mod:`~repro.obs.runtime` holds the single module-level ``enabled``
flag; with no tracer installed every hot-path hook is one attribute
read, and no execution path ever changes — observability watches the
numbers, it never touches them.
"""

from . import runtime
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    global_registry,
)
from .profile import PlanProfiler, merge_profiles
from .quantiles import histogram_quantile
from .trace import (
    SpanRecord,
    TraceContext,
    Tracer,
    chrome_trace_events,
    trace_coverage,
)

__all__ = [
    "runtime",
    "Tracer",
    "TraceContext",
    "SpanRecord",
    "chrome_trace_events",
    "trace_coverage",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "global_registry",
    "PlanProfiler",
    "merge_profiles",
    "histogram_quantile",
]
