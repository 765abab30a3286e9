"""Tests for :mod:`repro.obs`: tracing, metrics, profiling, quantiles.

The observability invariants worth pinning down:

* **Disabled means free (and invisible):** with no tracer installed the
  kernel hot path must not even compute its geometry key, and outputs
  must be bit-identical with tracing on, off, and profiled — the obs
  layer watches execution, it never participates in it.
* **Span trees are complete:** a traced request through a session, a
  procpool worker process, or a cascade ladder yields ONE connected tree
  under a single root whose children account for (nearly) all of the
  measured latency.
* **`stats()` stays backward compatible:** the dict keys callers and
  benches consume are now views over the metrics registry, but the
  shapes and monotonicity guarantees (p95 >= p50 > 0) are unchanged.
"""

import io
import json
import threading

import numpy as np
import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    PlanProfiler,
    Tracer,
    chrome_trace_events,
    global_registry,
    histogram_quantile,
    merge_profiles,
    trace_coverage,
)
from repro.obs import runtime as obs_runtime
from repro.models import build_conv_stack
from repro.obs.trace import ATTRS, NAME, PARENT_ID, SPAN_ID, TRACE_ID
from repro.serve import InferenceSession, SessionConfig, create_engine


@pytest.fixture(autouse=True)
def clean_obs_runtime():
    """Every test starts and ends with observability disabled."""
    obs_runtime.uninstall()
    yield
    obs_runtime.uninstall()


# ----------------------------------------------------------------------
# Quantiles
# ----------------------------------------------------------------------
class TestQuantiles:
    def test_histogram_quantile_clamped_to_envelope(self):
        bounds = (1.0, 10.0, 100.0)
        counts = [5, 0, 0, 0]  # everything in the first bucket
        assert histogram_quantile(bounds, counts, 1.0, minimum=0.4, maximum=0.9) == 0.9
        # Every estimate stays inside the observed envelope, monotone in q.
        estimates = [
            histogram_quantile(bounds, counts, q, minimum=0.4, maximum=0.9)
            for q in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(0.4 <= e <= 0.9 for e in estimates)
        assert estimates == sorted(estimates)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_basics(self):
        c = Counter("reqs")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = Gauge("depth")
        g.set(3)
        g.dec()
        assert g.value == 2

    def test_histogram_percentiles_monotone(self):
        h = Histogram("lat", bounds=LATENCY_BUCKETS)
        for v in (0.001, 0.002, 0.004, 0.008, 0.02):
            h.observe(v)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert 0.0 < p50 <= p95 <= p99
        assert p99 <= 0.02  # clamped to the observed max
        assert h.percentile(0) >= 0.001  # never below the observed min
        assert h.mean() == pytest.approx(sum((0.001, 0.002, 0.004, 0.008, 0.02)) / 5)

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"s": "1"})
        assert reg.counter("x", {"s": "1"}) is a
        assert reg.counter("x", {"s": "2"}) is not a
        with pytest.raises(TypeError):
            reg.gauge("x", {"s": "1"})
        reg.remove("x", {"s": "1"})
        assert reg.counter("x", {"s": "1"}) is not a

    def test_registry_thread_safety_exact_totals(self):
        reg = MetricsRegistry()
        threads = 8
        per_thread = 500
        barrier = threading.Barrier(threads)

        def hammer(i):
            barrier.wait()
            c = reg.counter("hits")  # same instrument from every thread
            h = reg.histogram("lat")
            for _ in range(per_thread):
                c.inc()
                h.observe(0.001 * (i + 1))

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert reg.counter("hits").value == threads * per_thread
        snap = reg.histogram("lat").snapshot()
        assert snap["count"] == threads * per_thread
        assert snap["sum"] == pytest.approx(
            sum(0.001 * (i + 1) * per_thread for i in range(threads))
        )

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_reqs_total", {"session": "s1"}, help="Requests.").inc(3)
        reg.gauge("repro_depth").set(2)
        h = reg.histogram("repro_lat_seconds", bounds=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = reg.expose_text()
        assert '# HELP repro_reqs_total Requests.' in text
        assert '# TYPE repro_reqs_total counter' in text
        assert 'repro_reqs_total{session="s1"} 3' in text
        assert 'repro_depth 2' in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'repro_lat_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 2' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert 'repro_lat_seconds_count 2' in text


# ----------------------------------------------------------------------
# Tracer + Chrome export
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_tree_and_coverage(self):
        tracer = Tracer()
        root = tracer.new_trace()
        child = tracer.derive(root)
        tracer.emit(child, root, "work", 1.0, 1.9, {"k": "v"})
        tracer.emit(root, None, "request", 1.0, 2.0)
        coverage = trace_coverage(tracer.snapshot())
        entry = coverage[root.trace_id]
        assert entry["connected"] is True
        assert entry["spans"] == 2
        assert entry["coverage"] == pytest.approx(0.9)

    def test_absorb_merges_foreign_records(self):
        parent, worker = Tracer(), Tracer()
        root = parent.new_trace()
        ctx = worker.derive(root)
        worker.emit(ctx, root, "proc_worker", 0.0, 1.0)
        parent.absorb(worker.drain())
        parent.emit(root, None, "request", 0.0, 1.0)
        assert len(worker) == 0
        coverage = trace_coverage(parent.drain())
        assert coverage[root.trace_id]["connected"] is True

    def test_chrome_events_are_valid_and_epoch_shifted(self):
        tracer = Tracer()
        root = tracer.new_trace()
        tracer.emit_child(root, "inner", 100.5, 100.7, {"strategy": "ragged"})
        tracer.emit(root, None, "request", 100.0, 101.0)
        out = io.StringIO()
        tracer.export_chrome(out)
        doc = json.loads(out.getvalue())
        events = doc["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0.0  # epoch-shifted
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["dur"] == pytest.approx(0.2e6)
        assert inner["args"]["strategy"] == "ragged"
        assert inner["args"]["parent_id"] == root.span_id

    def test_runtime_flag_set_by_install(self):
        assert obs_runtime.enabled is False
        assert obs_runtime.tracer() is None
        tracer = obs_runtime.install(Tracer())
        assert obs_runtime.enabled is True
        assert obs_runtime.tracer() is tracer
        obs_runtime.uninstall()
        assert obs_runtime.enabled is False


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    GEO = (16, 32, 3, 1, 1, 8, 8, "topk", 8, "float32")

    def test_record_merge_and_format(self):
        a, b = PlanProfiler(), PlanProfiler()
        a.record(self.GEO, "ragged", 0.002, 1000)
        b.record(self.GEO, "ragged", 0.001, 500)
        b.record(self.GEO, "dense", 0.004, 2000)
        merged = merge_profiles([a.snapshot(), b.snapshot()])
        by_strategy = {row["strategy"]: row for row in merged}
        assert by_strategy["ragged"]["calls"] == 2
        assert by_strategy["ragged"]["seconds"] == pytest.approx(0.003)
        assert merged[0]["strategy"] == "dense"  # hottest first
        # JSON-ready rows: geometry as a list, derived rates filled in.
        row = by_strategy["ragged"]
        assert row["geometry"] == list(self.GEO)
        assert row["ms_per_call"] == pytest.approx(1.5)
        assert row["mbytes"] == pytest.approx(0.0015)
        assert row["gb_per_s"] == pytest.approx(0.0005)

    def test_kernel_overhead_skipped_when_disabled(self, monkeypatch):
        """The hot path must not compute its geometry key when disabled.

        A deterministic stand-in for a wall-clock overhead bound (which
        would flake on shared CI runners): the obs preamble in
        ``_ConvOp.run`` is the only caller of ``geometry()``, so counting
        calls proves the disabled path skips the whole block.
        """
        from repro.core.sparse_exec import _ConvOp

        calls = {"n": 0}
        original = _ConvOp.geometry

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_ConvOp, "geometry", counting)
        engine = create_engine(build_conv_stack(0.5, width=16, depth=2), "sparse")
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)

        disabled = engine(x)
        assert calls["n"] == 0  # disabled path never computes the key

        obs_runtime.install(Tracer())
        traced = engine(x)
        assert calls["n"] > 0
        obs_runtime.uninstall()

        engine.plan.profiler = PlanProfiler()
        profiled = engine(x)
        engine.plan.profiler = None

        # Observability never changes the numbers.
        np.testing.assert_array_equal(disabled, traced)
        np.testing.assert_array_equal(disabled, profiled)


# ----------------------------------------------------------------------
# Session integration: span trees + stats() views
# ----------------------------------------------------------------------
class TestSessionIntegration:
    def test_session_trace_tree_complete(self):
        tracer = obs_runtime.install(Tracer())
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=2),
            backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=5.0),
        ) as session:
            x = np.random.default_rng(1).normal(size=(3, 16, 16)).astype(np.float32)
            handles = [session.submit(x) for _ in range(4)]
            for h in handles:
                h.result(timeout=20.0)
                assert h.trace_id is not None
        obs_runtime.uninstall()
        records = tracer.drain()
        names = {r[NAME] for r in records}
        assert {"request", "queue_wait", "window_assembly",
                "engine_execute", "kernel"} <= names
        coverage = trace_coverage(records)
        assert len(coverage) == 4
        for entry in coverage.values():
            assert entry["connected"] is True
            assert entry["coverage"] >= 0.95

    def test_stats_backward_compat_view(self):
        with InferenceSession.from_model(
            build_conv_stack(0.5, width=16, depth=2),
            backend="sparse",
            session=SessionConfig(max_batch=4, batch_window_ms=5.0),
        ) as session:
            x = np.random.default_rng(2).normal(size=(3, 16, 16)).astype(np.float32)
            session.infer_many([x[None]] * 5)
            stats = session.stats()
            assert stats["requests"] == 5
            assert stats["samples"] == 5
            assert stats["errors"] == 0
            latency = stats["latency_ms"]
            assert set(latency) == {"p50", "p95", "mean", "max"}
            assert latency["p95"] >= latency["p50"] > 0.0
            assert latency["max"] >= latency["mean"] > 0.0

            text = session.metrics_text()
            assert f'session="{session.name}"' in text
            assert "repro_request_latency_seconds_bucket" in text
            assert "repro_session_requests_total" in text

            session.reset_stats()
            zeroed = session.stats()
            assert zeroed["requests"] == 0
            assert zeroed["latency_ms"]["p50"] == 0.0
        # close() unregisters the per-session series from the global registry.
        assert f'session="{session.name}"' not in global_registry().expose_text()

    def test_procpool_trace_crosses_process_boundary(self):
        engine = create_engine(
            build_conv_stack(0.5, width=16, depth=2),
            backend="procpool",
            proc_workers=1,
            slot_mb=2.0,
        )
        tracer = obs_runtime.install(Tracer())
        try:
            with InferenceSession(
                engine, SessionConfig(max_batch=4, batch_window_ms=5.0)
            ) as session:
                x = np.random.default_rng(3).normal(
                    size=(3, 16, 16)
                ).astype(np.float32)
                handles = [session.submit(x) for _ in range(3)]
                for h in handles:
                    h.result(timeout=30.0)
        finally:
            obs_runtime.uninstall()
            engine.close()
        records = tracer.drain()
        names = {r[NAME] for r in records}
        assert "proc_worker" in names  # emitted in the worker process
        assert "kernel" in names       # shipped back over the pipe
        proc_spans = [r for r in records if r[NAME] == "proc_worker"]
        assert all("pid" in r[ATTRS] for r in proc_spans)
        for entry in trace_coverage(records).values():
            assert entry["connected"] is True
            assert entry["coverage"] >= 0.95


# ----------------------------------------------------------------------
# Cascade integration
# ----------------------------------------------------------------------
class TestCascadeIntegration:
    def test_cascade_trace_single_connected_tree(self):
        from repro.serve import CascadeSession

        stages = [
            InferenceSession.from_model(
                build_conv_stack(ratio, width=16, depth=2, seed=0),
                backend="sparse",
                session=SessionConfig(max_batch=4, batch_window_ms=5.0),
            )
            for ratio in (0.8, 0.2)
        ]
        # No thresholds: every request escalates through the full ladder.
        cascade = CascadeSession(stages)
        tracer = obs_runtime.install(Tracer())
        try:
            x = np.random.default_rng(4).normal(size=(3, 16, 16)).astype(np.float32)
            results = [cascade.submit(x) for _ in range(2)]
            for r in results:
                r.result(timeout=30.0)
                assert r.trace_id is not None
        finally:
            obs_runtime.uninstall()
            cascade.close()
            for stage in stages:
                stage.close()
        records = tracer.drain()
        names = {r[NAME] for r in records}
        assert {"request", "stage0", "stage1", "escalation",
                "engine_execute", "kernel"} <= names
        coverage = trace_coverage(records)
        assert len(coverage) == 2  # one tree per request, not per stage
        for entry in coverage.values():
            assert entry["connected"] is True
            assert entry["coverage"] >= 0.95

    def test_cascade_stats_latency_view(self):
        from repro.serve import CascadeSession

        stages = [
            InferenceSession.from_model(
                build_conv_stack(0.5, width=16, depth=2, seed=0),
                backend="sparse",
                session=SessionConfig(max_batch=4, batch_window_ms=5.0),
            )
        ]
        cascade = CascadeSession(stages)
        try:
            x = np.random.default_rng(5).normal(size=(3, 16, 16)).astype(np.float32)
            for _ in range(3):
                cascade.submit(x).result(timeout=30.0)
            stats = cascade.stats()
            assert stats["requests"] == 3
            latency = stats["latency_ms"]
            assert latency["p95"] >= latency["p50"] > 0.0
            assert f'cascade="{cascade.name}"' in cascade.metrics_text()
        finally:
            cascade.close()
            for stage in stages:
                stage.close()
        assert f'cascade="{cascade.name}"' not in global_registry().expose_text()
