"""One stable inference API: a session with a micro-batching scheduler.

:class:`InferenceSession` is the serving layer's unit of deployment: it
owns an engine (any :class:`~repro.core.engine.EngineProtocol` backend), a
bounded request queue, and N worker threads that **micro-batch** waiting
requests before each engine call.  Fusing concurrent callers' requests is
what lets the engine's kept-count grouping amortize *across callers* —
one weight gather and GEMM per kept-count group per window instead of per
request.

Scheduling model (three knobs):

* ``max_batch`` — the batch window: at most this many samples are fused
  into one engine call.  Windows fill in arrival order; a request that
  would overflow one seeds the same worker's next window.
* ``batch_window_ms`` — how long the collector waits for stragglers after
  the first request of a window arrives.  Under load the window fills
  instantly and the timeout never triggers; at low traffic a lone request
  pays at most this much extra latency.
* ``workers`` — how many worker threads pull windows off the shared
  queue.  Plan-backed engines are thread-safe (read-only fused weights,
  per-thread workspace arenas — see
  :attr:`~repro.core.engine.EngineProtocol.thread_safe`), so N workers
  run the engine concurrently; they scale with cores when BLAS runs one
  thread (``OPENBLAS_NUM_THREADS=1``).  An engine that does not declare
  thread safety is transparently serialized behind a lock.  Which worker
  executes a window is invisible in the responses — the
  batch-invariance contract below covers it.

Correctness contract: on a plan-backed engine (``sparse``, ``auto``,
``procpool``) the response to a request is **bit-identical** no matter
which other requests shared its window, because every compiled op is
batch-invariant by construction.  Batch composition is an invisible
scheduling detail, exactly as a serving API must guarantee.  Two
exceptions: the ``dense`` backend, whose GEMMs are flat BLAS calls, and
``granularity="batch"`` pruning sites, whose mask is the window's union.

Telemetry: every session registers its counters and a streaming latency
histogram in the process-wide :func:`repro.obs.global_registry` (series
labeled ``session="session-N"``); :meth:`InferenceSession.stats` is a
backward-compatible view over those instruments (p50/p95 are streaming
histogram estimates — no sample list is kept), and
:meth:`InferenceSession.metrics_text` exposes the whole registry in
Prometheus text format.  :meth:`~InferenceSession.reset_stats` zeroes
counters but keeps warmed state (compiled plan, workspace arenas).
When a :class:`repro.obs.Tracer` is installed, every submitted request
carries a trace context and the scheduler emits ``request`` /
``queue_wait`` / ``window_assembly`` / ``engine_execute`` spans around
the engine's own ``kernel`` spans.
"""

from __future__ import annotations

import dataclasses
import itertools
import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import EngineProtocol, create_engine
from ..obs import runtime as _obs
from ..obs.metrics import global_registry

__all__ = ["SessionConfig", "InferenceSession", "PendingResult", "SessionClosed"]

#: Distinguishes each session's metric series in the process registry.
_SESSION_SEQ = itertools.count(1)


class SessionClosed(RuntimeError):
    """Submit after close, or result collection from a closed session."""


@dataclasses.dataclass
class SessionConfig:
    """Scheduler knobs for :class:`InferenceSession`.

    Attributes
    ----------
    max_batch:
        Batch window — maximum samples fused into one engine call.
    batch_window_ms:
        How long the collector waits for more requests once a window has
        opened.  ``0`` batches only what is already queued.
    queue_depth:
        Bound on queued (not yet scheduled) requests; :meth:`submit`
        blocks (or raises, with ``block=False``) when full, providing
        backpressure instead of unbounded memory growth.
    workers:
        Worker threads pulling windows off the shared queue.  ``1``
        preserves the strictly-serial scheduler; ``N > 1`` needs (or
        serializes around) a thread-safe engine.
    bucket_requests:
        Accepted and ignored, so configurations that still name it (the
        perfbench adaptive workload) keep loading.  Windows fill in
        arrival order whatever its value: the channel kernel groups each
        window's samples by their own kept counts.
    """

    max_batch: int = 8
    batch_window_ms: float = 2.0
    queue_depth: int = 256
    workers: int = 1
    bucket_requests: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


class PendingResult:
    """Future-like handle for one submitted request."""

    __slots__ = (
        "_event",
        "_value",
        "_error",
        "_cb_lock",
        "_callbacks",
        "submitted_at",
        "latency",
        "trace_id",
    )

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._cb_lock = threading.Lock()
        self._callbacks: List[Callable[["PendingResult"], None]] = []
        self.submitted_at = time.perf_counter()
        self.latency: Optional[float] = None
        #: Trace id when a tracer was installed at submit time, else None.
        self.trace_id: Optional[str] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the scheduler answers; raises the engine's error."""
        if not self._event.wait(timeout):
            raise TimeoutError("inference request did not complete in time")
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def add_done_callback(self, fn: Callable[["PendingResult"], None]) -> None:
        """Run ``fn(self)`` when the result resolves.

        Registered before resolution, the callback fires on the worker
        thread that resolves the request (so it must not block on the
        session's own queue — hand off instead, as the cascade router
        does); registered after, it fires immediately on the calling
        thread.  Callback exceptions propagate to the resolving thread —
        callers own their callbacks' safety.
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    # internal -----------------------------------------------------------
    def _resolve(self, value: Optional[np.ndarray], error: Optional[BaseException]) -> None:
        self.latency = time.perf_counter() - self.submitted_at
        self._value = value
        self._error = error
        with self._cb_lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Request:
    __slots__ = ("array", "pending", "ctx", "root")

    def __init__(
        self,
        array: np.ndarray,
        pending: PendingResult,
        ctx: Any = None,
        root: bool = False,
    ):
        self.array = array
        self.pending = pending
        #: Trace context for this request's spans (None when untraced).
        self.ctx = ctx
        #: True when this session owns the trace's root ``request`` span
        #: (False for cascade stage submits — the cascade emits the root).
        self.root = root


_SHUTDOWN = object()


class InferenceSession:
    """Micro-batched inference over one engine.

    Two entry points:

    * :meth:`submit` / :meth:`infer` — the serving path.  Requests enter
      the bounded queue; the worker fuses up to ``max_batch`` samples per
      engine call and resolves each request's :class:`PendingResult`.
    * :meth:`predict` — the synchronous path for offline callers
      (benchmarks, tests): one engine call on the calling thread, same
      telemetry, no queue hop.

    Sessions are context managers; :meth:`close` drains nothing — pending
    requests submitted before close are still answered, later submits
    raise :class:`SessionClosed`.
    """

    def __init__(
        self,
        engine: EngineProtocol,
        config: Optional[SessionConfig] = None,
    ):
        self.engine = engine
        self.config = config or SessionConfig()
        # Sessions built via from_model()/from_registry() own the engine
        # they constructed and close it (if closeable — e.g. a procpool's
        # worker processes and shared memory) when the session closes.
        # A caller-provided engine stays the caller's to manage.
        self._owns_engine = False
        # (registry, pin-token) when from_registry() pinned the served
        # artifact against gc; released on close().
        self._pin: Optional[Tuple[Any, str]] = None
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=self.config.queue_depth)
        self._closed = False
        self._lock = threading.Lock()
        # Serializes the closed-check-then-enqueue in submit() against
        # close(), so no request can slip into the queue after the
        # shutdown sentinels (it would never be answered).
        self._submit_lock = threading.Lock()
        # Engines that declare thread_safe (the plan-backed ones: read-only
        # fused weights, per-thread arenas) run
        # concurrently across workers and predict() callers.  Everything
        # else is serialized behind this lock.
        self._engine_lock: Optional[threading.Lock] = (
            None if getattr(engine, "thread_safe", False) else threading.Lock()
        )
        # Telemetry lives in the process-wide metrics registry, one series
        # per session.  The streaming latency histogram replaces the old
        # trimmed ``_latencies`` list — constant memory, and stats() reads
        # a locked snapshot instead of racing worker appends.
        self.name = f"session-{next(_SESSION_SEQ)}"
        labels = {"session": self.name}
        registry = global_registry()
        self._metric_labels = labels
        self._c_requests = registry.counter(
            "repro_session_requests_total", labels, help="Requests answered"
        )
        self._c_samples = registry.counter(
            "repro_session_samples_total", labels, help="Samples answered"
        )
        self._c_batches = registry.counter(
            "repro_session_batches_total", labels,
            help="Fused engine windows executed",
        )
        self._c_batched_samples = registry.counter(
            "repro_session_batched_samples_total", labels,
            help="Samples that went through fused windows",
        )
        self._c_errors = registry.counter(
            "repro_session_errors_total", labels,
            help="Requests resolved with an error",
        )
        self._g_queue = registry.gauge(
            "repro_session_queue_depth", labels,
            help="Requests waiting in the admission queue",
        )
        self._h_latency = registry.histogram(
            "repro_request_latency_seconds", labels,
            help="Submit-to-resolve request latency",
        )
        self._worker_batches: Dict[str, int] = {}
        self._workers = [
            threading.Thread(
                target=self._run,
                name=f"repro-inference-worker-{i}",
                args=(f"worker-{i}",),
                daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model: object,
        backend: str = "auto",
        session: Optional[SessionConfig] = None,
        **engine_kwargs: Any,
    ) -> "InferenceSession":
        """Compile ``model`` into an engine and wrap it in a session."""
        engine = create_engine(model, backend=backend, **engine_kwargs)
        built = cls(engine, session)
        built._owns_engine = True
        return built

    @classmethod
    def from_registry(
        cls,
        registry: "Any",
        ref: str,
        backend: str = "auto",
        session: Optional[SessionConfig] = None,
        **engine_kwargs: Any,
    ) -> "InferenceSession":
        """Load ``name`` or ``name@vN`` from a ModelRegistry and serve it.

        The served version is **pinned** against ``registry gc`` for the
        session's lifetime (released on :meth:`close`), so automated
        retention can never collect a version with live traffic.
        """
        from .registry import parse_ref

        name, version = parse_ref(ref)
        artifact = registry.load(name, version)
        model = artifact.handle if artifact.handle is not None else artifact.model
        engine = create_engine(model, backend=backend, **engine_kwargs)
        built = cls(engine, session)
        built._owns_engine = True
        pin = getattr(registry, "pin", None)
        if callable(pin):
            built._pin = (registry, pin(name, artifact.version))
        return built

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------
    def submit(
        self,
        x: np.ndarray,
        block: bool = True,
        timeout: Optional[float] = None,
        trace_ctx: Any = None,
    ) -> PendingResult:
        """Enqueue one request (``(C, H, W)`` or ``(N, C, H, W)``).

        Returns a :class:`PendingResult`; the queue bound provides
        backpressure — with ``block=False`` a full queue raises
        ``queue.Full`` immediately.

        With a tracer installed, each request starts its own trace (the
        session emits the root ``request`` span).  A caller that already
        owns the trace — the cascade submitting to a stage — passes its
        span as ``trace_ctx`` and the session parents its scheduler spans
        there instead of opening a new root.
        """
        array = self._normalize(x)
        if array.shape[0] > self.config.max_batch:
            # The batch window is a hard bound on samples per engine call;
            # oversized requests belong on the synchronous predict() path.
            raise ValueError(
                f"request carries {array.shape[0]} samples but the batch window "
                f"is {self.config.max_batch}; split it or use predict()"
            )
        pending = PendingResult()
        ctx, root = None, False
        if _obs.enabled:
            tracer = _obs.tracer()
            if tracer is not None:
                if trace_ctx is not None:
                    ctx = trace_ctx
                else:
                    ctx, root = tracer.new_trace(), True
                pending.trace_id = ctx.trace_id
        # Holding the lock across the put keeps the check atomic with the
        # enqueue; close() takes the same lock before sending its
        # sentinel, so nothing enqueues behind it.  A put blocked on a
        # full queue holds the lock, but the worker is guaranteed alive
        # (it only exits after the sentinel this lock still gates).
        with self._submit_lock:
            if self._closed:
                raise SessionClosed("cannot submit to a closed InferenceSession")
            self._queue.put(
                _Request(array, pending, ctx, root), block=block, timeout=timeout
            )
        return pending

    @staticmethod
    def _normalize(x: np.ndarray) -> np.ndarray:
        """Shared input contract for submit() and predict()."""
        array = np.asarray(x, dtype=np.float32)
        if array.ndim == 3:
            array = array[None]
        if array.ndim != 4:
            raise ValueError(f"expected (C,H,W) or (N,C,H,W) input, got shape {array.shape}")
        if array.shape[0] < 1:
            raise ValueError("cannot submit an empty request")
        return array

    def infer(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Submit one request and block for its output."""
        return self.submit(x).result(timeout)

    def infer_many(
        self, inputs: Sequence[np.ndarray], timeout: Optional[float] = None
    ) -> List[np.ndarray]:
        """Submit a burst of requests, then gather results in order.

        Submitting everything before collecting is what lets the scheduler
        fill its windows — this is the serving-throughput call.
        """
        pendings = [self.submit(x) for x in inputs]
        return [p.result(timeout) for p in pendings]

    # ------------------------------------------------------------------
    # Synchronous path
    # ------------------------------------------------------------------
    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Run one batch directly on the calling thread (no queue hop).

        Offline callers (benchmark sweeps, equivalence tests) get engine
        access through the same session object — request/sample counts and
        latency are recorded, but not the window stats (``batches``,
        ``occupancy`` describe only what the scheduler fused).
        """
        if self._closed:
            raise SessionClosed("cannot predict on a closed InferenceSession")
        array = self._normalize(batch)
        start = time.perf_counter()
        out = self._run_engine(array)
        elapsed = time.perf_counter() - start
        self._c_requests.inc()
        self._c_samples.inc(array.shape[0])
        self._h_latency.observe(elapsed)
        return out

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _run_engine(self, fused: np.ndarray) -> np.ndarray:
        """One engine call, serialized only for non-thread-safe engines."""
        if self._engine_lock is None:
            return self.engine(fused)
        with self._engine_lock:
            return self.engine(fused)

    def _collect(
        self, first: _Request
    ) -> Tuple[List[_Request], Optional[_Request], bool]:
        """Gather up to ``max_batch`` samples into one window, in arrival order.

        Returns ``(batch, carry, saw_shutdown)``.  A request that would
        overflow the window is returned as ``carry`` and seeds the calling
        worker's next window; collection stops there, so the rest of the
        queue stays shared with sibling workers.  Collection state is all
        worker-local — N workers collect from the shared queue
        concurrently.
        """
        batch = [first]
        size = first.array.shape[0]
        deadline = time.perf_counter() + self.config.batch_window_ms / 1e3
        while size < self.config.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining > 0:
                    item = self._queue.get(timeout=remaining)
                else:
                    item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                # A shutdown sentinel surfaced mid-window: this worker
                # takes it as its own exit ticket.  close() posts exactly
                # one sentinel per worker, so the accounting only works if
                # a worker never consumes a second one — _run guarantees
                # that by never touching the queue again once shutdown is
                # seen.
                return batch, None, True
            request = item  # type: ignore[assignment]
            if size + request.array.shape[0] > self.config.max_batch:
                return batch, request, False
            batch.append(request)
            size += request.array.shape[0]
        return batch, None, False

    def _trace_window(
        self,
        batch: List[_Request],
        worker: str,
        window_open: float,
        exec_start: float,
        done: float,
        error: Optional[BaseException],
        primary: Optional[_Request] = None,
        exec_ctx: Any = None,
    ) -> None:
        """Emit the window's scheduler spans (tracer installed, pre-resolve).

        Every traced request gets its own ``queue_wait`` /
        ``window_assembly`` / ``engine_execute`` children (so each trace
        stands alone and covers its full latency); the per-conv ``kernel``
        spans recorded inside the engine parent under the window
        *primary*'s ``engine_execute`` context, which the worker installed
        as the thread-current context during the engine call.  Requests
        that opened their own trace close it here with a root ``request``
        span running submit → resolve.
        """
        tracer = _obs.tracer()
        if tracer is None:
            return
        window_attrs = {
            "worker": worker,
            "requests": len(batch),
            "samples": sum(r.array.shape[0] for r in batch),
        }
        for request in batch:
            ctx = request.ctx
            if ctx is None:
                continue
            tracer.emit_child(
                ctx, "queue_wait", request.pending.submitted_at, window_open
            )
            tracer.emit_child(ctx, "window_assembly", window_open, exec_start, window_attrs)
            if request is primary and exec_ctx is not None:
                # The primary's engine span id was pre-derived before the
                # engine call so kernel spans could parent under it.
                tracer.emit(exec_ctx, ctx, "engine_execute", exec_start, done, window_attrs)
            else:
                tracer.emit_child(ctx, "engine_execute", exec_start, done, window_attrs)
            if request.root:
                root_attrs: Dict[str, Any] = {"session": self.name}
                if error is not None:
                    root_attrs["error"] = str(error)
                tracer.emit(
                    ctx, None, "request", request.pending.submitted_at, done, root_attrs
                )

    def _execute(self, batch: List[_Request], worker: str, window_open: float = 0.0) -> None:
        sizes = [r.array.shape[0] for r in batch]
        # The window primary's engine_execute context becomes the thread's
        # current trace context for the engine call, so kernel spans nest
        # under it.  Pre-derived before the call: children must know their
        # parent id even though the engine_execute span is emitted after.
        traced = _obs.enabled and any(r.ctx is not None for r in batch)
        exec_ctx = prev_ctx = primary = None
        exec_start = 0.0
        if traced:
            tracer = _obs.tracer()
            primary = next(r for r in batch if r.ctx is not None)
            if tracer is not None:
                exec_ctx = tracer.derive(primary.ctx)
            prev_ctx = _obs.set_current(exec_ctx)
            exec_start = time.perf_counter()
        try:
            # Fusing inside the try keeps the worker alive when a window
            # mixes incompatible shapes (e.g. different resolutions): the
            # concatenate error resolves those requests instead of killing
            # the loop.
            fused = batch[0].array if len(batch) == 1 else np.concatenate(
                [r.array for r in batch], axis=0
            )
            out = self._run_engine(fused)
        except BaseException as error:  # noqa: BLE001 - surfaced per request
            if traced:
                _obs.reset_current(prev_ctx)
                self._trace_window(
                    batch, worker, window_open, exec_start, time.perf_counter(),
                    error, primary, exec_ctx,
                )
            self._c_errors.inc(len(batch))
            for request in batch:
                request.pending._resolve(None, error)
            return
        # Telemetry is committed BEFORE the results resolve: callers poll
        # stats() the moment their last result() unblocks, and the final
        # window must already be counted by then.
        done = time.perf_counter()
        if traced:
            _obs.reset_current(prev_ctx)
            self._trace_window(
                batch, worker, window_open, exec_start, done, None, primary, exec_ctx
            )
        self._c_requests.inc(len(batch))
        self._c_samples.inc(sum(sizes))
        self._c_batches.inc()
        self._c_batched_samples.inc(sum(sizes))
        for request in batch:
            self._h_latency.observe(done - request.pending.submitted_at)
        with self._lock:
            self._worker_batches[worker] = self._worker_batches.get(worker, 0) + 1
        if len(batch) == 1:
            # Sole request in the window: the engine output is exactly its
            # result, no fused buffer to pin — hand it over as-is.
            batch[0].pending._resolve(out, None)
            return
        # Each result must own its memory: a view into the fused output
        # would pin the whole window's array (every caller's logits plus
        # the base buffer) for as long as any one caller keeps its result.
        offset = 0
        for request, size in zip(batch, sizes):
            request.pending._resolve(out[offset : offset + size].copy(), None)
            offset += size

    def _run(self, worker: str) -> None:
        carry: Optional[_Request] = None
        while True:
            if carry is not None:
                first, carry = carry, None
            else:
                item = self._queue.get()
                if item is _SHUTDOWN:
                    break
                first = item  # type: ignore[assignment]
            # The window opens the moment its seed request is in hand;
            # queue_wait spans end here, window_assembly spans start here.
            window_open = time.perf_counter() if _obs.enabled else 0.0
            batch, carry, shutdown = self._collect(first)
            self._execute(batch, worker, window_open)
            if shutdown:
                # Holding the exit ticket, with nothing carried (_collect
                # stops at the sentinel): collecting again could swallow
                # a sibling's sentinel.
                break

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Session telemetry snapshot — a view over the metrics registry.

        ``occupancy`` is mean samples-per-window over ``max_batch`` — how
        full the scheduler runs its windows (1.0 = every engine call fully
        fused).  ``latency_ms`` quantiles are streaming estimates from the
        session's fixed-bucket latency histogram (mean and max are exact);
        no per-request sample list exists anymore, so the old
        snapshot-vs-append race is gone by construction.  With multiple
        workers the counters are the merged totals; ``per_worker`` breaks
        window counts down by worker thread (it sums to ``batches``).
        """
        batches = int(self._c_batches.value)
        batched_samples = int(self._c_batched_samples.value)
        with self._lock:
            per_worker = dict(self._worker_batches)
        self._g_queue.set(self._queue.qsize())
        stats: Dict[str, Any] = {
            "requests": int(self._c_requests.value),
            "samples": int(self._c_samples.value),
            "batches": batches,
            "errors": int(self._c_errors.value),
            "max_batch": self.config.max_batch,
            "workers": self.config.workers,
            "per_worker": per_worker,
            "mean_batch": (batched_samples / batches) if batches else 0.0,
            "occupancy": (
                batched_samples / (batches * self.config.max_batch)
                if batches
                else 0.0
            ),
        }
        stats["latency_ms"] = self._h_latency.summary_ms()
        stats["engine"] = self.engine.stats()
        return stats

    def metrics_text(self) -> str:
        """Prometheus text exposition of the process-wide metrics registry.

        Includes this session's series plus any others registered in the
        process (other sessions, cascade stages) — exactly what a
        ``/metrics`` endpoint or ``repro serve --metrics-file`` should
        publish.
        """
        self._g_queue.set(self._queue.qsize())
        return global_registry().expose_text()

    def reset_stats(self) -> None:
        """Zero telemetry and engine counters; keep warmed plans and workspaces."""
        for instrument in (
            self._c_requests,
            self._c_samples,
            self._c_batches,
            self._c_batched_samples,
            self._c_errors,
            self._g_queue,
            self._h_latency,
        ):
            instrument.reset()
        with self._lock:
            self._worker_batches = {}
        self.engine.reset_stats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: Optional[float] = None) -> None:
        """Stop accepting requests and join every worker.

        Requests already queued are answered before the workers exit; one
        shutdown sentinel is posted per worker.  ``timeout`` bounds the
        *whole* close, not each join — the workers share one deadline —
        and workers still running when it expires are surfaced as a
        ``TimeoutError`` naming them instead of being silently abandoned.
        """
        with self._submit_lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        deadline = None if timeout is None else time.monotonic() + timeout
        stragglers: List[str] = []
        for worker in self._workers:
            if deadline is None:
                worker.join()
            else:
                worker.join(max(0.0, deadline - time.monotonic()))
            if worker.is_alive():
                stragglers.append(worker.name)
        if stragglers:
            raise TimeoutError(
                f"InferenceSession.close: {len(stragglers)} worker(s) still "
                f"running after {timeout}s: {', '.join(stragglers)}"
            )
        if self._owns_engine:
            engine_close = getattr(self.engine, "close", None)
            if callable(engine_close):
                engine_close()
        if self._pin is not None:
            registry, token = self._pin
            self._pin = None
            registry.unpin(token)
        # Retire this session's metric series so long-lived processes that
        # churn sessions don't accumulate dead label sets in the registry.
        metrics = global_registry()
        for metric_name in (
            "repro_session_requests_total",
            "repro_session_samples_total",
            "repro_session_batches_total",
            "repro_session_batched_samples_total",
            "repro_session_errors_total",
            "repro_session_queue_depth",
            "repro_request_latency_seconds",
        ):
            metrics.remove(metric_name, self._metric_labels)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
