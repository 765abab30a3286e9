"""Process-parallel engine pool with shared-memory tensor transport.

Worker *threads* (:attr:`~repro.serve.SessionConfig.workers`) share the
GIL and BLAS contention, so numpy serving never scales across cores.
:class:`ProcPoolEngine` is the process-based answer: ``N`` worker
*processes*, each of which builds its own ``sparse`` engine — compiling
the :class:`~repro.core.sparse_exec.ExecutionPlan` exactly once at startup,
from the same model — so every process is a bit-identical replica (each
plan is batch-invariant by construction) and which process answered a
request is unobservable in the response.  Unless the user sized the BLAS
thread pools, each worker starts with its share of the cores as its BLAS
thread count, so N workers do not oversubscribe them.

Transport is a preallocated :mod:`multiprocessing.shared_memory` slot
ring, in the same spirit as the kernel layer's
:class:`~repro.core.workspace.WorkspaceArena`: one segment, ``S`` fixed
capacity slots.  A dispatch copies the request tensor into a free slot
and sends a tiny control message (slot index + shape) over the worker's
pipe; the worker maps a zero-copy :class:`numpy.ndarray` view onto the
slot, runs its engine, writes the output back into the same slot, and
replies with the output shape.  No tensor is ever pickled — the pipes
carry only slot metadata — and the slot count bounds in-flight requests,
giving the pool natural backpressure.

Lifecycle is crash-safe by construction: a single collector thread in
the parent waits on every worker pipe *and* every process sentinel, so a
worker that dies (OOM killer, segfault, ``kill -9``) is detected
immediately — its in-flight requests resolve with
:class:`ProcWorkerError` (never a hang), its shared-memory slots return
to the ring, and a replacement process is spawned and attached to the
same segment.

Construction goes through the engine factory::

    engine = create_engine(model, backend="procpool", proc_workers=4)

and the engine drops into :class:`~repro.serve.InferenceSession`
unchanged (it declares ``thread_safe``, so N session threads dispatch to
the pool concurrently).  Dispatches go round-robin over the live
workers.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import connection, get_context
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.engine import EngineProtocol, create_engine
from ..obs import runtime as _obs
from ..obs.trace import TraceContext, Tracer

__all__ = ["ProcPoolEngine", "ProcWorkerError", "ProcPoolClosed"]


class ProcWorkerError(RuntimeError):
    """A request failed inside (or lost) its worker process."""


class ProcPoolClosed(RuntimeError):
    """Dispatch attempted on a closed :class:`ProcPoolEngine`."""


# ----------------------------------------------------------------------
# Worker process side
# ----------------------------------------------------------------------
#: Environment variables that size a BLAS library's thread pool.  A
#: spawned worker reads them once, when its BLAS library loads.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Serializes the environment swap around a worker start: the pool's
#: constructor and its collector's respawns may start workers at once.
_SPAWN_ENV_LOCK = threading.Lock()

#: Shared-memory slots per worker process; the slot count bounds in-flight
#: dispatches (backpressure).
SLOTS_PER_WORKER = 2

#: Total worker respawns before the pool stops replacing dead processes —
#: a guard against a crash-looping model, not a tunable.
RESPAWN_LIMIT = 8

#: Seconds the constructor waits for every worker to compile its plan.
START_TIMEOUT_S = 120.0


def _blas_thread_budget(proc_workers: int) -> Optional[int]:
    """BLAS threads per worker process, or ``None`` if the user chose.

    Unbudgeted, every worker's BLAS starts one thread per core, so N
    workers oversubscribe the cores N times over.  The budget splits the
    cores this process may run on evenly across the workers.  Any of
    :data:`BLAS_THREAD_ENV` already set means the user sized the pools
    and their value is inherited unchanged.
    """
    if any(name in os.environ for name in BLAS_THREAD_ENV):
        return None
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(1, cores // proc_workers)


def _build_worker_engine(spec: Dict[str, Any]) -> EngineProtocol:
    """Compile this process's engine replica from the shared spec.

    The model arrives pickled through the spawn args, so every replica
    compiles the identical plan.
    """
    engine = create_engine(spec["model"], backend="sparse")
    if spec.get("profile"):
        # Opt-in per-op profiling: the worker's plan records per-geometry
        # wall time + bytes moved, reported home via the ("stats",) round
        # trip (SparseEngine.stats() includes the profiler snapshot).
        plan = getattr(engine, "plan", None)
        if plan is not None:
            from ..obs.profile import PlanProfiler

            plan.profiler = PlanProfiler()
    return engine


def _worker_main(
    spec: Dict[str, Any],
    conn: "connection.Connection",
    shm_name: str,
    slot_bytes: int,
) -> None:
    """Worker loop: attach shm, compile once, answer slot-metadata messages."""
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        try:
            engine = _build_worker_engine(spec)
        except BaseException as error:  # noqa: BLE001 - reported to parent
            conn.send(("fail", f"{type(error).__name__}: {error}"))
            return
        conn.send(("ready", engine.describe()))
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            kind = message[0]
            if kind == "shutdown":
                break
            if kind == "reset":
                engine.reset_stats()
                continue
            if kind == "stats":
                stats = dict(engine.stats())
                stats["blas_env"] = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
                conn.send(("stats", stats))
                continue
            # ("req", req_id, slot, shape, dtype[, trace_info]) — the
            # optional sixth element is ``(trace_id, parent_span_id)``
            # when the parent is tracing this request.
            req_id, slot, shape, dtype = message[1:5]
            trace_info = message[5] if len(message) > 5 else None
            spans = None
            try:
                parent_ctx = None
                if trace_info is not None:
                    # First traced request: raise this process's own
                    # tracer.  perf_counter() is CLOCK_MONOTONIC on Linux
                    # (shared across processes), so worker spans line up
                    # under the parent's engine_execute span untranslated.
                    tracer = _obs.tracer()
                    if tracer is None:
                        tracer = _obs.install(Tracer())
                    parent_ctx = TraceContext(trace_info[0], trace_info[1])
                    proc_ctx = tracer.derive(parent_ctx)
                    prev_ctx = _obs.set_current(proc_ctx)
                    proc_start = time.perf_counter()
                view = np.ndarray(
                    shape, dtype=dtype, buffer=shm.buf, offset=slot * slot_bytes
                )
                out = np.ascontiguousarray(engine(view))
                if out.nbytes > slot_bytes:
                    raise ValueError(
                        f"output ({out.nbytes} bytes) exceeds the shm slot "
                        f"capacity ({slot_bytes} bytes)"
                    )
                out_view = np.ndarray(
                    out.shape, dtype=out.dtype, buffer=shm.buf, offset=slot * slot_bytes
                )
                np.copyto(out_view, out)
                if parent_ctx is not None:
                    _obs.reset_current(prev_ctx)
                    tracer.emit(
                        proc_ctx,
                        parent_ctx,
                        "proc_worker",
                        proc_start,
                        time.perf_counter(),
                        {"pid": os.getpid()},
                    )
                    # Span records are plain tuples: they ride the pipe
                    # next to the slot metadata, no extra machinery.
                    spans = tracer.drain()
                if spans is not None:
                    conn.send(("ok", req_id, slot, out.shape, str(out.dtype), spans))
                else:
                    conn.send(("ok", req_id, slot, out.shape, str(out.dtype)))
            except BaseException as error:  # noqa: BLE001 - surfaced per request
                if trace_info is not None:
                    _obs.set_current(None)
                    tracer = _obs.tracer()
                    if tracer is not None:
                        tracer.drain()
                conn.send(("err", req_id, slot, f"{type(error).__name__}: {error}"))
    finally:
        shm.close()
        conn.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _SlotRing:
    """Fixed-capacity shared-memory slots with blocking acquire/release."""

    def __init__(self, slots: int, slot_bytes: int):
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.shm = shared_memory.SharedMemory(create=True, size=slots * slot_bytes)
        self._free: List[int] = list(range(slots))
        self._cond = threading.Condition()

    def acquire(self) -> int:
        with self._cond:
            while not self._free:
                self._cond.wait()
            return self._free.pop()

    def release(self, slot: int) -> None:
        with self._cond:
            self._free.append(slot)
            self._cond.notify()

    def view(self, slot: int, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        return np.ndarray(
            shape, dtype=dtype, buffer=self.shm.buf, offset=slot * self.slot_bytes
        )

    def destroy(self) -> None:
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already collected
            pass


class _Waiter:
    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None

    def resolve(self, value: Optional[np.ndarray], error: Optional[BaseException]) -> None:
        self.value = value
        self.error = error
        self.event.set()


class _WorkerHandle:
    __slots__ = ("index", "gen", "process", "conn", "ready", "dead", "describe",
                 "stats_reply", "stats_event")

    def __init__(self, index: int, gen: int, process: Any, conn: Any):
        self.index = index
        self.gen = gen
        self.process = process
        self.conn = conn
        self.ready = False
        self.dead = False
        self.describe: Optional[str] = None
        self.stats_reply: Optional[Dict[str, Any]] = None
        self.stats_event = threading.Event()


class ProcPoolEngine(EngineProtocol):
    """``N`` bit-identical engine replicas in worker processes.

    Parameters
    ----------
    model:
        Model (or instrumentation handle) every worker compiles.
    proc_workers:
        Worker process count.  Each worker builds a ``sparse`` engine.
    slot_mb:
        Shared-memory slot size: the ring holds
        ``proc_workers *`` :data:`SLOTS_PER_WORKER` slots of ``slot_mb``
        MiB each.  A request or response larger than one slot is rejected
        with ``ValueError``.
    profile:
        Attach a :class:`repro.obs.PlanProfiler` to every worker's plan;
        per-geometry wall-time/bytes rows come home through
        :meth:`process_stats` (merge with
        :func:`repro.obs.merge_profiles`).  Off by default — profiling
        costs a timer pair per conv op.
    """

    backend = "procpool"
    thread_safe = True

    def __init__(
        self,
        model: object,
        proc_workers: int = 2,
        slot_mb: float = 8.0,
        profile: bool = False,
    ):
        if proc_workers < 1:
            raise ValueError("proc_workers must be >= 1")
        self._spec: Dict[str, Any] = {"model": model, "profile": profile}
        self.proc_workers = proc_workers
        self._ctx = get_context("spawn")
        slot_bytes = max(int(slot_mb * (1 << 20)), 1 << 16)
        self._ring = _SlotRing(max(proc_workers * SLOTS_PER_WORKER, 2), slot_bytes)
        self._lock = threading.Lock()
        self._closed = False
        self._collector_stop = False
        self._next_id = 0
        self._rr = 0
        # req_id -> (waiter, worker index, worker generation, slot)
        self._inflight: Dict[int, Tuple[_Waiter, int, int, int]] = {}
        self._dispatches: Dict[str, int] = {}
        self._respawns = 0
        self._errors = 0
        self._wake_r, self._wake_w = os.pipe()
        self._workers: List[_WorkerHandle] = [
            self._spawn(index, gen=0) for index in range(proc_workers)
        ]
        self._collector = threading.Thread(
            target=self._collect_loop, name="procpool-collector", daemon=True
        )
        self._collector.start()
        self._await_ready(START_TIMEOUT_S)

    # -- startup -------------------------------------------------------
    def _spawn(self, index: int, gen: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, child_conn, self._ring.shm.name, self._ring.slot_bytes),
            name=f"procpool-worker-{index}",
            daemon=True,
        )
        # The child inherits the environment at start: budget its BLAS
        # threads there, then restore the parent's environment.
        with _SPAWN_ENV_LOCK:
            budget = _blas_thread_budget(self.proc_workers)
            if budget is not None:
                os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(budget)
            try:
                process.start()
            finally:
                if budget is not None:
                    del os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"]
        child_conn.close()
        return _WorkerHandle(index, gen, process, parent_conn)

    def _await_ready(self, timeout: float) -> None:
        """Block until every worker compiled its plan (or fail fast)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if all(h.ready for h in self._workers):
                    return
                failed = [h for h in self._workers if h.dead]
            if failed:
                self.close()
                raise ProcWorkerError(
                    f"worker process {failed[0].index} failed during startup"
                    + (f": {failed[0].describe}" if failed[0].describe else "")
                )
            if time.monotonic() > deadline:
                self.close()
                raise ProcWorkerError(
                    f"worker processes not ready within {timeout:.0f}s"
                )
            time.sleep(0.01)

    # -- dispatch ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        array = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        if array.nbytes > self._ring.slot_bytes:
            raise ValueError(
                f"request ({array.nbytes} bytes) exceeds the shm slot capacity "
                f"({self._ring.slot_bytes} bytes); raise slot_mb"
            )
        waiter = _Waiter()
        slot = self._ring.acquire()
        registered = False
        try:
            np.copyto(self._ring.view(slot, array.shape, array.dtype), array)
            with self._lock:
                if self._closed:
                    raise ProcPoolClosed("cannot dispatch on a closed ProcPoolEngine")
                handle = self._pick_worker()
                req_id = self._next_id
                self._next_id += 1
                self._inflight[req_id] = (waiter, handle.index, handle.gen, slot)
                registered = True
                key = f"proc-{handle.index}"
                self._dispatches[key] = self._dispatches.get(key, 0) + 1
                # When the dispatching thread carries a trace context (the
                # session installed its engine_execute span), ship it as a
                # plain (trace_id, parent_span_id) pair so the worker can
                # parent its spans under it.
                message: Tuple[Any, ...] = (
                    "req", req_id, slot, array.shape, str(array.dtype)
                )
                if _obs.enabled:
                    ctx = _obs.current()
                    if ctx is not None:
                        message = message + ((ctx.trace_id, ctx.span_id),)
                try:
                    handle.conn.send(message)
                except (BrokenPipeError, OSError):
                    # The worker just died; the collector's sentinel sweep
                    # resolves this waiter (and releases the slot).
                    pass
        except BaseException:
            if not registered:
                self._ring.release(slot)
            raise
        waiter.event.wait()
        if waiter.error is not None:
            raise waiter.error
        assert waiter.value is not None
        return waiter.value

    def _pick_worker(self) -> _WorkerHandle:
        """Route a dispatch round-robin over the live workers."""
        n = len(self._workers)
        start = self._rr % n
        self._rr += 1
        for step in range(n):
            handle = self._workers[(start + step) % n]
            if not handle.dead:
                return handle
        raise ProcWorkerError(
            "no live worker processes (respawn limit exhausted)"
        )

    # -- collector -----------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            with self._lock:
                if self._collector_stop:
                    return
                conns = {h.conn: h for h in self._workers if not h.dead}
                sentinels = {h.process.sentinel: h for h in self._workers if not h.dead}
            waitables: List[Any] = list(conns) + list(sentinels) + [self._wake_r]
            try:
                ready = connection.wait(waitables)
            except OSError:  # pragma: no cover - teardown race
                continue
            for obj in ready:
                if obj == self._wake_r:
                    try:
                        os.read(self._wake_r, 4096)
                    except OSError:  # pragma: no cover - teardown race
                        pass
                    continue
                handle = conns.get(obj)
                if handle is not None:
                    self._drain_conn(handle)
                else:
                    self._handle_death(sentinels[obj])

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        try:
            message = handle.conn.recv()
        except (EOFError, OSError):
            self._handle_death(handle)
            return
        kind = message[0]
        if kind == "ready":
            with self._lock:
                handle.ready = True
                handle.describe = message[1]
            return
        if kind == "fail":
            with self._lock:
                handle.describe = message[1]
            self._handle_death(handle, respawn=False)
            return
        if kind == "stats":
            handle.stats_reply = message[1]
            handle.stats_event.set()
            return
        if kind == "ok":
            req_id, slot, shape, dtype = message[1:5]
            if len(message) > 5 and message[5]:
                # Worker-side span records rode home with the result;
                # absorb them into the parent's trace (if still tracing).
                tracer = _obs.tracer()
                if tracer is not None:
                    tracer.absorb(message[5])
            out = np.array(self._ring.view(slot, shape, dtype))
            self._finish(req_id, slot, out, None)
            return
        if kind == "err":
            _, req_id, slot, detail = message
            self._finish(
                req_id, slot, None,
                ProcWorkerError(f"worker process request failed: {detail}"),
            )

    def _finish(
        self,
        req_id: int,
        slot: int,
        value: Optional[np.ndarray],
        error: Optional[BaseException],
    ) -> None:
        with self._lock:
            entry = self._inflight.pop(req_id, None)
            if error is not None:
                self._errors += 1
        self._ring.release(slot)
        if entry is not None:
            entry[0].resolve(value, error)

    def _handle_death(self, handle: _WorkerHandle, respawn: bool = True) -> None:
        """A worker died: fail its in-flight requests, respawn a replacement."""
        with self._lock:
            if handle.dead:
                return
            handle.dead = True
            swept = [
                (req_id, entry)
                for req_id, entry in self._inflight.items()
                if entry[1] == handle.index and entry[2] == handle.gen
            ]
            for req_id, _ in swept:
                del self._inflight[req_id]
            self._errors += len(swept)
            do_respawn = (
                respawn and not self._closed and self._respawns < RESPAWN_LIMIT
            )
            if do_respawn:
                self._respawns += 1
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        handle.process.join(timeout=5.0)
        for _, (waiter, _, _, slot) in swept:
            self._ring.release(slot)
            waiter.resolve(
                None,
                ProcWorkerError(
                    f"worker process {handle.index} died with the request in flight"
                ),
            )
        if do_respawn:
            replacement = self._spawn(handle.index, gen=handle.gen + 1)
            with self._lock:
                self._workers[handle.index] = replacement

    # -- EngineProtocol surface ---------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "backend": self.backend,
                "proc_workers": self.proc_workers,
                "dispatches": sum(self._dispatches.values()),
                "per_process": dict(self._dispatches),
                "respawns": self._respawns,
                "errors": self._errors,
                "in_flight": len(self._inflight),
                "slots": self._ring.slots,
                "slot_bytes": self._ring.slot_bytes,
                "workers_alive": sum(
                    1 for h in self._workers if not h.dead and h.process.is_alive()
                ),
            }

    def process_stats(self, timeout: float = 5.0) -> Dict[str, Dict[str, Any]]:
        """Fetch each live worker's engine counters over its pipe."""
        with self._lock:
            if self._closed:
                raise ProcPoolClosed("cannot query a closed ProcPoolEngine")
            handles = [h for h in self._workers if not h.dead]
            for handle in handles:
                handle.stats_event.clear()
                try:
                    handle.conn.send(("stats",))
                except (BrokenPipeError, OSError):
                    pass
        replies: Dict[str, Dict[str, Any]] = {}
        deadline = time.monotonic() + timeout
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            if handle.stats_event.wait(remaining) and handle.stats_reply is not None:
                replies[f"proc-{handle.index}"] = handle.stats_reply
        return replies

    def reset_stats(self) -> None:
        with self._lock:
            self._dispatches = {}
            self._errors = 0
            handles = [h for h in self._workers if not h.dead]
            for handle in handles:
                try:
                    handle.conn.send(("reset",))
                except (BrokenPipeError, OSError):
                    pass

    def describe(self) -> str:
        ring = self._ring
        return (
            f"ProcPoolEngine({self.proc_workers} processes x "
            f"sparse, {ring.slots} shm slots x "
            f"{ring.slot_bytes >> 20}MiB)"
        )

    # -- lifecycle -----------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Shut the pool down: drain, stop workers, free shared memory."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers)
            for handle in handles:
                if not handle.dead:
                    try:
                        handle.conn.send(("shutdown",))
                    except (BrokenPipeError, OSError):
                        pass
        # Let the collector answer whatever is still in flight (the
        # shutdown message queues *behind* pending requests in each pipe).
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.005)
        with self._lock:
            self._collector_stop = True
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        os.write(self._wake_w, b"x")
        self._collector.join(timeout=5.0)
        for waiter, _, _, slot in leftovers:
            self._ring.release(slot)
            waiter.resolve(None, ProcPoolClosed("ProcPoolEngine closed mid-request"))
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(timeout=remaining if remaining else 0.1)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        os.close(self._wake_r)
        os.close(self._wake_w)
        self._ring.destroy()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ProcPoolEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
