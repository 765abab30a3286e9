"""Tests for :class:`~repro.serve.ProcPoolEngine`.

The pool's load-bearing contract mirrors the session's: which *process*
answered a request must be unobservable in the response.  Every replica
compiles the same plan with ``batch_invariant=True`` forced, so the pool
output is byte-for-byte the local engine's output — and that has to
survive a worker being killed and respawned mid-stream.

Worker processes spawn (not fork), so each module-scoped pool costs
real wall-clock; tests share one pool wherever the scenario allows.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.sparse_exec import PlanConfig
from repro.models import build_conv_stack
from repro.nn import AvgPool2d, Sequential
from repro.serve.procpool import BLAS_THREAD_ENV
from repro.serve import (
    InferenceSession,
    ProcPoolClosed,
    ProcPoolEngine,
    ProcWorkerError,
    SessionConfig,
    create_engine,
)


def make_requests(count, image_size=16, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(1, 3, image_size, image_size)).astype(np.float32)
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def stack_model():
    return build_conv_stack(0.5, width=16, depth=3)


@pytest.fixture(scope="module")
def local_engine(stack_model):
    return create_engine(
        stack_model, "sparse", config=PlanConfig(batch_invariant=True)
    )


@pytest.fixture(scope="module")
def pool(stack_model):
    engine = create_engine(
        stack_model, backend="procpool", proc_workers=2, slot_mb=2.0
    )
    yield engine
    engine.close()


class TestProcPoolBasics:
    def test_factory_builds_pool(self, pool):
        assert isinstance(pool, ProcPoolEngine)
        assert pool.backend == "procpool"
        assert pool.thread_safe
        assert "2 processes" in pool.describe()

    def test_batch_invariant_forced(self, stack_model):
        engine = create_engine(
            stack_model,
            backend="procpool",
            proc_workers=1,
            config=PlanConfig(batch_invariant=False),
        )
        try:
            assert engine.plan_config.batch_invariant is True
        finally:
            engine.close()

    def test_bit_identical_to_local_engine(self, pool, local_engine):
        for x in make_requests(6, seed=1):
            np.testing.assert_array_equal(pool(x), local_engine(x))

    def test_batched_dispatch_bit_identical(self, pool, local_engine):
        fused = np.concatenate(make_requests(4, seed=2), axis=0)
        np.testing.assert_array_equal(pool(fused), local_engine(fused))

    def test_dispatches_spread_across_processes(self, pool):
        pool.reset_stats()
        for x in make_requests(4, seed=3):
            pool(x)
        stats = pool.stats()
        assert stats["dispatches"] == 4
        # Round-robin over two live workers: both must have seen traffic.
        assert set(stats["per_process"]) == {"proc-0", "proc-1"}
        assert stats["in_flight"] == 0
        assert stats["workers_alive"] == 2

    def test_process_stats_reach_the_workers(self, pool):
        pool.reset_stats()
        for x in make_requests(2, seed=5):
            pool(x)
        replies = pool.process_stats()
        assert set(replies) <= {"proc-0", "proc-1"}
        assert replies  # at least one worker answered

    def test_oversized_request_rejected(self, pool):
        huge = np.zeros((1, 3, 512, 512), dtype=np.float32)  # 3MB > 2MB slot
        with pytest.raises(ValueError, match="slot capacity"):
            pool(huge)
        assert pool.stats()["in_flight"] == 0  # slot returned to the ring


class TestProcPoolSession:
    def test_session_serving_is_bit_identical(self, pool, local_engine):
        requests = make_requests(8, seed=6)
        expected = [local_engine(x) for x in requests]
        with InferenceSession(
            pool,
            SessionConfig(max_batch=4, batch_window_ms=20.0, workers=2),
        ) as session:
            outputs = session.infer_many(requests)
        for got, want in zip(outputs, expected):
            np.testing.assert_array_equal(got, want)


class TestBlasThreadBudget:
    """Workers split the cores' BLAS threads unless the user sized them."""

    def _worker_blas_env(self, stack_model):
        engine = create_engine(
            stack_model, backend="procpool", proc_workers=2, slot_mb=2.0
        )
        try:
            replies = engine.process_stats(timeout=30.0)
        finally:
            engine.close()
        assert set(replies) == {"proc-0", "proc-1"}
        return [reply["blas_env"] for reply in replies.values()]

    def test_each_worker_gets_its_share_of_the_cores(self, stack_model, monkeypatch):
        for name in BLAS_THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        budget = str(max(1, cores // 2))
        for blas_env in self._worker_blas_env(stack_model):
            assert blas_env == {
                "OPENBLAS_NUM_THREADS": budget,
                "OMP_NUM_THREADS": budget,
                "MKL_NUM_THREADS": None,
            }
        # The parent's own environment is restored after the starts.
        assert not any(name in os.environ for name in BLAS_THREAD_ENV)

    def test_user_setting_wins(self, stack_model, monkeypatch):
        for name in BLAS_THREAD_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        for blas_env in self._worker_blas_env(stack_model):
            assert blas_env == {
                "OPENBLAS_NUM_THREADS": None,
                "OMP_NUM_THREADS": "3",
                "MKL_NUM_THREADS": None,
            }


class TestProcPoolLifecycle:
    def test_killed_worker_respawns_without_losing_requests(self, stack_model):
        """A SIGKILLed worker never hangs a caller, and the pool recovers.

        The in-flight request either already completed (its response beat
        the kill) or resolves with :class:`ProcWorkerError` — what it must
        never do is hang.  Afterwards the pool respawns a replacement and
        keeps serving bit-identically.
        """
        engine = create_engine(
            stack_model, backend="procpool", proc_workers=2, slot_mb=2.0
        )
        oracle = create_engine(
            stack_model, "sparse", config=PlanConfig(batch_invariant=True)
        )
        try:
            x = make_requests(1, seed=8)[0]
            np.testing.assert_array_equal(engine(x), oracle(x))

            victim = engine._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)

            deadline = time.monotonic() + 30.0
            while engine.stats()["respawns"] < 1:
                assert time.monotonic() < deadline, "worker was never respawned"
                time.sleep(0.02)
            while engine.stats()["workers_alive"] < 2:
                assert time.monotonic() < deadline, "replacement never came up"
                time.sleep(0.02)

            # Two consecutive round-robin dispatches reach BOTH workers,
            # the replacement included, and answer bit-identically.
            engine.reset_stats()
            for _ in range(2):
                np.testing.assert_array_equal(engine(x), oracle(x))
            stats = engine.stats()
            assert stats["per_process"] == {"proc-0": 1, "proc-1": 1}
            assert stats["respawns"] == 1
            assert stats["workers_alive"] == 2
        finally:
            engine.close()

    def test_kill_with_request_in_flight_resolves_not_hangs(self, stack_model):
        engine = create_engine(
            stack_model, backend="procpool", proc_workers=1, slot_mb=2.0
        )
        oracle = create_engine(
            stack_model, "sparse", config=PlanConfig(batch_invariant=True)
        )
        try:
            import threading

            x = make_requests(1, image_size=32, seed=9)[0]
            results = []

            def call():
                try:
                    results.append(("ok", engine(x)))
                except ProcWorkerError as error:
                    results.append(("err", error))

            thread = threading.Thread(target=call)
            thread.start()
            time.sleep(0.02)  # let the dispatch reach the worker
            os.kill(engine._workers[0].process.pid, signal.SIGKILL)
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "caller hung after worker death"
            (kind, payload), = results
            if kind == "ok":  # response raced ahead of the kill — fine
                np.testing.assert_array_equal(payload, oracle(x))
            else:
                assert "died" in str(payload)
            assert engine.stats()["in_flight"] == 0
        finally:
            engine.close()

    def test_startup_failure_raises_proc_worker_error(self, stack_model):
        # The worker's sparse backend rejects the AvgPool2d layer while
        # compiling, so the pool fails its startup with the worker's error.
        layers = list(stack_model)
        unsupported = Sequential(*layers[:4], AvgPool2d(2), *layers[4:])
        with pytest.raises(ProcWorkerError, match="startup.*AvgPool2d"):
            ProcPoolEngine(unsupported, proc_workers=1)

    def test_session_closes_the_pool_it_built(self, stack_model):
        """from_model-built pools are owned: session close frees the shm.

        A caller-provided engine (the shared fixtures here) stays the
        caller's to manage — only sessions that *built* their engine
        close it, else ``repro serve --proc-workers`` leaks worker
        processes and the shared-memory segment at exit.
        """
        session = InferenceSession.from_model(
            stack_model,
            backend="procpool",
            session=SessionConfig(max_batch=2, batch_window_ms=5.0, workers=1),
            proc_workers=1,
        )
        pool = session.engine
        session.infer(make_requests(1, seed=10)[0])
        session.close()
        assert pool.closed

    def test_caller_provided_engine_survives_session_close(self, pool):
        with InferenceSession(
            pool, SessionConfig(max_batch=2, batch_window_ms=5.0, workers=1)
        ) as session:
            session.infer(make_requests(1, seed=11)[0])
        assert not pool.closed  # still the module fixture's to manage

    def test_closed_pool_rejects_dispatch(self, stack_model):
        engine = create_engine(stack_model, backend="procpool", proc_workers=1)
        engine.close()
        assert engine.closed
        with pytest.raises(ProcPoolClosed):
            engine(make_requests(1)[0])
        engine.close()  # idempotent
