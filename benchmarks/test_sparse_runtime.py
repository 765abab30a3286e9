"""Runtime-efficiency benchmark: does skipping masked work actually pay?

The paper's FLOPs reductions are analytic; this benchmark closes the loop
by executing the pruned computation sparsely and measuring wall-clock
time on a VGG-style conv stack.  Since PR 2 the engine is reached the way
deployments reach it — through :class:`repro.serve.InferenceSession`
(synchronous ``predict`` path, so the scheduler stays out of the
timings) built by the :func:`repro.core.engine.create_engine` factory.

Asserted shape claims:

* the sparse engine at the paper's aggressive ratios is significantly
  faster than the same engine with pruning off (i.e. the saving comes
  from the masks, not from engine overhead differences);
* the sparse pruned path beats the dense masked path outright;
* runtime decreases monotonically as the pruning ratio rises.
"""

from contextlib import ExitStack

import numpy as np
import pytest

from repro.core.engine import create_engine
from repro.models import build_conv_stack as conv_stack
from repro.serve import InferenceSession

from .bench_utils import timed


def session_for(stack):
    """Engine access as deployments get it: a session's synchronous path."""
    return InferenceSession.from_model(stack, backend="sparse")


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(1).normal(size=(8, 3, 32, 32)).astype(np.float32)


def test_sparse_speedup_from_pruning(benchmark, batch):
    with session_for(conv_stack(0.9, 0.0)) as pruned, \
            session_for(conv_stack(0.0, 0.0)) as unpruned:
        t_pruned = benchmark.pedantic(lambda: pruned.predict(batch), rounds=3, iterations=1)
        t_unpruned = timed(lambda: unpruned.predict(batch))
        t_pruned = timed(lambda: pruned.predict(batch))

    speedup = t_unpruned / t_pruned
    print(f"\n[sparse runtime] unpruned {t_unpruned * 1e3:.1f}ms vs "
          f"pruned(0.9 channel) {t_pruned * 1e3:.1f}ms -> {speedup:.2f}x")
    assert speedup > 1.5, "channel skipping at ratio 0.9 must show real wall-clock gains"


def test_sparse_beats_dense_masked(benchmark, batch):
    stack = conv_stack(0.75, 0.75)
    with session_for(stack) as session:
        t_sparse = benchmark.pedantic(lambda: session.predict(batch), rounds=3, iterations=1)
        t_sparse = timed(lambda: session.predict(batch))
        dense = create_engine(stack, backend="dense")
        t_dense = timed(lambda: dense(batch))

    print(f"\n[sparse vs dense] dense-masked {t_dense * 1e3:.1f}ms vs "
          f"sparse-skipped {t_sparse * 1e3:.1f}ms -> {t_dense / t_sparse:.2f}x")
    assert t_sparse < t_dense, "skipping masked work must beat computing it densely"


def test_runtime_monotone_in_ratio(benchmark):
    batch = np.random.default_rng(2).normal(size=(4, 3, 32, 32)).astype(np.float32)
    ratios = (0.0, 0.5, 0.9)
    with ExitStack() as stack:
        sessions = {r: stack.enter_context(session_for(conv_stack(r, 0.0))) for r in ratios}
        # The sessions run in alternation, round by round, so a scheduler
        # stall or a shift in machine load lands on every ratio alike; each
        # ratio keeps its best of 7 rounds.
        times = dict.fromkeys(ratios, float("inf"))
        for _ in range(7):
            for ratio, session in sessions.items():
                times[ratio] = min(times[ratio], timed(lambda: session.predict(batch), repeats=1))
        benchmark.pedantic(lambda: sessions[0.9].predict(batch), rounds=1, iterations=1)
    print("\n[ratio sweep] " + "  ".join(f"r={r}: {t * 1e3:.1f}ms" for r, t in times.items()))
    assert times[0.9] < times[0.5] < times[0.0] * 1.05
