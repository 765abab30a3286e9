"""Regression perf smoke tests for the batched sparse engine.

These are guardrails, not benchmarks (see ``benchmarks/test_sparse_runtime.py``
and ``perfbench/run.py`` for measurement): at high sparsity the batched
executor must never lose to the dense reference, or the fast path has
silently regressed to per-sample work.
"""

import numpy as np

from benchmarks.bench_utils import timed
from repro.core.engine import SparseEngine, create_engine
from repro.core.pruning import PruningConfig, instrument_model
from repro.models import ResNet, build_conv_stack
from repro.nn import Tensor, no_grad


def test_resnet_block_not_slower_than_dense_at_high_sparsity(rng):
    # A small ResNet block stack at 75% channel sparsity: the batched
    # executor must not be slower than the dense masked reference.
    model = ResNet(1, num_classes=10, width_multiplier=1.0, seed=0)
    model.eval()
    instrument_model(model, PruningConfig([0.75] * 3, [0.0] * 3))
    x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
    executor = SparseEngine(model)
    executor(x)  # warm the plan's workspace

    def dense():
        with no_grad():
            return model(Tensor(x)).data

    t_sparse = timed(lambda: executor(x), repeats=5)
    t_dense = timed(dense, repeats=5)
    # 10% slack absorbs timer noise; a fast-path regression to per-sample
    # dense work shows up as a multiple, not a percentage.
    assert t_sparse <= t_dense * 1.10, (
        f"sparse {t_sparse * 1e3:.1f}ms vs dense {t_dense * 1e3:.1f}ms at 75% sparsity"
    )


def test_conv_stack_speedup_at_high_sparsity(rng):
    # The VGG-style stack is GEMM-dominated, so the win must be decisive.
    stack = build_conv_stack(0.75, width=48, depth=3)
    executor = SparseEngine(stack)
    x = rng.normal(size=(8, 3, 32, 32)).astype(np.float32)
    executor(x)

    t_sparse = timed(lambda: executor(x), repeats=5)
    dense = create_engine(stack, backend="dense")
    t_dense = timed(lambda: dense(x), repeats=5)
    assert t_sparse <= t_dense, (
        f"sparse {t_sparse * 1e3:.1f}ms vs dense {t_dense * 1e3:.1f}ms at 75% sparsity"
    )
