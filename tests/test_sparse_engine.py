"""Property-style equivalence tests for the batched sparse inference engine.

Contract under test (see ``repro/core/sparse_exec.py``):

* batched ``sparse_conv2d`` output equals the dense masked reference across
  stride / padding / mask-density grids, for every batching regime (all
  samples sharing one mask, all distinct, and mixed);
* degenerate masks behave by the paper's skip semantics — an all-dropped
  channel set or an empty spatial mask yields exact zeros, not bias;
* the plan's dense fast path is a pure optimization: it never changes
  the computed values.
"""

import numpy as np
import pytest

from repro.core.engine import create_engine
from repro.core.pruning import DynamicPruning, PruningConfig, instrument_model
from repro.core.sparse_exec import (
    ExecutionPlan,
    PlanConfig,
    SparseResNetExecutor,
    SparseSequentialExecutor,
    dense_reference_forward,
    sparse_conv2d,
)
from repro.models import build_conv_stack
from repro.nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, ReLU, Sequential, Tensor, no_grad
from repro.nn import functional as F


def dense_conv(x, weight, bias, stride, padding):
    out = F.conv2d(Tensor(x), Tensor(weight), None if bias is None else Tensor(bias), stride, padding)
    return out.data


TIGHT = dict(rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
# Batched sparse_conv2d == dense masked reference
# ----------------------------------------------------------------------
class TestBatchedChannelEquivalence:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 1)])
    @pytest.mark.parametrize("density", [0.2, 0.5, 0.9])
    def test_channel_grid(self, rng, stride, padding, density):
        x = rng.normal(size=(6, 8, 9, 9)).astype(np.float32)
        w = rng.normal(size=(5, 8, 3, 3)).astype(np.float32)
        b = rng.normal(size=(5,)).astype(np.float32)
        mask = rng.random((6, 8)) < density
        masked = x * mask[:, :, None, None]
        out = sparse_conv2d(masked, w, b, stride, padding, channel_mask=mask)
        ref = dense_conv(masked, w, b, stride, padding)
        kept_rows = mask.any(axis=1)
        np.testing.assert_allclose(out[kept_rows], ref[kept_rows], **TIGHT)
        # All-dropped channel sets are skipped entirely: exact zeros, no bias.
        np.testing.assert_array_equal(out[~kept_rows], 0.0)

    def test_mixed_signature_batch_matches_per_sample(self, rng):
        x = rng.normal(size=(6, 10, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 10, 3, 3)).astype(np.float32)
        # Three masks over six samples, shuffled so grouping has to
        # reassemble non-contiguous index sets.
        base = np.stack([rng.random(10) < d for d in (0.3, 0.6, 0.9)])
        mask = base[np.array([0, 1, 2, 1, 0, 2])]
        masked = x * mask[:, :, None, None]
        out = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask)
        for i in range(6):
            single = sparse_conv2d(
                masked[i : i + 1], w, None, 1, 1, channel_mask=mask[i : i + 1]
            )
            np.testing.assert_allclose(out[i : i + 1], single, **TIGHT)
        ref = dense_conv(masked, w, None, 1, 1)
        kept_rows = mask.any(axis=1)
        np.testing.assert_allclose(out[kept_rows], ref[kept_rows], **TIGHT)

    def test_all_samples_all_dropped(self, rng):
        x = rng.normal(size=(3, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        out = sparse_conv2d(x, w, None, 1, 1, channel_mask=np.zeros((3, 4), dtype=bool))
        np.testing.assert_array_equal(out, 0.0)


class TestBatchedSpatialEquivalence:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    @pytest.mark.parametrize("density", [0.3, 0.7])
    def test_spatial_grid(self, rng, stride, padding, density):
        x = rng.normal(size=(4, 5, 9, 9)).astype(np.float32)
        w = rng.normal(size=(3, 5, 3, 3)).astype(np.float32)
        b = rng.normal(size=(3,)).astype(np.float32)
        smask = rng.random((4, 9, 9)) < density
        masked = x * smask[:, None, :, :]
        out = sparse_conv2d(masked, w, b, stride, padding, spatial_mask=smask)
        ref = dense_conv(masked, w, b, stride, padding)
        oh, ow = out.shape[2:]
        keep2d = smask[:, ::stride, ::stride][:, :oh, :ow]
        for i in range(4):
            ys, xs = np.nonzero(keep2d[i])
            np.testing.assert_allclose(out[i][:, ys, xs], ref[i][:, ys, xs], **TIGHT)
            dys, dxs = np.nonzero(~keep2d[i])
            np.testing.assert_array_equal(out[i][:, dys, dxs], 0.0)

    def test_empty_spatial_mask_gives_zero(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        b = np.array([5.0, -5.0], dtype=np.float32)
        out = sparse_conv2d(x, w, b, 1, 1, spatial_mask=np.zeros((2, 6, 6), dtype=bool))
        np.testing.assert_array_equal(out, 0.0)

    def test_combined_masks_mixed_signatures(self, rng):
        x = rng.normal(size=(4, 6, 8, 8)).astype(np.float32)
        w = rng.normal(size=(3, 6, 3, 3)).astype(np.float32)
        cbase = np.stack([rng.random(6) < d for d in (0.5, 0.9)])
        cmask = cbase[np.array([0, 1, 0, 1])]
        smask = rng.random((4, 8, 8)) < 0.6
        masked = x * cmask[:, :, None, None] * smask[:, None, :, :]
        out = sparse_conv2d(masked, w, None, 1, 1, channel_mask=cmask, spatial_mask=smask)
        ref = dense_conv(masked, w, None, 1, 1)
        for i in range(4):
            ys, xs = np.nonzero(smask[i])
            np.testing.assert_allclose(out[i][:, ys, xs], ref[i][:, ys, xs], **TIGHT)


# ----------------------------------------------------------------------
# ExecutionPlan: fusion and dispatch
# ----------------------------------------------------------------------
def pruned_stack(channel_ratio=0.6, spatial_ratio=0.0, width=12, seed=0, granularity="input"):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(3, width, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(width),
        ReLU(),
        DynamicPruning(channel_ratio, spatial_ratio, granularity=granularity),
        Conv2d(width, width, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(width),
        ReLU(),
        DynamicPruning(channel_ratio, spatial_ratio, granularity=granularity),
        Conv2d(width, width, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(width),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(width, 5, rng=rng),
    ]
    stack = Sequential(*layers)
    stack.eval()
    gen = np.random.default_rng(seed + 1)
    for m in stack.modules():
        if isinstance(m, BatchNorm2d):
            m.running_mean += gen.normal(size=m.num_features).astype(np.float32) * 0.1
            m.running_var += np.abs(gen.normal(size=m.num_features)).astype(np.float32) * 0.1
    return stack


class TestExecutionPlan:
    def test_fused_and_unfused_match_dense(self, rng):
        stack = pruned_stack()
        x = rng.normal(size=(4, 3, 10, 10)).astype(np.float32)
        dense = dense_reference_forward(stack, x)
        fused = SparseSequentialExecutor(stack, PlanConfig(fuse_conv_bn=True))(x)
        unfused = SparseSequentialExecutor(stack, PlanConfig(fuse_conv_bn=False))(x)
        np.testing.assert_allclose(fused, dense, rtol=1e-3, atol=1e-5)
        np.testing.assert_allclose(unfused, dense, rtol=1e-3, atol=1e-5)

    def test_fusion_compacts_op_count(self):
        stack = pruned_stack()
        fused = ExecutionPlan.compile(list(stack), PlanConfig(fuse_conv_bn=True))
        unfused = ExecutionPlan.compile(list(stack), PlanConfig(fuse_conv_bn=False))
        assert len(fused.ops) < len(unfused.ops)
        assert "ConvOp" in fused.describe()

    def test_dense_fast_path_matches_sparse_path(self, rng):
        stack = pruned_stack(channel_ratio=0.4, spatial_ratio=0.4)
        x = rng.normal(size=(4, 3, 10, 10)).astype(np.float32)
        always_sparse = SparseSequentialExecutor(stack, PlanConfig(dense_threshold=0.0))
        always_dense = SparseSequentialExecutor(stack, PlanConfig(dense_threshold=1.0))
        out_sparse = always_sparse(x)
        out_dense = always_dense(x)
        np.testing.assert_allclose(out_sparse, out_dense, rtol=1e-3, atol=1e-5)
        # Top-k column sites run the kept-position bucketed kernel.
        assert always_sparse.plan.dispatch_counts["ragged_spatial"] > 0
        assert always_dense.plan.sparse_dispatches == 0
        assert always_dense.plan.dense_dispatches > 0

    def test_batch_granularity_collapses_to_one_group(self, rng):
        stack = pruned_stack(granularity="batch")
        executor = SparseSequentialExecutor(stack, PlanConfig(dense_threshold=0.0))
        x = rng.normal(size=(6, 3, 10, 10)).astype(np.float32)
        executor(x)
        # Two masked convs, each one channel-kernel call over one group.
        assert executor.plan.dispatch_counts["channel"] == 2
        dense = dense_reference_forward(stack, x)
        np.testing.assert_allclose(executor(x), dense, rtol=1e-3, atol=1e-5)

    def test_plan_rejects_unknown_layer(self):
        from repro.nn import Dropout

        with pytest.raises(TypeError):
            ExecutionPlan.compile([Dropout(0.5)])

    def test_empty_batch(self, rng):
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        out = sparse_conv2d(np.zeros((0, 3, 8, 8), dtype=np.float32), w, None, 1, 1)
        assert out.shape == (0, 2, 8, 8)


class TestResNetPlanEquivalence:
    def _model(self, channel_ratio, width=0.5, n=1, seed=0):
        from repro.models import ResNet

        model = ResNet(n, num_classes=10, width_multiplier=width, seed=seed)
        model.eval()
        instrument_model(model, PruningConfig([channel_ratio] * 3, [0.0] * 3))
        gen = np.random.default_rng(seed + 1)
        for m in model.modules():
            if isinstance(m, BatchNorm2d):
                m.running_mean += gen.normal(size=m.num_features).astype(np.float32) * 0.1
                m.running_var += np.abs(gen.normal(size=m.num_features)).astype(np.float32) * 0.1
        return model

    @pytest.mark.parametrize("fuse", [True, False])
    def test_channel_pruning_matches_dense(self, rng, fuse):
        model = self._model(channel_ratio=0.6)
        x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
        executor = SparseResNetExecutor(model, PlanConfig(fuse_conv_bn=fuse))
        with no_grad():
            dense = model(Tensor(x)).data
        np.testing.assert_allclose(executor(x), dense, rtol=2e-3, atol=2e-4)


# ----------------------------------------------------------------------
# Zero-copy kernel layer: workspace reuse and per-sample bit-identity
# ----------------------------------------------------------------------
class TestWorkspaceReuse:
    def test_arena_reuses_buffers_across_plan_calls(self, rng):
        stack = pruned_stack()
        executor = SparseSequentialExecutor(stack, PlanConfig(dense_threshold=0.0))
        x = rng.normal(size=(4, 3, 10, 10)).astype(np.float32)
        executor(x)
        warm = executor.plan.arena_stats()
        assert warm["allocations"] > 0
        first = executor(x)
        after_one = executor.plan.arena_stats()
        # Steady state: repeat traffic performs no scratch allocation.
        assert after_one["allocations"] == warm["allocations"]
        assert after_one["reuses"] > warm["reuses"]
        second = executor(x)
        np.testing.assert_array_equal(first, second)

    def test_resnet_plan_reuses_workspace(self, rng):
        from repro.models import ResNet

        model = ResNet(1, num_classes=10, width_multiplier=0.5, seed=0)
        model.eval()
        instrument_model(model, PruningConfig([0.6] * 3, [0.0] * 3))
        executor = SparseResNetExecutor(model)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        executor(x)
        allocations = executor.plan.arena_stats()["allocations"]
        executor(x)
        assert executor.plan.arena_stats()["allocations"] == allocations

    def test_raw_sparse_conv2d_accepts_external_arena(self, rng):
        from repro.core.workspace import WorkspaceArena

        x = rng.normal(size=(4, 8, 9, 9)).astype(np.float32)
        w = rng.normal(size=(5, 8, 3, 3)).astype(np.float32)
        mask = rng.random((4, 8)) < 0.5
        mask[:, 0] = True
        masked = x * mask[:, :, None, None]
        arena = WorkspaceArena()
        first = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask, arena=arena)
        taken = arena.allocations
        assert taken > 0
        second = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask, arena=arena)
        assert arena.allocations == taken
        assert arena.reuses > 0
        np.testing.assert_array_equal(first, second)
        bare = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask)
        np.testing.assert_array_equal(first, bare)


class TestPerSampleBitIdentity:
    """Batch composition must be unobservable, bit for bit.

    The channel kernel runs every GEMM as fixed-shape per-sample slices,
    so this holds for equal and mixed kept counts, at any map size —
    with or without ``batch_invariant``.
    """

    def test_distinct_equal_count_masks_match_per_sample_exactly(self, rng):
        # Distinct top-k masks: one exact-count group, one batched GEMM.
        x = rng.normal(size=(6, 12, 8, 8)).astype(np.float32)
        w = rng.normal(size=(5, 12, 3, 3)).astype(np.float32)
        b = rng.normal(size=(5,)).astype(np.float32)
        order = np.stack([rng.permutation(12) for _ in range(6)])
        mask = order < 5  # five kept channels each, all masks distinct
        masked = x * mask[:, :, None, None]
        batched = sparse_conv2d(masked, w, b, 1, 1, channel_mask=mask)
        for i in range(6):
            single = sparse_conv2d(
                masked[i : i + 1], w, b, 1, 1, channel_mask=mask[i : i + 1]
            )
            np.testing.assert_array_equal(batched[i : i + 1], single)

    def test_repeated_masks_at_large_map_match_per_sample_exactly(self, rng):
        # A larger map, repeated masks with two kept counts: two groups.
        x = rng.normal(size=(4, 6, 26, 26)).astype(np.float32)
        w = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        base = np.stack([rng.random(6) < d for d in (0.5, 0.8)])
        mask = base[np.array([0, 1, 0, 1])]
        masked = x * mask[:, :, None, None]
        batched = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask)
        for i in range(4):
            single = sparse_conv2d(
                masked[i : i + 1], w, None, 1, 1, channel_mask=mask[i : i + 1]
            )
            np.testing.assert_array_equal(batched[i : i + 1], single)

    def test_plan_outputs_ignore_batch_composition(self, rng):
        stack = pruned_stack(granularity="input")
        executor = SparseSequentialExecutor(
            stack, PlanConfig(batch_invariant=True, dense_threshold=0.0)
        )
        x = rng.normal(size=(5, 3, 10, 10)).astype(np.float32)
        batched = executor(x)
        for i in range(5):
            np.testing.assert_array_equal(executor(x[i : i + 1]), batched[i : i + 1])


# ----------------------------------------------------------------------
# Per-strategy dispatch counters
# ----------------------------------------------------------------------
def test_dispatch_counters_fine_grained_and_legacy_agree(rng):
    stack = build_conv_stack(0.5, width=16, depth=3, seed=0)
    engine = create_engine(
        stack,
        backend="sparse",
        config=PlanConfig(batch_invariant=True, dense_threshold=0.0),
    )
    engine(rng.normal(size=(4, 3, 16, 16)).astype(np.float32))
    stats = engine.stats()
    counts = stats["dispatch"]
    assert set(counts) == {"channel", "ragged_spatial", "per_position", "dense"}
    assert counts["channel"] + counts["per_position"] == stats["sparse_dispatches"]
    assert counts["ragged_spatial"] == stats["ragged_dispatches"]
    assert counts["dense"] == stats["dense_dispatches"]
    assert counts["channel"] > 0


def test_dispatch_counters_reset(rng):
    stack = build_conv_stack(0.5, width=16, depth=2, seed=0)
    engine = create_engine(stack, backend="sparse")
    engine(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
    engine.reset_stats()
    assert sum(engine.stats()["dispatch"].values()) == 0
