"""Unit tests for the sparse (skipping) inference executor."""

import numpy as np
import pytest

from repro.core.engine import SparseEngine, create_engine
from repro.core.pruning import DynamicPruning, PruningConfig, instrument_model
from repro.core.sparse_exec import sparse_conv2d
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tensor,
    no_grad,
)
from repro.nn import functional as F


def dense_conv(x, weight, bias, stride, padding):
    out = F.conv2d(Tensor(x), Tensor(weight), None if bias is None else Tensor(bias), stride, padding)
    return out.data


class TestSparseConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    def test_no_masks_matches_dense(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=(4,)).astype(np.float32)
        out = sparse_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out, dense_conv(x, w, b, stride, padding), rtol=1e-5, atol=1e-5)

    def test_channel_skipping_is_exact(self, rng):
        # Zeroed channels contribute nothing: gathering kept channels must
        # equal the dense conv over the masked input, everywhere.
        x = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        w = rng.normal(size=(4, 6, 3, 3)).astype(np.float32)
        mask = rng.random((2, 6)) > 0.5
        mask[:, 0] = True  # keep at least one channel
        masked = x * mask[:, :, None, None]
        out = sparse_conv2d(x, w, None, 1, 1, channel_mask=mask)
        np.testing.assert_allclose(out, dense_conv(masked, w, None, 1, 1), rtol=1e-4, atol=1e-5)

    def test_column_skipping_matches_dense_at_kept_positions(self, rng):
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        smask = rng.random((1, 8, 8)) > 0.4
        masked = x * smask[:, None, :, :]
        out = sparse_conv2d(masked, w, None, 1, 1, spatial_mask=smask)
        dense = dense_conv(masked, w, None, 1, 1)
        ys, xs = np.nonzero(smask[0])
        np.testing.assert_allclose(out[0][:, ys, xs], dense[0][:, ys, xs], rtol=1e-4, atol=1e-5)

    def test_column_skipping_zeroes_dropped_positions(self, rng):
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        smask = np.zeros((1, 6, 6), dtype=bool)
        smask[0, :3] = True
        out = sparse_conv2d(x, w, None, 1, 1, spatial_mask=smask)
        np.testing.assert_allclose(out[0][:, 3:], 0.0)
        assert np.abs(out[0][:, :3]).sum() > 0

    def test_combined_masks(self, rng):
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 4, 3, 3)).astype(np.float32)
        cmask = np.array([[True, True, False, False], [False, True, True, False]])
        smask = rng.random((2, 6, 6)) > 0.5
        masked = x * cmask[:, :, None, None] * smask[:, None, :, :]
        # Contract: the input must already have dropped columns zeroed (the
        # executor applies the mask before the conv); channel gathering then
        # skips dropped channels and column gathering skips dropped outputs.
        out = sparse_conv2d(masked, w, None, 1, 1, channel_mask=cmask, spatial_mask=smask)
        dense = dense_conv(masked, w, None, 1, 1)
        for i in range(2):
            ys, xs = np.nonzero(smask[i])
            np.testing.assert_allclose(out[i][:, ys, xs], dense[i][:, ys, xs], rtol=1e-4, atol=1e-5)

    def test_empty_channel_mask_gives_zero(self, rng):
        x = rng.normal(size=(1, 3, 4, 4)).astype(np.float32)
        w = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        out = sparse_conv2d(x, w, None, 1, 1, channel_mask=np.zeros((1, 3), dtype=bool))
        np.testing.assert_allclose(out, 0.0)

    def test_bias_applied_only_at_kept_positions(self, rng):
        x = np.zeros((1, 2, 4, 4), dtype=np.float32)
        w = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        b = np.array([1.0, -1.0], dtype=np.float32)
        smask = np.zeros((1, 4, 4), dtype=bool)
        smask[0, 0, 0] = True
        out = sparse_conv2d(x, w, b, 1, 1, spatial_mask=smask)
        assert out[0, 0, 0, 0] == pytest.approx(1.0)
        assert out[0, 1, 0, 0] == pytest.approx(-1.0)
        np.testing.assert_allclose(out[0][:, 1:, 1:], 0.0)

    def test_channel_count_validation(self, rng):
        with pytest.raises(ValueError):
            sparse_conv2d(
                np.zeros((1, 3, 4, 4), dtype=np.float32),
                np.zeros((2, 4, 3, 3), dtype=np.float32),
                None, 1, 1,
            )


def build_stack(seed=0, with_pruning=True, channel_ratio=0.5, spatial_ratio=0.0):
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(3, 8, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(8),
        ReLU(),
    ]
    if with_pruning:
        layers.append(DynamicPruning(channel_ratio=channel_ratio, spatial_ratio=spatial_ratio))
    layers += [
        Conv2d(8, 8, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(8),
        ReLU(),
        MaxPool2d(2),
        GlobalAvgPool2d(),
        Linear(8, 4, rng=rng),
    ]
    stack = Sequential(*layers)
    stack.eval()
    # Randomize BN stats so eval batch-norm is non-trivial.
    for m in stack.modules():
        if isinstance(m, BatchNorm2d):
            m.running_mean += rng.normal(size=m.num_features).astype(np.float32) * 0.1
            m.running_var += np.abs(rng.normal(size=m.num_features)).astype(np.float32) * 0.1
    return stack


class TestSparseSequentialExecutor:
    """The sparse engine on ``Sequential`` stacks against the dense engine."""

    def test_matches_dense_without_pruning(self, rng):
        stack = build_stack(with_pruning=False)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        sparse = SparseEngine(stack)(x)
        dense = create_engine(stack, backend="dense")(x)
        np.testing.assert_allclose(sparse, dense, rtol=1e-4, atol=1e-5)

    def test_matches_dense_with_channel_pruning(self, rng):
        # Channel skipping is exact end to end.
        stack = build_stack(channel_ratio=0.5, spatial_ratio=0.0)
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        sparse = SparseEngine(stack)(x)
        dense = create_engine(stack, backend="dense")(x)
        np.testing.assert_allclose(sparse, dense, rtol=1e-4, atol=1e-5)

    def test_spatial_pruning_agrees_on_logit_ranking(self, rng):
        # Column skipping deviates from dense at skipped positions (the
        # paper's zero-treatment); downstream global pooling shrinks the
        # deviation, and predictions should rarely differ.
        stack = build_stack(channel_ratio=0.0, spatial_ratio=0.4)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        sparse = SparseEngine(stack)(x)
        dense = create_engine(stack, backend="dense")(x)
        assert sparse.shape == dense.shape

    def test_flattens_nested_sequential(self):
        inner = Sequential(ReLU(), DynamicPruning(0.5))
        stack = Sequential(Conv2d(3, 4, 3, padding=1), inner, GlobalAvgPool2d(), Linear(4, 2))
        ops = SparseEngine(stack).plan.ops
        assert [type(op).__name__ for op in ops] == [
            "_ConvOp", "_PruneOp", "_GlobalAvgPoolOp", "_LinearOp"
        ]

    def test_rejects_unknown_layer(self):
        from repro.nn import Dropout

        with pytest.raises(TypeError):
            SparseEngine(Sequential(Dropout(0.5)))

    def test_instrumented_vgg_features_run_sparse(self, rng):
        # End-to-end over a real instrumented VGG feature extractor.
        from repro.models import vgg11

        model = vgg11(width_multiplier=0.1, seed=0)
        model.eval()
        instrument_model(model, PruningConfig([0.5] * 5, [0.0] * 5))
        executor = SparseEngine(model.features)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        sparse = executor(x)
        dense = create_engine(model.features, backend="dense")(x)
        np.testing.assert_allclose(sparse, dense, rtol=2e-3, atol=2e-4)


class TestSparseResNetExecutor:
    """The sparse engine on ResNets against the model's own forward."""

    def _model(self, channel_ratio=0.5, spatial_ratio=0.0, width=0.5, n=1, seed=0):
        from repro.models import ResNet

        model = ResNet(n, num_classes=10, width_multiplier=width, seed=seed)
        model.eval()
        instrument_model(
            model, PruningConfig([channel_ratio] * 3, [spatial_ratio] * 3)
        )
        # Non-trivial BN stats.
        gen = np.random.default_rng(seed + 1)
        for m in model.modules():
            if isinstance(m, BatchNorm2d):
                m.running_mean += gen.normal(size=m.num_features).astype(np.float32) * 0.1
                m.running_var += np.abs(gen.normal(size=m.num_features)).astype(np.float32) * 0.1
        return model

    def test_matches_dense_without_pruning(self, rng):
        model = self._model(channel_ratio=0.0)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        sparse = SparseEngine(model)(x)
        with no_grad():
            dense = model(Tensor(x)).data
        np.testing.assert_allclose(sparse, dense, rtol=2e-3, atol=2e-4)

    @pytest.mark.parametrize("ratio", [0.5, 0.6])
    def test_channel_pruning_exact(self, rng, ratio):
        model = self._model(channel_ratio=ratio)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        sparse = SparseEngine(model)(x)
        with no_grad():
            dense = model(Tensor(x)).data
        np.testing.assert_allclose(sparse, dense, rtol=2e-3, atol=2e-4)

    def test_spatial_pruning_runs_and_is_finite(self, rng):
        # Column skipping follows the paper's zero-at-removed semantics, so
        # it deviates from the dense reference at skipped positions; check
        # structural sanity instead of equality.
        model = self._model(channel_ratio=0.3, spatial_ratio=0.5)
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        out = SparseEngine(model)(x)
        assert out.shape == (2, 10)
        assert np.isfinite(out).all()

    def test_downsample_blocks_handled(self, rng):
        # Group boundaries use projection shortcuts with stride 2.
        model = self._model(channel_ratio=0.5, n=2)
        x = rng.normal(size=(1, 3, 32, 32)).astype(np.float32)
        sparse = SparseEngine(model)(x)
        with no_grad():
            dense = model(Tensor(x)).data
        np.testing.assert_allclose(sparse, dense, rtol=3e-3, atol=3e-4)

    def test_uninstrumented_model_supported(self, rng):
        from repro.models import resnet8

        model = resnet8(width_multiplier=0.5, seed=0)
        model.eval()
        x = rng.normal(size=(1, 3, 16, 16)).astype(np.float32)
        sparse = SparseEngine(model)(x)
        with no_grad():
            dense = model(Tensor(x)).data
        np.testing.assert_allclose(sparse, dense, rtol=2e-3, atol=2e-4)

    def test_compiles_to_one_op_list(self):
        # Stem, one residual op per block, pool, classifier; a block's
        # body is conv1 (BN and ReLU fused), its pruning site and conv2,
        # and only a projection shortcut compiles to an op.
        model = self._model(n=2)
        ops = SparseEngine(model).plan.ops
        blocks = [b for g in (model.group1, model.group2, model.group3) for b in g]
        assert [type(op).__name__ for op in ops] == (
            ["_ConvOp"] + ["_ResidualOp"] * len(blocks) + ["_GlobalAvgPoolOp", "_LinearOp"]
        )
        for op, block in zip(ops[1:], blocks):
            assert [type(o).__name__ for o in op.body] == ["_ConvOp", "_PruneOp", "_ConvOp"]
            projection = not isinstance(block.shortcut, Identity)
            assert [type(o).__name__ for o in op.shortcut] == ["_ConvOp"] * projection
        assert sum(1 for b in blocks if not isinstance(b.shortcut, Identity)) == 2
