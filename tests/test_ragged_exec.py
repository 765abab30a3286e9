"""Ragged (adaptive-sparsity) execution: bucketing, engine, scheduler.

Contract under test (see ``repro/core/sparse_exec.py`` and ISSUE 4):

* :class:`MaskSpec` unifies the top-k and threshold mask rules, and the
  kept-count bucketing helpers partition ragged batches deterministically;
* ``sparse_conv2d(ragged=True)`` equals the dense masked reference and is
  **bit-identical** to per-request execution for every batch composition,
  quantum, and bucket-boundary kept-count;
* threshold-mode plans run the channel kernel with rounded kept counts,
  on conv stacks and ResNets alike;
* FBS :class:`GatedModel` compilation opens the dynamic-inference
  workload on the batched engine;
* the serving scheduler fills windows in arrival order, whatever the
  requests' kept counts, without changing any response.
"""

import numpy as np
import pytest

from repro.baselines.dynamic import instrument_with_gates
from repro.core import sparse_exec
from repro.core.engine import SparseEngine, create_engine
from repro.core.masks import (
    MaskSpec,
    group_by_kept_count,
    kept_counts,
    quantize_kept_count,
    threshold_mask,
)
from repro.core.pruning import DynamicPruning, PruningConfig, instrument_model
from repro.core.sparse_exec import sparse_conv2d
from repro.models import build_conv_stack
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.obs import PlanProfiler

from .oracles import per_position_conv

TIGHT = dict(rtol=1e-4, atol=1e-5)


def dense_conv(x, weight, bias, stride, padding):
    out = F.conv2d(
        Tensor(x), Tensor(weight), None if bias is None else Tensor(bias), stride, padding
    )
    return out.data


def channel_kinds(executor, x):
    """``executor(x)`` and the geometry kinds of its channel-kernel calls.

    The kind is ``"ragged"`` exactly when the call rounded kept counts up
    to ``KEPT_QUANTUM``.
    """
    executor.plan.profiler = PlanProfiler()
    out = executor(x)
    rows = executor.plan.profiler.snapshot()
    executor.plan.profiler = None
    return out, {row["geometry"][7] for row in rows if row["strategy"] == "channel"}


def threshold_stack(width=16, depth=4, seed=0, threshold=0.05, spatial=False):
    """Conv stack whose pruning sites produce ragged threshold masks."""
    stack = build_conv_stack(0.5, spatial_ratio=0.4 if spatial else 0.0,
                             width=width, depth=depth, seed=seed)
    for module in stack.modules():
        if isinstance(module, DynamicPruning):
            module.mask_mode = "threshold"
            module.threshold = threshold
    return stack


# ----------------------------------------------------------------------
# MaskSpec and kept-count bucketing
# ----------------------------------------------------------------------
class TestMaskSpec:
    def test_topk_matches_channel_mask(self, rng):
        from repro.core.masks import channel_mask

        scores = rng.random((4, 12))
        spec = MaskSpec("topk", ratio=0.5)
        np.testing.assert_array_equal(spec.build(scores), channel_mask(scores, 0.5))
        assert not spec.adaptive

    def test_threshold_matches_threshold_mask(self, rng):
        scores = rng.random((4, 12))
        spec = MaskSpec("threshold", threshold=0.4)
        np.testing.assert_array_equal(spec.build(scores), threshold_mask(scores, 0.4))
        assert spec.adaptive

    def test_spatial_variant_shape(self, rng):
        scores = rng.random((3, 5, 6))
        mask = MaskSpec("threshold", threshold=0.5).build_spatial(scores)
        assert mask.shape == (3, 5, 6)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            MaskSpec("magic")
        with pytest.raises(ValueError):
            MaskSpec("topk", ratio=1.5)

    def test_signature_distinguishes_rules(self):
        assert MaskSpec("topk", 0.5).signature() != MaskSpec("topk", 0.6).signature()
        assert (
            MaskSpec("threshold", threshold=0.1).signature()
            != MaskSpec("threshold", threshold=0.2).signature()
        )

    def test_pruner_exposes_spec(self):
        layer = DynamicPruning(channel_ratio=0.5, mask_mode="threshold", threshold=0.3)
        spec = layer.mask_spec("channel")
        assert spec.adaptive and spec.threshold == 0.3
        assert layer.adaptive


class TestKeptCountBucketing:
    def test_kept_counts_flattens_trailing_dims(self):
        mask = np.zeros((2, 3, 4), dtype=bool)
        mask[0, 1, :2] = True
        mask[1] = True
        np.testing.assert_array_equal(kept_counts(mask), [2, 12])

    def test_quantize_rounds_up_and_clamps(self):
        assert quantize_kept_count(0, 16, 4) == 0
        assert quantize_kept_count(1, 16, 4) == 4
        assert quantize_kept_count(4, 16, 4) == 4
        assert quantize_kept_count(5, 16, 4) == 8
        assert quantize_kept_count(15, 16, 4) == 16
        assert quantize_kept_count(16, 16, 4) == 16
        # quantum above the dimension clamps to the dimension
        assert quantize_kept_count(3, 6, 8) == 6

    def test_quantize_validates(self):
        with pytest.raises(ValueError):
            quantize_kept_count(1, 0, 4)
        with pytest.raises(ValueError):
            quantize_kept_count(1, 8, 0)

    def test_group_partitions_batch(self, rng):
        mask = rng.random((9, 16)) < rng.uniform(0.1, 0.9, size=(9, 1))
        buckets = group_by_kept_count(mask, 4)
        all_idx = np.sort(np.concatenate([idx for _, idx in buckets]))
        np.testing.assert_array_equal(all_idx, np.arange(9))
        counts = kept_counts(mask)
        for bucket_count, idx in buckets:
            for i in idx:
                assert quantize_kept_count(int(counts[i]), 16, 4) == bucket_count

    def test_bucket_depends_only_on_own_mask(self, rng):
        # The batch-invariance precondition: a row's bucket is the same no
        # matter which other rows share the batch.
        mask = rng.random((6, 16)) < 0.5
        solo = [group_by_kept_count(mask[i : i + 1], 4)[0][0] for i in range(6)]
        batched = group_by_kept_count(mask, 4)
        for bucket_count, idx in batched:
            for i in idx:
                assert solo[i] == bucket_count


# ----------------------------------------------------------------------
# Ragged sparse_conv2d: equivalence and bit-identity
# ----------------------------------------------------------------------
class TestRaggedConvEquivalence:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("quantum", [1, 4, 8])
    def test_ragged_grid_matches_dense(self, rng, stride, padding, quantum):
        x = rng.normal(size=(6, 12, 9, 9)).astype(np.float32)
        w = rng.normal(size=(5, 12, 3, 3)).astype(np.float32)
        b = rng.normal(size=(5,)).astype(np.float32)
        # genuinely ragged: per-row densities differ
        mask = rng.random((6, 12)) < rng.uniform(0.2, 0.95, size=(6, 1))
        mask[:, 0] = True
        masked = x * mask[:, :, None, None]
        out = sparse_conv2d(
            masked, w, b, stride, padding,
            channel_mask=mask, ragged=True, kept_quantum=quantum,
        )
        ref = dense_conv(masked, w, b, stride, padding)
        np.testing.assert_allclose(out, ref, **TIGHT)

    def test_bucket_boundary_kept_counts(self, rng):
        # Counts straddling the quantum boundary: q-1, q, q+1, and the
        # full dimension all land in the right buckets and stay exact.
        c, q = 16, 4
        x = rng.normal(size=(4, c, 8, 8)).astype(np.float32)
        w = rng.normal(size=(3, c, 3, 3)).astype(np.float32)
        mask = np.zeros((4, c), dtype=bool)
        for i, count in enumerate((q - 1, q, q + 1, c)):
            mask[i, rng.permutation(c)[:count]] = True
        masked = x * mask[:, :, None, None]
        out = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask,
                            ragged=True, kept_quantum=q)
        ref = dense_conv(masked, w, None, 1, 1)
        np.testing.assert_allclose(out, ref, **TIGHT)
        buckets = dict((bc, list(idx)) for bc, idx in group_by_kept_count(mask, q))
        assert buckets == {4: [0, 1], 8: [2], 16: [3]}

    def test_unmasked_input_honors_channel_skip_contract(self, rng):
        # The channel-skip contract ("equivalent to the dense masked
        # conv") must hold even when the caller does NOT pre-zero the
        # input — including samples whose kept-count merely rounds up to
        # the channel dimension (the full-width bucket boundary).
        c, q = 8, 4
        x = rng.normal(size=(3, c, 7, 7)).astype(np.float32)  # unmasked!
        w = rng.normal(size=(4, c, 3, 3)).astype(np.float32)
        mask = np.ones((3, c), dtype=bool)
        mask[0, 5] = False          # 7/8 kept -> quantizes to 8 (full width)
        mask[1, :5] = False         # 3/8 kept -> sub-width bucket
        ragged = sparse_conv2d(x, w, None, 1, 1, channel_mask=mask,
                               ragged=True, kept_quantum=q)
        exact = sparse_conv2d(x, w, None, 1, 1, channel_mask=mask)
        np.testing.assert_allclose(ragged, exact, **TIGHT)
        ref = dense_conv(x * mask[:, :, None, None], w, None, 1, 1)
        np.testing.assert_allclose(ragged, ref, **TIGHT)

    def test_all_dropped_rows_stay_zero(self, rng):
        x = rng.normal(size=(3, 8, 6, 6)).astype(np.float32)
        w = rng.normal(size=(2, 8, 3, 3)).astype(np.float32)
        mask = np.zeros((3, 8), dtype=bool)
        mask[1, 2] = True
        out = sparse_conv2d(x * mask[:, :, None, None], w, None, 1, 1,
                            channel_mask=mask, ragged=True)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[2], 0.0)
        assert np.abs(out[1]).sum() > 0


class TestRaggedBitIdentity:
    """The acceptance grid: ragged batches == per-request execution, bitwise."""

    @pytest.mark.parametrize("quantum", [1, 4, 8])
    @pytest.mark.parametrize("size", [8, 26])
    def test_array_equal_grid(self, rng, quantum, size):
        x = rng.normal(size=(7, 12, size, size)).astype(np.float32)
        w = rng.normal(size=(5, 12, 3, 3)).astype(np.float32)
        b = rng.normal(size=(5,)).astype(np.float32)
        mask = rng.random((7, 12)) < rng.uniform(0.2, 0.95, size=(7, 1))
        mask[:, 0] = True
        masked = x * mask[:, :, None, None]
        batched = sparse_conv2d(masked, w, b, 1, 1, channel_mask=mask,
                                ragged=True, kept_quantum=quantum)
        for i in range(7):
            single = sparse_conv2d(
                masked[i : i + 1], w, b, 1, 1,
                channel_mask=mask[i : i + 1], ragged=True, kept_quantum=quantum,
            )
            np.testing.assert_array_equal(batched[i : i + 1], single)

    def test_subset_composition_bit_identical(self, rng):
        # Not just singletons: any sub-batch reproduces its members' rows.
        x = rng.normal(size=(6, 10, 9, 9)).astype(np.float32)
        w = rng.normal(size=(4, 10, 3, 3)).astype(np.float32)
        mask = rng.random((6, 10)) < rng.uniform(0.3, 0.9, size=(6, 1))
        mask[:, 0] = True
        masked = x * mask[:, :, None, None]
        full = sparse_conv2d(masked, w, None, 1, 1, channel_mask=mask, ragged=True)
        pick = np.array([5, 1, 3])
        sub = sparse_conv2d(masked[pick], w, None, 1, 1,
                            channel_mask=mask[pick], ragged=True)
        np.testing.assert_array_equal(sub, full[pick])


# ----------------------------------------------------------------------
# Threshold-mode plans: ragged dispatch end to end
# ----------------------------------------------------------------------
class TestThresholdModePlans:
    def test_ragged_dispatch_engages_for_threshold_sites(self, rng):
        stack = threshold_stack()
        executor = SparseEngine(stack)
        x = rng.normal(size=(6, 3, 12, 12)).astype(np.float32)
        out, kinds = channel_kinds(executor, x)
        assert kinds == {"ragged"}
        ref = create_engine(stack, backend="dense")(x)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-5)

    def test_plan_outputs_bit_identical_per_request(self, rng):
        stack = threshold_stack()
        executor = SparseEngine(stack)
        x = rng.normal(size=(5, 3, 12, 12)).astype(np.float32)
        batched = executor(x)
        for i in range(5):
            np.testing.assert_array_equal(executor(x[i : i + 1]), batched[i : i + 1])

    def test_threshold_spatial_masks_still_exact(self, rng, monkeypatch):
        # Ragged + spatial: adaptive spatial masks route through the
        # bucketed ragged-spatial kernel.  Its NHWC gather uses a
        # different K summation order than the per-position oracle, so
        # the two agree to round-off (like every cross-kernel pair);
        # within the kernel, per-request execution stays bit-identical.
        # (The dense reference is not the oracle here — column skipping
        # intentionally leaves dropped positions zero, Sec. III-B.)
        stack = threshold_stack(spatial=True)
        executor = SparseEngine(stack)
        x = rng.normal(size=(4, 3, 10, 10)).astype(np.float32)
        out = executor(x)
        assert executor.plan.dispatch_counts["ragged_spatial"] > 0
        oracle_calls = []

        def oracle(x, weight, bias, stride, padding, spatial_mask, channel_mask, *,
                   kept_quantum, arena, oh, ow):
            oracle_calls.append(x.shape[0])
            return per_position_conv(
                x, weight, bias, stride, padding, spatial_mask, channel_mask, oh, ow
            )

        with monkeypatch.context() as patch:
            patch.setattr(sparse_exec, "_ragged_spatial_conv", oracle)
            ref = executor(x)
        assert oracle_calls
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)
        batched = executor(x)
        for i in range(4):
            np.testing.assert_array_equal(executor(x[i : i + 1]), batched[i : i + 1])

    def test_resnet_threshold_mode(self, rng):
        from repro.models import ResNet
        from repro.nn import BatchNorm2d

        model = ResNet(1, num_classes=10, width_multiplier=0.5, seed=0)
        model.eval()
        handle = instrument_model(model, PruningConfig([0.5] * 3, [0.0] * 3))
        for _, pruner in handle.pruners:
            pruner.mask_mode = "threshold"
            pruner.threshold = 0.05
        gen = np.random.default_rng(1)
        for m in model.modules():
            if isinstance(m, BatchNorm2d):
                m.running_mean += gen.normal(size=m.num_features).astype(np.float32) * 0.1
                m.running_var += np.abs(gen.normal(size=m.num_features)).astype(np.float32) * 0.1
        executor = SparseEngine(model)
        x = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        out, kinds = channel_kinds(executor, x)
        assert kinds == {"ragged"}
        with no_grad():
            dense = model(Tensor(x)).data
        np.testing.assert_allclose(out, dense, rtol=2e-3, atol=2e-4)
        for i in range(4):
            np.testing.assert_array_equal(executor(x[i : i + 1]), out[i : i + 1])


# ----------------------------------------------------------------------
# Engine backends: gated models
# ----------------------------------------------------------------------
class TestGatedModelCompilation:
    def test_gated_vgg_matches_dense(self, rng):
        from repro.models import vgg16

        model = vgg16(num_classes=10, width_multiplier=0.125, seed=0)
        model.eval()
        gated = instrument_with_gates(model, [0.5] * 5, seed=0)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        with no_grad():
            dense = gated(Tensor(x)).data
        engine = create_engine(gated, backend="sparse")
        out = engine(x)
        np.testing.assert_allclose(out, dense, rtol=1e-3, atol=1e-4)
        assert engine.stats()["dispatch"]["channel"] > 0

    def test_gated_resnet_matches_dense(self, rng):
        from repro.models import ResNet

        model = ResNet(1, num_classes=10, width_multiplier=0.5, seed=0)
        model.eval()
        gated = instrument_with_gates(model, [0.5] * 3, seed=0)
        x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
        with no_grad():
            dense = gated(Tensor(x)).data
        engine = create_engine(gated, backend="sparse")
        np.testing.assert_allclose(engine(x), dense, rtol=2e-3, atol=2e-4)

    def test_disabled_gates_are_identity(self, rng):
        from repro.models import vgg16

        model = vgg16(num_classes=10, width_multiplier=0.125, seed=0)
        model.eval()
        gated = instrument_with_gates(model, [0.4] * 5, seed=0)
        gated.set_enabled(False)
        x = rng.normal(size=(2, 3, 32, 32)).astype(np.float32)
        engine = create_engine(gated, backend="sparse")
        with no_grad():
            dense = gated(Tensor(x)).data
        np.testing.assert_allclose(engine(x), dense, rtol=1e-3, atol=1e-4)


# ----------------------------------------------------------------------
# Serving: arrival-order windows + end-to-end bit identity
# ----------------------------------------------------------------------
class TestAdaptiveServing:
    def test_session_windows_match_per_request(self, rng):
        from repro.serve import InferenceSession, SessionConfig

        stack = threshold_stack()
        engine = create_engine(stack, backend="sparse")
        requests = [
            rng.normal(size=(1, 3, 12, 12)).astype(np.float32) for _ in range(12)
        ]
        reference = [engine(r) for r in requests]
        session = InferenceSession(
            engine, SessionConfig(max_batch=6, batch_window_ms=30.0, workers=2)
        )
        try:
            outputs = session.infer_many(requests)
        finally:
            session.close()
        for out, ref in zip(outputs, reference):
            np.testing.assert_array_equal(out, ref)

    def test_mixed_kept_counts_share_one_window(self):
        from repro.serve import InferenceSession, SessionConfig

        stack = threshold_stack(threshold=0.5)
        engine = create_engine(stack, backend="sparse")
        rng = np.random.default_rng(0)
        # Their first sites keep 12, 8 and 16 of 16 channels (rounded to
        # the quantum): windows that split by that count would need three.
        requests = [
            rng.normal(size=(1, 3, 12, 12)).astype(np.float32) for _ in range(8)
        ]
        reference = [engine(r) for r in requests]
        session = InferenceSession(
            engine,
            SessionConfig(max_batch=8, batch_window_ms=500.0, bucket_requests=True),
        )
        try:
            outputs = session.infer_many(requests)
            stats = session.stats()
        finally:
            session.close()
        assert stats["batches"] == 1
        for out, ref in zip(outputs, reference):
            np.testing.assert_array_equal(out, ref)

    def test_windows_keep_arrival_order(self):
        from repro.core.engine import EngineProtocol
        from repro.serve import InferenceSession, SessionConfig

        class Echo(EngineProtocol):
            thread_safe = True

            def __init__(self):
                self.windows = []

            def forward(self, x):
                self.windows.append(x[:, 0, 0, 0].tolist())
                return x.reshape(x.shape[0], -1).sum(axis=1, keepdims=True)

        engine = Echo()
        session = InferenceSession(engine, SessionConfig(max_batch=4))
        try:
            outputs = session.infer_many(
                [np.full((1, 1, 2, 2), float(i), dtype=np.float32) for i in range(9)]
            )
        finally:
            session.close()
        assert [float(o.ravel()[0]) for o in outputs] == [i * 4.0 for i in range(9)]
        # One worker: the windows, read in order, are the arrival order.
        assert sum(engine.windows, []) == [float(i) for i in range(9)]
        assert all(len(window) <= 4 for window in engine.windows)
