"""Unit tests for the dynamic comparison methods (SEBlock, FBSGate)."""

import numpy as np
import pytest

from repro.baselines.dynamic import FBSGate, SEBlock, instrument_with_gates
from repro.core import ExecutionPlan
from repro.core.masks import reserved_count
from repro.core.training import fit, train_epoch
from repro.models import VGG, vgg11
from repro.nn import Sequential, Tensor, no_grad
from repro.nn.optim import SGD


def feature(rng, n=2, c=8, h=4, w=4):
    return Tensor(rng.normal(size=(n, c, h, w)).astype(np.float32))


class TestSEBlock:
    def test_output_shape_preserved(self, rng):
        block = SEBlock(8, seed=0)
        x = feature(rng)
        assert block(x).shape == x.shape

    def test_weights_in_sigmoid_range(self, rng):
        block = SEBlock(8, seed=0)
        block(feature(rng))
        assert (block.last_weights > 0).all()
        assert (block.last_weights < 1).all()

    def test_no_channel_is_exactly_zeroed(self, rng):
        # The paper's criticism of soft attention: nothing is removed.
        block = SEBlock(8, seed=0)
        x = feature(rng)
        out = block(x)
        channel_norms = np.abs(out.data).sum(axis=(2, 3))
        input_norms = np.abs(x.data).sum(axis=(2, 3))
        assert (channel_norms[input_norms > 0] > 0).all()

    def test_gradients_reach_gate_parameters(self, rng):
        block = SEBlock(8, seed=0)
        out = block(feature(rng))
        (out * out).sum().backward()
        assert block.fc1.weight.grad is not None
        assert np.abs(block.fc1.weight.grad).sum() > 0

    def test_reduction_bottleneck(self):
        block = SEBlock(16, reduction=4)
        assert block.fc1.out_features == 4

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            SEBlock(0)


class TestFBSGate:
    def test_inactive_is_identity(self, rng):
        gate = FBSGate(8, prune_ratio=0.0, seed=0)
        x = feature(rng)
        assert gate(x) is x
        gate2 = FBSGate(8, prune_ratio=0.5, seed=0)
        gate2.enabled = False
        assert gate2(x) is x

    def test_keeps_eq3_channel_count(self, rng):
        gate = FBSGate(8, prune_ratio=0.5, seed=0)
        gate(feature(rng, c=8))
        expected = reserved_count(8, 0.5)
        np.testing.assert_array_equal(gate.last_mask.sum(axis=1), expected)
        assert gate.mean_channel_keep == pytest.approx(expected / 8)

    def test_suppressed_channels_are_zero(self, rng):
        gate = FBSGate(8, prune_ratio=0.5, seed=0)
        x = feature(rng, n=1)
        out = gate(x)
        mask = gate.last_mask[0]
        np.testing.assert_allclose(out.data[0, ~mask], 0.0)

    def test_kept_channels_are_rescaled_not_copied(self, rng):
        # FBS boosts: surviving channels are scaled by predicted saliency.
        gate = FBSGate(8, prune_ratio=0.5, seed=0)
        # Force a non-trivial predictor.
        gate.predictor.weight.data += np.random.default_rng(1).normal(
            scale=0.5, size=gate.predictor.weight.shape
        ).astype(np.float32)
        x = feature(rng, n=1)
        out = gate(x)
        mask = gate.last_mask[0]
        ratio = out.data[0, mask] / np.where(x.data[0, mask] == 0, 1, x.data[0, mask])
        # Per-channel constant scaling (same factor across spatial positions).
        per_channel = out.data[0, mask] - x.data[0, mask]
        assert not np.allclose(per_channel, 0.0)

    def test_gradient_flows_into_predictor(self, rng):
        gate = FBSGate(8, prune_ratio=0.5, seed=0)
        gate.predictor.weight.data += 0.3
        out = gate(feature(rng))
        (out * out).sum().backward()
        assert gate.predictor.weight.grad is not None
        assert np.abs(gate.predictor.weight.grad).sum() > 0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            FBSGate(8, prune_ratio=1.2)

    def test_spatial_keep_is_one(self):
        assert FBSGate(8, 0.5).mean_spatial_keep_pooled == 1.0

    @pytest.mark.parametrize("channels,ratio", [(8, 0.5), (8, 0.3), (13, 0.7)])
    def test_kept_boosts_average_one(self, rng, channels, ratio):
        # The boost is normalized over the k kept channels, not all C: for
        # each sample the kept boosts average 1 and the rest are exactly 0,
        # in the module and in its compiled twin alike.
        gate = FBSGate(channels, prune_ratio=ratio, seed=0)
        x = feature(rng, n=4, c=channels)
        module_out = gate(x).data
        mask = gate.last_mask
        assert (mask.sum(axis=1) == reserved_count(channels, ratio)).all()
        plan_out = ExecutionPlan.compile([gate]).run(x.data)
        for out in (module_out, plan_out):
            boosts = out / x.data
            kept_means = [boosts[i, mask[i]].mean() for i in range(len(mask))]
            np.testing.assert_allclose(kept_means, 1.0, rtol=1e-4)
            assert (out[~mask] == 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_keeps_input_dtype(self, rng, dtype):
        gate = FBSGate(8, prune_ratio=0.5, seed=0)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(dtype))
        assert gate(x).dtype == dtype
        assert ExecutionPlan.compile([gate]).run(x.data).dtype == dtype

    def test_gated_vgg_logits_stay_float32(self, rng):
        model = vgg11(width_multiplier=0.1, seed=0)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        with no_grad():
            plain = model(x)
            instrument_with_gates(model, [0.5] * 5)
            gated = model(x)
        assert plain.dtype == np.float32
        assert gated.dtype == np.float32


class TestInstrumentWithGates:
    def test_gates_inserted_at_all_points(self):
        model = vgg11(width_multiplier=0.1, seed=0)
        gated = instrument_with_gates(model, [0.5] * 5)
        assert len(gated.gates) == len(model.pruning_points())
        for point, gate in gated.gates:
            site = model.get_submodule(point.path)
            assert isinstance(site, Sequential)
            assert site[1] is gate

    def test_double_gating_raises(self):
        model = vgg11(width_multiplier=0.1, seed=0)
        instrument_with_gates(model, [0.5] * 5)
        with pytest.raises(RuntimeError):
            instrument_with_gates(model, [0.5] * 5)

    def test_ratio_length_checked(self):
        with pytest.raises(ValueError):
            instrument_with_gates(vgg11(width_multiplier=0.1), [0.5])

    def test_forward_and_stats(self, rng):
        model = vgg11(width_multiplier=0.1, seed=0)
        model.eval()
        gated = instrument_with_gates(model, [0.5] * 5)
        with no_grad():
            out = model(Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32)))
        assert out.shape == (2, 10)
        for _, gate in gated.gates:
            assert gate._samples == 2

    def test_gate_parameters_trainable(self, tiny_loaders):
        # End-to-end: a gated model trains (gates + weights jointly), and
        # training with gates active lowers the gated training loss.
        # Eval-mode accuracy after 3 joint epochs is not checked: the
        # BatchNorm running statistics lag the gate (see FBSGate), so it
        # is decided by round-off.  The dynamic-methods benchmark checks
        # FBS held-out accuracy after its 8-epoch adaptation.
        train_loader, _ = tiny_loaders
        model = VGG(num_classes=4, width_multiplier=0.12, seed=0)
        fit(model, train_loader, epochs=3, lr=0.05)
        gated = instrument_with_gates(model, [0.3] * 5)
        optimizer = SGD(model.parameters(), lr=0.02, momentum=0.9)
        before = [p.data.copy() for p in gated.gate_parameters()]
        losses = [train_epoch(model, train_loader, optimizer).loss for _ in range(3)]
        after = list(gated.gate_parameters())
        changed = any(
            not np.allclose(b, a.data) for b, a in zip(before, after)
        )
        assert changed, "gate predictor parameters must receive updates"
        assert losses[-1] < losses[0], f"gated training loss did not fall: {losses}"
