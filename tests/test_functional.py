"""Unit tests for repro.nn.functional: conv, pooling, norm, losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .oracles import im2col_loop
from .util import check_gradients, float64_tensor


def brute_force_conv(x, w, b, stride, padding):
    """Direct convolution loop used as ground truth."""
    n, c, h, wdt = x.shape
    out_c, _, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wdt + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, out_c, oh, ow))
    for ni in range(n):
        for oc in range(out_c):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[ni, oc, i, j] = (patch * w[oc]).sum()
            if b is not None:
                out[ni, oc] += b[oc]
    return out


class TestConvOutputShape:
    def test_basic(self):
        assert F.conv_output_shape(32, 32, 3, 1, 1) == (32, 32)
        assert F.conv_output_shape(32, 32, 3, 2, 1) == (16, 16)
        assert F.conv_output_shape(5, 7, 3, 1, 0) == (3, 5)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            F.conv_output_shape(2, 2, 5, 1, 0)


class TestIm2Col:
    def test_roundtrip_adjoint(self, rng):
        # col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
        x = rng.normal(size=(2, 3, 6, 6))
        col = F.im2col(x, 3, 1, 1)
        y = rng.normal(size=col.shape)
        lhs = (col * y).sum()
        rhs = (x * F.col2im(y, x.shape, 3, 1, 1)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_patch_content(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        col = F.im2col(x, 2, 2, 0)
        # First patch is the top-left 2x2 window.
        np.testing.assert_allclose(col[0], [0, 1, 4, 5])
        assert col.shape == (4, 4)


KSP_GRID = [
    (k, s, p)
    for k in (1, 2, 3, 5)
    for s in (1, 2, 3)
    for p in (0, 1, 2)
]


class TestIm2ColKernels:
    """The zero-copy gathers must reproduce the loop reference bit-for-bit."""

    @pytest.mark.parametrize("kernel,stride,padding", KSP_GRID)
    def test_strided_matches_loop(self, rng, kernel, stride, padding):
        x = rng.normal(size=(3, 4, 9, 11)).astype(np.float32)
        ref = im2col_loop(x, kernel, stride, padding)
        np.testing.assert_array_equal(F.im2col(x, kernel, stride, padding), ref)

    @pytest.mark.parametrize("kernel,stride,padding", KSP_GRID)
    def test_tiled_matches_untiled(self, rng, kernel, stride, padding):
        x = rng.normal(size=(2, 3, 10, 9)).astype(np.float32)
        ref = F.im2col_t(x, kernel, stride, padding)
        for tile in (1, 2, 3, 1000):
            np.testing.assert_array_equal(
                F.im2col_t(x, kernel, stride, padding, tile_rows=tile), ref
            )

    @pytest.mark.parametrize("kernel,stride,padding", KSP_GRID)
    def test_transposed_layout_matches(self, rng, kernel, stride, padding):
        # im2col_t is im2col with rows (n, oh, ow) and columns (c, k, k)
        # exchanged: same values, NCHW-friendly layout.
        x = rng.normal(size=(2, 3, 9, 8)).astype(np.float32)
        n, c = x.shape[:2]
        oh, ow = F.conv_output_shape(9, 8, kernel, stride, padding)
        ref = (
            F.im2col(x, kernel, stride, padding)
            .reshape(n, oh, ow, c, kernel, kernel)
            .transpose(0, 3, 4, 5, 1, 2)
            .reshape(n, c * kernel * kernel, oh * ow)
        )
        np.testing.assert_array_equal(F.im2col_t(x, kernel, stride, padding), ref)

    def test_padded_gather_overwrites_stale_buffer(self, rng):
        # The padded-destination gather zero-fills the halo bands instead
        # of reading from a padded input copy; with a reused (arena)
        # buffer every halo byte must be written, or stale data from the
        # previous call leaks into the patch matrix.
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        for kernel, stride, padding in [(3, 1, 1), (3, 2, 2), (5, 1, 2)]:
            ref = im2col_loop(x, kernel, stride, padding)
            oh, ow = F.conv_output_shape(7, 7, kernel, stride, padding)
            ref_t = ref.reshape(2, oh * ow, -1).transpose(0, 2, 1)
            poisoned_t = np.full_like(np.ascontiguousarray(ref_t), np.nan)
            np.testing.assert_array_equal(
                F.im2col_t(x, kernel, stride, padding, out=poisoned_t), ref_t
            )

    def test_padding_beyond_kernel_reach(self, rng):
        # Taps that are fully out of bounds for every output position must
        # come back as exact zero planes (tiny input, huge padding).
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        for kernel, stride, padding in [(3, 1, 3), (2, 2, 3), (3, 3, 4)]:
            ref = im2col_loop(x, kernel, stride, padding)
            np.testing.assert_array_equal(F.im2col(x, kernel, stride, padding), ref)

    def test_out_buffer_is_written_and_returned(self, rng):
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        ref_t = F.im2col_t(x, 3, 1, 1)
        buf_t = np.full_like(ref_t, np.nan)
        assert F.im2col_t(x, 3, 1, 1, out=buf_t) is buf_t
        np.testing.assert_array_equal(buf_t, ref_t)

    def test_out_buffer_validated(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        with pytest.raises(ValueError):
            F.im2col_t(x, 3, 1, 0, out=np.empty((1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            F.im2col_t(x, 3, 1, 0, out=np.empty((1, 18, 9), dtype=np.float64))
        fortran = np.asfortranarray(np.empty((1, 18, 9), dtype=np.float32))
        with pytest.raises(ValueError):
            F.im2col_t(x, 3, 1, 0, out=fortran)

    @pytest.mark.parametrize("kernel,stride,padding", [(2, 1, 0), (3, 1, 1), (3, 2, 1), (5, 3, 2)])
    def test_col2im_roundtrip_adjoint(self, rng, kernel, stride, padding):
        # <im2col(x), y> == <x, col2im(y)> must keep holding with the
        # strided gather feeding the fold.
        x = rng.normal(size=(2, 3, 9, 9))
        col = F.im2col(x, kernel, stride, padding)
        y = rng.normal(size=col.shape)
        lhs = (col * y).sum()
        rhs = (x * F.col2im(y, x.shape, kernel, stride, padding)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_default_tile_rows_targets_l2(self):
        # One row of 64-channel 3x3 patches at OW=64 is ~147KB in float32:
        # the tile should be a single row; tiny maps get the whole sweep.
        assert F.default_tile_rows(64, 3, 64, 4) == 1
        assert F.default_tile_rows(4, 3, 8, 4) >= 8
        assert F.default_tile_rows(1, 1, 1, 4) >= 1

    def test_default_tile_rows_memoized(self):
        F.default_tile_rows.cache_clear()
        first = F.default_tile_rows(16, 3, 14, 4)
        info = F.default_tile_rows.cache_info()
        assert info.misses >= 1
        again = F.default_tile_rows(16, 3, 14, 4)
        assert again == first
        assert F.default_tile_rows.cache_info().hits > info.hits


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_brute_force(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        out = F.conv2d(float64_tensor(x), float64_tensor(w), float64_tensor(b), stride, padding)
        expected = brute_force_conv(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-8)

    def test_no_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        out = F.conv2d(float64_tensor(x), float64_tensor(w), None, 1, 1)
        np.testing.assert_allclose(out.data, brute_force_conv(x, w, None, 1, 1), rtol=1e-8)

    def test_gradients(self, rng):
        x = rng.normal(size=(2, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        b = rng.normal(size=(3,))
        check_gradients(lambda xt, wt, bt: (F.conv2d(xt, wt, bt, 1, 1) ** 2).sum(), [x, w, b])

    def test_gradients_strided(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3)) * 0.5
        check_gradients(lambda xt, wt: (F.conv2d(xt, wt, None, 2, 1) ** 2).sum(), [x, w])

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_non_square_kernel_rejected(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        w = Tensor(np.zeros((2, 2, 3, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_1x1_conv(self, rng):
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 3, 1, 1))
        out = F.conv2d(float64_tensor(x), float64_tensor(w), None, 1, 0)
        expected = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        np.testing.assert_allclose(out.data, expected, rtol=1e-8)


class TestLinear:
    def test_forward(self, rng):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=(2,))
        out = F.linear(float64_tensor(x), float64_tensor(w), float64_tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-8)

    def test_gradients(self, rng):
        check_gradients(
            lambda xt, wt, bt: (F.linear(xt, wt, bt) ** 2).sum(),
            [rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=(3,))],
        )


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5, 7], [13, 15]]]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_max_pool_gradients_numeric(self, rng):
        x = rng.normal(size=(2, 2, 6, 6))
        check_gradients(lambda t: (F.max_pool2d(t, 2) ** 2).sum(), [x])

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])

    def test_avg_pool_gradients(self, rng):
        check_gradients(lambda t: (F.avg_pool2d(t, 2) ** 2).sum(), [rng.normal(size=(1, 2, 4, 4))])

    def test_overlapping_avg_pool(self, rng):
        check_gradients(lambda t: (F.avg_pool2d(t, 3, stride=1) ** 2).sum(), [rng.normal(size=(1, 1, 5, 5))])

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.global_avg_pool2d(float64_tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)), rtol=1e-8)


class TestBatchNorm:
    def test_normalizes_batch(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        gamma = float64_tensor(np.ones(4))
        beta = float64_tensor(np.zeros(4))
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(float64_tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_updated(self, rng):
        x = rng.normal(loc=2.0, size=(16, 3, 4, 4))
        rm, rv = np.zeros(3), np.ones(3)
        F.batch_norm2d(
            float64_tensor(x), float64_tensor(np.ones(3)), float64_tensor(np.zeros(3)),
            rm, rv, training=True, momentum=1.0,
        )
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)), rtol=1e-6)

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out = F.batch_norm2d(
            float64_tensor(x), float64_tensor(np.ones(2)), float64_tensor(np.zeros(2)),
            rm, rv, training=False,
        )
        expected = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_eval_does_not_touch_running_stats(self, rng):
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm2d(
            float64_tensor(rng.normal(size=(4, 2, 3, 3))),
            float64_tensor(np.ones(2)), float64_tensor(np.zeros(2)),
            rm, rv, training=False,
        )
        np.testing.assert_allclose(rm, 0.0)
        np.testing.assert_allclose(rv, 1.0)

    def test_training_gradients(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        g = rng.normal(size=(2,)) + 1.0
        b = rng.normal(size=(2,))

        def loss(xt, gt, bt):
            return (F.batch_norm2d(xt, gt, bt, np.zeros(2), np.ones(2), training=True) ** 2).sum()

        check_gradients(loss, [x, g, b], rtol=5e-4)

    def test_eval_gradients(self, rng):
        x = rng.normal(size=(3, 2, 3, 3))
        g = rng.normal(size=(2,)) + 1.0
        b = rng.normal(size=(2,))
        rm = np.full(2, 0.5)
        rv = np.full(2, 2.0)

        def loss(xt, gt, bt):
            return (F.batch_norm2d(xt, gt, bt, rm.copy(), rv.copy(), training=False) ** 2).sum()

        check_gradients(loss, [x, g, b])


class TestLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(float64_tensor(rng.normal(size=(5, 7))))
        np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, rtol=1e-8)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = float64_tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-8
        )

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        probs = F.softmax(x)
        np.testing.assert_allclose(probs.data, [[0.5, 0.5]])

    def test_cross_entropy_matches_nll_logsoftmax(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        ce = F.cross_entropy(float64_tensor(logits), labels)
        nll = F.nll_loss(F.log_softmax(float64_tensor(logits)), labels)
        assert float(ce.data) == pytest.approx(float(nll.data), rel=1e-8)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_gradients(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        check_gradients(lambda t: F.cross_entropy(t, labels) * 1.0, [logits])

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1]])


class TestDropoutAndMask:
    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert F.dropout(x, 0.5, training=False) is x

    def test_dropout_zero_p_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_dropout_scales_kept_values(self):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        # Expected keep fraction ~0.5.
        assert 0.4 < (out.data > 0).mean() < 0.6

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_apply_mask_broadcast_channel(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.float64).reshape(2, 3, 1, 1)
        out = F.apply_mask(float64_tensor(x), mask)
        np.testing.assert_allclose(out.data, x * mask)

    def test_apply_mask_gradient_blocks_masked(self):
        x = Tensor(np.ones((1, 2, 1, 1), dtype=np.float32), requires_grad=True)
        mask = np.array([1.0, 0.0]).reshape(1, 2, 1, 1)
        F.apply_mask(x, mask).sum().backward()
        np.testing.assert_allclose(x.grad.reshape(-1), [1.0, 0.0])
