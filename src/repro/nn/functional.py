"""Differentiable neural-network operations for the ``repro.nn`` substrate.

These functions extend the elementwise/shape primitives in
:mod:`repro.nn.tensor` with the CNN-specific operations the AntiDote paper
relies on: im2col convolution, pooling, batch normalization, the softmax
cross-entropy loss, and (non-targeted) dropout.  All functions take and
return :class:`~repro.nn.tensor.Tensor` and participate in autograd.

Layout convention is NCHW throughout, matching the paper's formulation of
feature maps ``F ∈ R^{C*H*W}`` (batch axis prepended).
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "im2col",
    "im2col_t",
    "gather_patches_nhwc",
    "default_tile_rows",
    "col2im",
    "conv2d",
    "conv2d_forward",
    "conv_output_shape",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "dropout",
    "apply_mask",
    "one_hot",
    "softmax_probs",
    "predictive_entropy",
    "top2_margin",
]


# ----------------------------------------------------------------------
# im2col / col2im (pure NumPy; used inside conv/pool autograd closures)
# ----------------------------------------------------------------------
def conv_output_shape(h: int, w: int, kernel: int, stride: int, padding: int) -> Tuple[int, int]:
    """Spatial output size of a convolution/pooling window sweep."""
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel={kernel}, stride={stride}, padding={padding} does not fit input {h}x{w}"
        )
    return out_h, out_w


#: Destination-tile budget for the blocked im2col sweep.  256 KiB keeps a
#: tile comfortably inside a typical per-core L2 slice, so the strided
#: source reads stream through cache instead of thrashing it at large
#: feature maps.
L2_TILE_BYTES = 256 * 1024


@functools.lru_cache(maxsize=4096)
def default_tile_rows(channels: int, kernel: int, out_w: int, itemsize: int) -> int:
    """Output-row tile height whose patch slab fits the L2 budget.

    One output row of patches is ``channels * kernel * kernel * out_w``
    elements; the blocked gather sweeps that many rows at a time.  The
    batch size is deliberately absent: the tile copy iterates samples
    sequentially (C-order destination), so the cache-resident working set
    at any instant is one sample's source slab — sizing per batch would
    shrink tiles N-fold and buy only loop overhead.

    Memoized per ``(geometry, dtype)``: every convolution dispatch calls
    this on the hot path, and the arguments form a tiny key space
    (``itemsize`` stands in for the dtype), so an LRU cache turns the
    repeated arithmetic into one dict probe.
    """
    row_bytes = channels * kernel * kernel * out_w * itemsize
    return max(1, L2_TILE_BYTES // max(row_bytes, 1))


def _sliding_patches(
    x: np.ndarray, kernel: int, stride: int
) -> Tuple[np.ndarray, int, int]:
    """Strided patch *view* ``(N, C, OH, OW, k, k)`` of an unpadded input —
    no patch tensor is materialized and nothing is copied."""
    n, c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, kernel, stride, 0)
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    return windows[:, :, ::stride, ::stride][:, :, :out_h, :out_w], out_h, out_w


def _tap_bounds(
    offset: int, stride: int, padding: int, extent: int, out_extent: int
) -> Tuple[int, int, int]:
    """Valid output range ``[lo, hi)`` of one kernel tap, plus the input
    coordinate of its first in-bounds read.

    Tap ``offset`` reads input coordinate ``offset + stride*o - padding``
    for output position ``o``; outside ``[0, extent)`` the read falls in
    the (conceptual) zero halo.
    """
    lo = max(0, -((offset - padding) // stride))
    hi = min(out_extent, (extent - 1 + padding - offset) // stride + 1)
    return lo, hi, offset + stride * lo - padding


def _gather_taps(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    dst: np.ndarray,
    out_h: int,
    out_w: int,
    tile_rows: Optional[int],
    channels_first: bool,
) -> None:
    """Padded-destination unfold: write the interior, zero the halo.

    The pre-kernel-layer implementation materialized a padded *copy* of
    the input (``np.pad``) and gathered from a sliding-window view of it —
    the kernel layer's last per-call input copy.  This gathers tap-by-tap
    straight from the unpadded input instead: for each of the ``k*k``
    kernel taps, the in-bounds slab is a strided slice copy and the
    out-of-bounds halo bands are zero-filled in the destination.  The
    bytes written are identical to the padded gather's, so results are
    bit-for-bit the same; the ``(N, C, H+2p, W+2p)`` intermediate is gone.

    ``dst`` is the 6-D destination view — ``(N, C, k, k, OH, OW)`` when
    ``channels_first`` (the :func:`im2col_t` layout) else
    ``(N, OH, OW, C, k, k)`` (:func:`im2col`).
    """
    h, w = x.shape[2], x.shape[3]
    # One tap writes a (N, C, rows, OW) slab — 1/k² of the full patch row
    # that default_tile_rows budgets for — so the tile height scales up by
    # k² to keep the same bytes-per-tile working set.
    if tile_rows is not None:
        tile_rows = max(1, tile_rows * kernel * kernel)
    for ky in range(kernel):
        oy_lo, oy_hi, iy_lo = _tap_bounds(ky, stride, padding, h, out_h)
        for kx in range(kernel):
            ox_lo, ox_hi, ix_lo = _tap_bounds(kx, stride, padding, w, out_w)
            if channels_first:
                tap = dst[:, :, ky, kx]  # (N, C, OH, OW)
            else:
                tap = np.moveaxis(dst[..., ky, kx], 3, 1)  # view, same layout
            if oy_hi <= oy_lo or ox_hi <= ox_lo:
                tap[...] = 0
                continue
            # Zero only the halo bands, not the interior about to be filled.
            if oy_lo > 0:
                tap[:, :, :oy_lo, :] = 0
            if oy_hi < out_h:
                tap[:, :, oy_hi:, :] = 0
            if ox_lo > 0:
                tap[:, :, oy_lo:oy_hi, :ox_lo] = 0
            if ox_hi < out_w:
                tap[:, :, oy_lo:oy_hi, ox_hi:] = 0
            rows = oy_hi - oy_lo
            src = x[
                :,
                :,
                iy_lo : iy_lo + (rows - 1) * stride + 1 : stride,
                ix_lo : ix_lo + (ox_hi - ox_lo - 1) * stride + 1 : stride,
            ]
            if tile_rows is None or tile_rows >= rows:
                tap[:, :, oy_lo:oy_hi, ox_lo:ox_hi] = src
            else:
                for row in range(0, rows, tile_rows):
                    stop = min(row + tile_rows, rows)
                    tap[:, :, oy_lo + row : oy_lo + stop, ox_lo:ox_hi] = src[:, :, row:stop]


def _check_out(out: np.ndarray, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    if out.shape != shape:
        raise ValueError(f"out buffer has shape {out.shape}, expected {shape}")
    if out.dtype != dtype:
        raise ValueError(f"out buffer has dtype {out.dtype}, expected {dtype}")
    if not out.flags.c_contiguous:
        raise ValueError("out buffer must be C-contiguous")
    return out


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW image batches into a patch matrix.

    Returns an array of shape ``(N * out_h * out_w, C * kernel * kernel)``
    where each row is one receptive field, so convolution becomes a single
    matrix multiply against the reshaped filter bank.

    The unfold is a single strided gather from a
    ``sliding_window_view`` — no intermediate ``(N, C, k, k, OH, OW)``
    tensor and no transpose copy.  With ``padding > 0`` the gather runs
    tap-by-tap against the *unpadded* input, zero-filling the halo bands
    in the destination (:func:`_gather_taps`) — no padded copy of the
    input is ever materialized.  The tap-wise sweep does not change the
    result; it only reorders the copy.
    """
    n, c = x.shape[:2]
    out_h, out_w = conv_output_shape(x.shape[2], x.shape[3], kernel, stride, padding)
    out = np.empty((n * out_h * out_w, c * kernel * kernel), dtype=x.dtype)
    dst = out.reshape(n, out_h, out_w, c, kernel, kernel)
    if padding > 0:
        _gather_taps(
            x, kernel, stride, padding, dst, out_h, out_w, None, channels_first=False
        )
        return out
    patches, _, _ = _sliding_patches(x, kernel, stride)
    dst[...] = patches.transpose(0, 2, 3, 1, 4, 5)
    return out


def im2col_t(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
    tile_rows: Optional[int] = None,
) -> np.ndarray:
    """Channels-first unfold: ``(N, C * kernel * kernel, OH * OW)``.

    The transposed twin of :func:`im2col`, laid out so the convolution
    GEMM ``weight_matrix @ col[n]`` produces ``(out_c, OH * OW)`` — NCHW
    output order directly, with no transpose copy on the *result* side.
    This is the layout the sparse engine's kernel layer computes in: one
    gather in, GEMM straight into the output tensor.  Like :func:`im2col`,
    padding is applied as zero-filled destination halo bands rather than a
    padded input copy.  ``out`` lets callers (the sparse engine's
    workspace arena) provide the destination buffer, making the whole
    operation allocation-free; ``tile_rows`` blocks the gather over
    output-row tiles (see :func:`default_tile_rows`) so large feature maps
    stream through L2 instead of thrashing it.  Tiling only reorders the
    copy, so it never changes the result.
    """
    n, c = x.shape[:2]
    out_h, out_w = conv_output_shape(x.shape[2], x.shape[3], kernel, stride, padding)
    shape = (n, c * kernel * kernel, out_h * out_w)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    else:
        _check_out(out, shape, x.dtype)
    dst = out.reshape(n, c, kernel, kernel, out_h, out_w)
    if padding > 0:
        _gather_taps(
            x, kernel, stride, padding, dst, out_h, out_w, tile_rows,
            channels_first=True,
        )
        return out
    patches, _, _ = _sliding_patches(x, kernel, stride)
    src = patches.transpose(0, 1, 4, 5, 2, 3)
    if tile_rows is None or tile_rows >= out_h:
        dst[...] = src
    else:
        for row in range(0, out_h, tile_rows):
            stop = min(row + tile_rows, out_h)
            dst[:, :, :, :, row:stop] = src[:, :, :, :, row:stop]
    return out


def gather_patches_nhwc(
    xpt: np.ndarray,
    kernel: int,
    stride: int,
    out_w: int,
    positions: np.ndarray,
    out: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Kept-position conv patches out of a padded channels-last input.

    Skips the full unfold entirely: instead of materializing every output
    column with :func:`im2col_t` and then selecting a subset, it gathers
    only the requested columns straight from the (already zero-padded)
    ``(N, Hp, Wp, C)`` channels-last input — tap by tap, so every copy
    runs over contiguous length-``C`` channel runs.  Gather traffic is
    proportional to the *kept* fraction, which is what makes ragged
    spatial execution profitable at low keep.

    ``positions`` holds one row of flattened output-grid ids
    (``pos = y * out_w + x``) per gathered sample, shape ``(G, Pq)``;
    duplicates are allowed (ragged buckets pad short rows by re-gathering
    position 0 and discard the padded slots on scatter-back).  ``rows``
    optionally selects which ``G`` samples of ``xpt`` to gather from
    (default: the first ``G`` in order).

    Returns the ``(G, Pq, kernel*kernel*C)`` destination (``out`` when
    provided, e.g. a workspace-arena view) — patch-major rows whose
    ``K`` ordering is ``(ky, kx, c)``, matching a
    ``weight.transpose(0, 2, 3, 1)`` flattening.
    """
    if xpt.ndim != 4:
        raise ValueError(f"xpt must be (N, Hp, Wp, C) channels-last, got shape {xpt.shape}")
    if positions.ndim != 2:
        raise ValueError(f"positions must be (G, Pq), got shape {positions.shape}")
    n, hp, wp, c = xpt.shape
    g, pq = positions.shape
    if rows is None:
        if g > n:
            raise ValueError(f"positions has {g} rows but xpt has only {n} samples")
        rows = np.arange(g)
    elif rows.shape != (g,):
        raise ValueError(f"rows must have shape ({g},), got {rows.shape}")
    out_h = (hp - kernel) // stride + 1
    if positions.size:
        pmax = int(positions.max())
        if int(positions.min()) < 0 or pmax >= out_h * out_w or pmax // out_w >= out_h:
            raise IndexError(
                f"positions out of range for a {out_h}x{out_w} output grid"
            )
    shape = (g, pq, kernel * kernel * c)
    if out is None:
        out = np.empty(shape, dtype=xpt.dtype)
    else:
        _check_out(out, shape, xpt.dtype)
    if not xpt.flags.c_contiguous:
        xpt = np.ascontiguousarray(xpt)
    # One gather for the whole patch: a patch row is ``kernel * C``
    # contiguous elements in channels-last layout, so a 2-D sliding
    # window over the flattened ``(Hp, Wp * C)`` plane makes every patch
    # one ``(kernel, kernel * C)`` item — k long memcpy runs per gathered
    # position, with the per-item indexing overhead paid once, not k times.
    patch_view = sliding_window_view(
        xpt.reshape(n, hp, wp * c), (kernel, kernel * c), axis=(1, 2)
    )
    ys = (positions // out_w) * stride
    xcol = (positions % out_w) * (stride * c)
    out.reshape(g, pq, kernel, kernel * c)[...] = patch_view[rows[:, None], ys, xcol]
    return out


def col2im(
    col: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch-matrix gradient back onto the (padded) input.

    Inverse of :func:`im2col` under summation: overlapping patch positions
    accumulate, which is exactly the convolution input gradient.
    """
    n, c, h, w = input_shape
    out_h, out_w = conv_output_shape(h, w, kernel, stride, padding)
    col = col.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=col.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            padded[:, :, ky:y_max:stride, kx:x_max:stride] += col[:, :, ky, kx, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


# ----------------------------------------------------------------------
# Convolution and linear
# ----------------------------------------------------------------------
def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw-array convolution forward (one im2col + one GEMM, no autograd).

    The forward half of the autograd :func:`conv2d`.  Returns ``(out, col,
    w_mat)`` so the caller can reuse the unfolded patch matrix in its
    backward pass.  (The sparse engine's dense path unfolds with
    :func:`im2col_t` instead, straight into NCHW output.)
    """
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    if kh != kw:
        raise ValueError("only square kernels are supported")
    if in_c != c:
        raise ValueError(f"input has {c} channels but weight expects {in_c}")
    out_h, out_w = conv_output_shape(h, w, kh, stride, padding)
    col = im2col(x, kh, stride, padding)
    w_mat = weight.reshape(out_c, -1)
    out = col @ w_mat.T
    if bias is not None:
        out = out + bias
    return out.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2), col, w_mat


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW batch.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``.
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    out_c = weight.shape[0]
    kernel = weight.shape[2]
    out, col, w_mat = conv2d_forward(
        x.data, weight.data, None if bias is None else bias.data, stride, padding
    )

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, out_c)
        if bias is not None:
            bias.accumulate_grad(g_mat.sum(axis=0))
        if weight.requires_grad:
            weight.accumulate_grad((g_mat.T @ col).reshape(weight.shape))
        if x.requires_grad:
            dcol = g_mat @ w_mat
            x.accumulate_grad(col2im(dcol, (n, c, h, w), kernel, stride, padding))

    return Tensor.from_op(np.ascontiguousarray(out), parents, backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    x = as_tensor(x)

    def backward(g: np.ndarray) -> None:
        if bias is not None:
            bias.accumulate_grad(g.sum(axis=0))
        if weight.requires_grad:
            weight.accumulate_grad(g.T @ x.data)
        if x.requires_grad:
            x.accumulate_grad(g @ weight.data)

    out = x.data @ weight.data.T
    if bias is not None:
        out = out + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out, parents, backward)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over NCHW input; default stride equals the kernel size."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, kernel, stride, 0)

    col = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    argmax = col.argmax(axis=1)
    out = col[np.arange(col.shape[0]), argmax]
    out = out.reshape(n, c, out_h, out_w)

    def backward(g: np.ndarray) -> None:
        dcol = np.zeros_like(col)
        dcol[np.arange(col.shape[0]), argmax] = g.reshape(-1)
        dx = col2im(dcol, (n * c, 1, h, w), kernel, stride, 0)
        x.accumulate_grad(dx.reshape(n, c, h, w))

    return Tensor.from_op(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    """Average pooling over NCHW input; default stride equals the kernel."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, kernel, stride, 0)

    col = im2col(x.data.reshape(n * c, 1, h, w), kernel, stride, 0)
    out = col.mean(axis=1).reshape(n, c, out_h, out_w)
    window = kernel * kernel

    def backward(g: np.ndarray) -> None:
        dcol = np.repeat(g.reshape(-1, 1) / window, window, axis=1)
        dx = col2im(dcol, (n * c, 1, h, w), kernel, stride, 0)
        x.accumulate_grad(dx.reshape(n, c, h, w))

    return Tensor.from_op(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial mean of every channel — the paper's Eq. 1 building block."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Normalization
# ----------------------------------------------------------------------
def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalization over the channel axis of an NCHW tensor.

    ``running_mean``/``running_var`` are updated *in place* during training
    (they are module buffers, not autograd leaves).
    """
    n, c, h, w = x.shape
    axes = (0, 2, 3)
    count = n * h * w

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        # Unbiased variance for the running estimate, as torch does.
        unbiased = var * count / max(count - 1, 1)
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var

    mean_b = mean.reshape(1, c, 1, 1)
    inv_std = 1.0 / np.sqrt(var + eps)
    inv_std_b = inv_std.reshape(1, c, 1, 1)
    x_hat = (x.data - mean_b) * inv_std_b
    out = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    def backward(g: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma.accumulate_grad((g * x_hat).sum(axis=axes))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=axes))
        if not x.requires_grad:
            return
        gamma_b = gamma.data.reshape(1, c, 1, 1)
        if training:
            # Full batch-norm backward: mean and var depend on x.
            dxhat = g * gamma_b
            term1 = dxhat
            term2 = dxhat.mean(axis=axes, keepdims=True)
            term3 = x_hat * (dxhat * x_hat).mean(axis=axes, keepdims=True)
            x.accumulate_grad((term1 - term2 - term3) * inv_std_b)
        else:
            x.accumulate_grad(g * gamma_b * inv_std_b)

    return Tensor.from_op(out, (x, gamma, beta), backward)


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding of an integer label vector."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy with integer targets (fused, stable)."""
    labels = np.asarray(labels)
    n, k = logits.shape
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()

    def backward(g: np.ndarray) -> None:
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        logits.accumulate_grad(grad * (float(g) / n))

    return Tensor.from_op(np.asarray(loss, dtype=logits.data.dtype), (logits,), backward)


def nll_loss(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over integer targets."""
    labels = np.asarray(labels)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


# ----------------------------------------------------------------------
# Confidence statistics (plain ndarray in/out; no autograd)
# ----------------------------------------------------------------------
def softmax_probs(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax probabilities of a logit array, shift-stabilized.

    Same max-subtraction trick as the fused :func:`cross_entropy`, but on
    raw ndarrays — this is the serving-side entry point for confidence
    gates, where logits are plain arrays rather than autograd tensors.
    """
    logits = np.asarray(logits)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def predictive_entropy(logits: np.ndarray, axis: int = -1, normalize: bool = True) -> np.ndarray:
    """Entropy of the softmax distribution along ``axis``.

    Computed from log-probabilities (``shifted - log(sum exp)``) so a
    saturated class contributes exactly ``0`` instead of ``0 * log(0)``
    NaN.  With ``normalize=True`` the result is divided by ``log(K)`` so
    it lies in ``[0, 1]`` regardless of class count — uniform logits give
    1.0, a one-hot distribution gives 0.0.
    """
    logits = np.asarray(logits)
    k = logits.shape[axis]
    if k < 2:
        return np.zeros(np.delete(logits.shape, axis))
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=axis, keepdims=True)
    probs = exp / z
    log_probs = shifted - np.log(z)
    entropy = -(probs * log_probs).sum(axis=axis)
    if normalize:
        entropy = entropy / np.log(k)
    return entropy


def top2_margin(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Top-1 minus top-2 softmax probability along ``axis``.

    Uses :func:`np.partition` (O(K)) rather than a full sort; a single
    class yields margin 1.0 (nothing to confuse it with).
    """
    probs = softmax_probs(logits, axis=axis)
    if probs.shape[axis] < 2:
        return np.ones(np.delete(probs.shape, axis))
    part = np.partition(probs, -2, axis=axis)
    top1 = np.take(part, -1, axis=axis)
    top2 = np.take(part, -2, axis=axis)
    return top1 - top2


# ----------------------------------------------------------------------
# Dropout and masking
# ----------------------------------------------------------------------
def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Standard inverted dropout (the *random* kind, for regularization).

    The paper's *targeted* dropout lives in :mod:`repro.core.ttd`; it uses
    :func:`apply_mask` with an attention-derived mask instead of a Bernoulli
    mask.
    """
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng or np.random.default_rng()
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return apply_mask(x, keep)


def apply_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """Multiply ``x`` by a constant (non-differentiable) mask.

    Implements the paper's Eq. 5 element-wise product ``F ⊗ M`` with NumPy
    broadcasting: channel masks of shape ``(N, C, 1, 1)`` and spatial masks
    of shape ``(N, 1, H, W)`` broadcast across the remaining axes.  Gradients
    flow through the kept entries only — the regular back-propagation the
    paper specifies for the targeted-dropout layer.
    """
    mask = np.asarray(mask, dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        x.accumulate_grad(g * mask)

    return Tensor.from_op(x.data * mask, (x,), backward)
