"""Reference implementations the engine tests compare against.

:func:`per_position_conv` is the column-skipping loop the plan ran before
kept-position bucketing (``repro.core.sparse_exec._ragged_spatial_conv``)
replaced it: one sample at a time, no padding slots, no shared buckets.
The two agree to floating-point round-off at kept positions (BLAS blocks
a width-``Pq`` padded GEMM differently from a width-``npos`` exact one)
and both leave dropped positions exactly zero.

:func:`im2col_loop` is the unfold loop ``repro.nn.functional.im2col`` and
``im2col_t`` replaced; their strided gathers must reproduce it bit for bit.
"""

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.masks import output_grid_mask
from repro.nn.functional import conv_output_shape


def per_position_conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    spatial_mask: np.ndarray,
    channel_mask: Optional[np.ndarray],
    oh: int,
    ow: int,
) -> np.ndarray:
    """Column skipping one sample at a time: the spatial kernel's oracle.

    Each sample gathers its own kept channels, the patches of its kept
    output positions and its kept weight columns, and runs one
    ``(npos, K) @ (K, Cout)`` GEMM; dropped positions stay zero.
    """
    n, c = x.shape[:2]
    out_c, _, k, _ = weight.shape
    out = np.zeros((n, out_c, oh, ow), dtype=x.dtype)
    keep = output_grid_mask(spatial_mask, stride, oh, ow)
    pad = ((0, 0), (padding, padding), (padding, padding))
    for i in range(n):
        kept = np.arange(c) if channel_mask is None else np.flatnonzero(channel_mask[i])
        ys, xs = np.nonzero(keep[i])
        if kept.size == 0 or ys.size == 0:
            continue
        xg = np.pad(x[i, kept], pad) if padding > 0 else x[i, kept]
        # (C_kept, OH, OW, k, k) sliding windows — a strided view.
        windows = sliding_window_view(xg, (k, k), axis=(1, 2))[:, ::stride, ::stride]
        patches = np.moveaxis(windows[:, ys, xs], 1, 0)  # (P, C_kept, k, k)
        vals = patches.reshape(ys.size, -1) @ weight[:, kept].reshape(out_c, -1).T
        if bias is not None:
            vals = vals + bias
        out[i][:, ys, xs] = vals.T
    return out


def im2col_loop(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Reference im2col: ``(N * OH * OW, C * k * k)`` by a loop over taps.

    Materializes the full ``(N, C, k, k, OH, OW)`` patch tensor from a
    padded input copy and pays a transpose+reshape copy.
    """
    n, c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    col = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel):
        y_max = ky + stride * out_h
        for kx in range(kernel):
            x_max = kx + stride * out_w
            col[:, :, ky, kx, :, :] = x[:, :, ky:y_max:stride, kx:x_max:stride]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
