"""Batched sparse inference engine: actually *skipping* the pruned work.

The training-side implementation of AntiDote (like the paper's own PyTorch
implementation) applies binary masks and lets the dense convolution run —
FLOPs savings are *accounted* analytically.  This module is the deployment
engine that realizes those savings on CPU, at batch scale:

* **Channel kernel** (:func:`_channel_conv`): every channel-only mask,
  fixed top-k and adaptive (threshold-mode) alike, runs one kernel.
  Samples are grouped by their kept-channel count rounded up to a
  quantum (1 at top-k sites, :data:`KEPT_QUANTUM` at adaptive ones); per
  group each sample's kept input channels are gathered and
  unfolded in cache-sized sample tiles, its kept weight rows are gathered
  from a channel-major ``(Cin, k*k, Cout)`` copy of the fused weight (one
  contiguous run per channel, rounding-tail rows zeroed), and one batched
  GEMM writes the NCHW output — bit-identical to per-request execution
  by construction.
* **Ragged spatial bucketing** (:func:`_ragged_spatial_conv`): the same
  treatment for kept *positions*, and the kernel every spatial mask runs
  — fixed top-k column sites (the paper's Table I ResNet-56 setting) as
  well as adaptive ones.  Samples are grouped by exact
  kept-channel count, each group's padded channels-last input and
  per-sample weight stack are gathered once, and samples are bucketed by
  their quantized kept-position count on the conv's output grid; each
  bucket gathers only its kept patches
  (:func:`repro.nn.functional.gather_patches_nhwc`) — padding slots
  re-gather position 0 — and runs one batched GEMM, every sample with its
  own weight slice.  Padded slots are discarded on scatter-back, so kept
  positions are bit-identical to per-request execution by construction
  and dropped positions stay exactly zero (the paper's Sec. III-B skip
  semantics).  The per-sample gather + GEMM loop it replaced is the
  tests' oracle (``tests/oracles.py``).
* **Plan compilation** (:class:`ExecutionPlan`): the layer graph is walked
  once per model at executor construction — Conv→BN(→ReLU) chains are fused
  into a single op (BN folded into the conv weights at eval time, which
  are then also stored channel-major for the channel kernel), output
  shapes are memoized per input geometry, and every convolution dispatches
  to a dense fast path when a top-k mask prunes less than
  :data:`DENSE_THRESHOLD` (gather overhead would exceed the skipped work).
* **Zero-copy kernel layer**: every convolution unfolds its input with the
  channels-first :func:`repro.nn.functional.im2col_t` gather (blocked over
  output-row tiles at large feature maps) straight into a plan-owned
  :class:`~repro.core.workspace.WorkspaceArena` buffer, and the GEMM runs
  ``np.matmul(weight_matrix, col, out=...)`` directly into the NCHW output
  tensor — no patch-tensor materialization, no result transpose, and no
  steady-state scratch allocation.  Arenas are per-thread
  (:class:`~repro.core.workspace.ArenaPool`), so one compiled plan serves
  N session workers concurrently over its read-only fused weights.

Numerical contract (see ``tests/test_sparse_engine.py``):

* **Channel skipping** is numerically equivalent to the dense masked
  convolution — a zeroed input channel contributes nothing to any output,
  so gathering kept channels/weight rows computes the same sums over
  ``kept/C`` of the work.
* **Column skipping** follows the paper's operational semantics (Sec.
  III-B): output positions whose input column was removed are skipped and
  treated as zero downstream.  At kept positions the result equals the
  dense masked convolution when the dropped columns are zero in the input
  (which is how the masks are applied).

The engine is eval-only and operates on raw NumPy arrays (no autograd),
which is exactly the deployment setting the paper targets.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..obs import runtime as _obs

from ..models.resnet import BasicBlock, ResNet
from ..nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from ..nn import functional as F
from .masks import group_by_kept_count, output_grid_mask, reserved_count
from .pruning import DynamicPruning
from .workspace import ArenaPool, WorkspaceArena

__all__ = [
    "sparse_conv2d",
    "PlanConfig",
    "ExecutionPlan",
    "ResNetPlan",
    "SparseSequentialExecutor",
    "SparseResNetExecutor",
    "output_keep_grid",
    "UnsupportedGraphError",
]


class UnsupportedGraphError(TypeError):
    """A layer graph the plan compiler cannot execute.

    The ``auto`` engine backend falls back to the dense forward on this
    error alone, so a ``TypeError`` raised for any other reason (a
    mistyped keyword, a bug while compiling a supported graph) surfaces.
    """


#: Per-chunk im2col budget for the channel kernel's sample tiling.  A
#: kept-count group is executed in chunks whose unfolded patch slab stays
#: within this many bytes, so the im2col → GEMM round trip runs out of
#: cache instead of spilling a whole group's tens of megabytes to DRAM
#: and reading them straight back.  Tiling only splits the gufunc batch
#: axis — every per-sample GEMM slice keeps the same shape, strides, and
#: operand values — so results are bit-identical at any tile size.
RAGGED_TILE_BYTES = 4 * 1024 * 1024

#: Minimum pruned fraction of a top-k mask for a plan to run the sparse
#: kernels.  Below it the gather overhead outweighs the skipped work, so
#: the convolution runs dense on the already-masked input (channel results
#: are identical; dropped output columns are zeroed after the fact to keep
#: the skip semantics).  Adaptive masks never take this shortcut: their
#: batch mean depends on who shares the batch.
DENSE_THRESHOLD = 0.15

#: Rounding quantum for adaptive (threshold-mode) channel sites: per-sample
#: kept counts are rounded up to the next multiple before grouping, so
#: near-miss counts share a GEMM at the cost of at most three zero-weight
#: channels per sample.  Also the floor of the spatial kernel's
#: kept-position quantum.
KEPT_QUANTUM = 4


def _ensure_contiguous(arr: np.ndarray) -> np.ndarray:
    """Copy only when actually needed — the redundant-copy guard.

    ``np.ascontiguousarray`` on an already-contiguous array is cheap but
    not free (it re-runs dtype/layout resolution); the hot path calls this
    instead so steady-state traffic skips the machinery entirely.
    """
    if arr.flags.c_contiguous:
        return arr
    return np.ascontiguousarray(arr)


def _matmul_into(a: np.ndarray, b: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """``dst[...] = a @ b`` without a temporary when dtypes permit.

    ``np.matmul(..., out=)`` requires the result dtype to match ``dst``
    exactly; mixed-precision callers (rare — raw ``sparse_conv2d`` use)
    fall back to an allocating matmul plus a casting copy.
    """
    if a.dtype == b.dtype == dst.dtype:
        return np.matmul(a, b, out=dst)
    dst[...] = np.matmul(a, b)
    return dst


def _take(
    arena: Optional[WorkspaceArena], tag: str, shape: Tuple[int, ...], dtype: object
) -> np.ndarray:
    """Arena view when a workspace is available, fresh buffer otherwise."""
    if arena is None:
        return np.empty(shape, dtype=dtype)
    return arena.take(tag, shape, dtype)


def _channel_major(weight: np.ndarray) -> np.ndarray:
    """``(Cout, Cin, k, k)`` weights as a contiguous ``(Cin, k*k, Cout)`` copy.

    Each input channel's weights become one contiguous ``k*k*Cout`` run,
    so gathering a sample's kept channels copies whole rows.
    """
    out_c, c, k, _ = weight.shape
    return np.ascontiguousarray(weight.transpose(1, 2, 3, 0)).reshape(c, k * k, out_c)


def _dense_conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    arena: Optional[WorkspaceArena],
    oh: int,
    ow: int,
) -> np.ndarray:
    """The unmasked convolution on the zero-copy kernels.

    Channels-first unfold into the workspace, then per-sample
    ``(Cout, K) @ (K, OH*OW)`` GEMM slices straight into the NCHW output,
    so each sample's result is independent of the batch it shares.
    """
    n, c = x.shape[:2]
    out_c, _, k, _ = weight.shape
    col = F.im2col_t(
        x, k, stride, padding,
        out=_take(arena, "im2col", (n, c * k * k, oh * ow), x.dtype),
        tile_rows=F.default_tile_rows(c, k, ow, x.dtype.itemsize),
    )
    out = np.empty((n, out_c, oh, ow), dtype=x.dtype)
    _matmul_into(weight.reshape(out_c, -1), col, out.reshape(n, out_c, oh * ow))
    if bias is not None:
        out += bias.reshape(1, out_c, 1, 1)
    return out


# ----------------------------------------------------------------------
# Channel kernel
# ----------------------------------------------------------------------
def _channel_conv(
    x: np.ndarray,
    wt: np.ndarray,
    bias: Optional[np.ndarray],
    k: int,
    stride: int,
    padding: int,
    mask: np.ndarray,
    *,
    quantum: int,
    arena: Optional[WorkspaceArena],
    oh: int,
    ow: int,
) -> np.ndarray:
    """Channel skipping: one batched GEMM per kept-count group.

    ``wt`` is the convolution's channel-major ``(Cin, k*k, Cout)`` weight
    (:func:`_channel_major`).  Samples are grouped by their kept-channel
    count rounded up to ``quantum``
    (:func:`~repro.core.masks.group_by_kept_count`): 1 for top-k masks,
    whose counts are equal, :data:`KEPT_QUANTUM` for adaptive ones.  Per
    group, in sample tiles whose unfolded slab fits
    :data:`RAGGED_TILE_BYTES`, each sample's kept input channels are
    gathered and unfolded with :func:`repro.nn.functional.im2col_t`, its
    kept weight rows are gathered into a ``(G, q*k*k, Cout)`` stack, and
    one batched GEMM — the stack passed as a transposed operand — writes
    ``(Cout, OH*OW)`` per sample straight into the NCHW output.

    A sample whose count falls short of its group's width ``q`` fills the
    rounding tail with its own dropped channels, whose weight rows are
    zeroed, so they add exact zeros and the result honours the
    channel-skip contract even on an unmasked input.  All-dropped samples
    compute nothing and stay exactly zero.

    Batch invariance is by construction: a sample's group width depends
    only on its own mask and the fixed quantum, and its GEMM slice has the
    same shape, strides and operand values whether it runs alone or in a
    window, so per-request execution reproduces the batched output bit for
    bit.  Tiling only splits the batch axis of the GEMM.
    """
    n, c, h, w = x.shape
    kk = k * k
    out_c = wt.shape[2]
    positions = oh * ow
    counts = mask.sum(axis=1)
    groups = group_by_kept_count(mask, quantum)
    # All-dropped samples compute nothing; only then does the output need
    # pre-zeroing (every other group fully writes its rows).
    out = (np.zeros if groups[0][0] == 0 else np.empty)((n, out_c, oh, ow), dtype=x.dtype)
    out_flat = out.reshape(n, out_c, positions)
    x_rows = x.reshape(n * c, h, w)
    for q, idx in groups:
        if q == 0:
            continue
        # Each sample's kept channels ascending, then its dropped channels
        # filling the rounding tail (stable sort: False < True).
        order = np.argsort(~mask[idx], axis=1, kind="stable")[:, :q]
        cols = q * kk
        tile = max(1, RAGGED_TILE_BYTES // (cols * positions * x.dtype.itemsize))
        for start in range(0, idx.size, tile):
            chunk = idx[start : start + tile]
            csz = chunk.size
            rows = order[start : start + tile]
            xg = _take(arena, "channel_x", (csz, q, h, w), x.dtype)
            np.take(x_rows, chunk[:, None] * c + rows, axis=0, out=xg, mode="clip")
            col = F.im2col_t(
                xg, k, stride, padding,
                out=_take(arena, "im2col", (csz, cols, positions), x.dtype),
                tile_rows=F.default_tile_rows(q, k, ow, x.dtype.itemsize),
            )
            w_stack = _take(arena, "channel_w", (csz, q, kk, out_c), wt.dtype)
            # ``order`` comes from argsort, so every index is in range;
            # "clip" skips the bounds-checked buffered copy of "raise".
            np.take(wt, rows, axis=0, out=w_stack, mode="clip")
            w_stack[np.nonzero(np.arange(q) >= counts[chunk][:, None])] = 0.0
            if idx.size == n:
                # The group is the whole batch, so the tile is a slice of it.
                dst = out_flat[start : start + csz]
            else:
                dst = _take(arena, "gemm", (csz, out_c, positions), x.dtype)
            # (Cout, q*k*k) @ (q*k*k, OH*OW) per sample, the stack transposed.
            _matmul_into(w_stack.reshape(csz, cols, out_c).transpose(0, 2, 1), col, dst)
            if bias is not None:
                dst += bias[:, None]
            if idx.size != n:
                out_flat[chunk] = dst
    return out


# ----------------------------------------------------------------------
# Ragged (kept-position-bucketed) spatial convolution
# ----------------------------------------------------------------------
def output_keep_grid(
    spatial_mask: np.ndarray, stride: int, oh: int, ow: int
) -> np.ndarray:
    """A spatial mask restricted to the ``(oh, ow)`` output grid, exactly.

    :func:`~repro.core.masks.output_grid_mask` is a clipped strided view,
    which can come up *short* of ``(oh, ow)`` when heavy padding makes
    the output grid outrun the subsampled mask.  Positions past the
    mask's extent have no surviving input column, so they count as
    dropped (matching the per-position path, where ``nonzero()`` simply
    never yields them) — this helper pads them with ``False`` so callers
    can rely on the full output-grid shape for bucketing, zeroing, and
    telemetry alike.
    """
    grid = output_grid_mask(np.asarray(spatial_mask, dtype=bool), stride, oh, ow)
    if grid.shape[1] != oh or grid.shape[2] != ow:
        full = np.zeros((grid.shape[0], oh, ow), dtype=bool)
        full[:, : grid.shape[1], : grid.shape[2]] = grid
        return full
    return grid


def _ragged_spatial_conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    spatial_mask: np.ndarray,
    channel_mask: Optional[np.ndarray],
    *,
    kept_quantum: int,
    arena: Optional[WorkspaceArena],
    oh: int,
    ow: int,
) -> np.ndarray:
    """Column skipping: one batched GEMM per kept-position bucket.

    The kernel for every spatial mask, fixed top-k and adaptive
    alike.  Samples are grouped by their exact kept-*channel* count (a
    top-k channel mask keeps the same count in every sample, so a batch
    forms one group however its masks differ).  Per group, the
    zero-padded input is gathered channels-last with each sample's own
    kept channels, and a per-sample ``(Cout, k*k*kept)`` weight stack is
    gathered alongside — one vectorized gather each, into arena buffers.
    Within the group, samples are bucketed by their kept-position count
    on the *output grid* quantized up to an effective quantum
    (:func:`~repro.core.masks.group_by_kept_count`); the group's stack is
    laid out bucket by bucket, so every bucket is a contiguous run of
    it.  Each bucket gathers only its kept columns with
    :func:`repro.nn.functional.gather_patches_nhwc` into a ``(G, Pq, K)``
    slab — contiguous channel runs, traffic proportional to the kept
    fraction, no full unfold — and runs ONE batched GEMM in which every
    sample multiplies its own weight slice.

    Padding slots (slot index >= the sample's true kept count) simply
    re-gather position 0: they produce well-defined garbage that is
    **discarded on scatter-back** — only valid slots are written to the
    output, which is pre-zeroed, so dropped positions are exactly zero
    (the paper's Sec. III-B skip semantics) and kept positions never see a
    padded operand.

    Batch-invariance is by construction, same argument as
    :func:`_channel_conv`: a sample's bucket width is
    ``quantize_kept_count`` of its *own* kept-position count, its gather
    orders and weight slice depend only on its own masks, and batched 3-D
    GEMM slices compute bitwise the same as the single-sample GEMM over
    identical operands.  Executing the same sample per-request therefore
    reproduces its batched output bit for bit.  (The K ordering is
    ``(ky, kx, c)`` here versus ``im2col_t``'s ``(c, ky, kx)`` — a
    different but fixed summation order, so the kernel agrees with the
    per-position oracle in ``tests/oracles.py`` to floating-point
    round-off while remaining exactly reproducible against itself.)
    """
    n, c, h, w = x.shape
    out_c = weight.shape[0]
    k = weight.shape[2]
    kk = k * k
    positions = oh * ow
    # Channel quanta (~4 over tens of channels) are far too fine for a
    # grid of thousands of positions: threshold masks rarely agree on a
    # quantized count, so every sample would land in its own bucket.
    # ``kept_quantum`` therefore acts as a *floor*, and the effective
    # quantum scales with the grid — 1/32 of it bounds both the bucket
    # population (<= 32 GEMM shapes) and the padding tax (< ~3% of
    # positions per sample).  The clamp depends only on the static
    # geometry, so it never breaks batch-invariance; a ``kept_quantum``
    # above the floor buckets more coarsely.
    quantum = max(int(kept_quantum), -(-positions // 32))
    keep_flat = output_keep_grid(spatial_mask, stride, oh, ow).reshape(n, positions)
    pos_counts = keep_flat.sum(axis=1)
    # Dropped positions must stay exactly zero -> pre-zero the output and
    # only ever write valid slots.
    out = np.zeros((n, out_c, oh, ow), dtype=x.dtype)
    out_flat = out.reshape(n, out_c, positions)

    if channel_mask is None:
        groups = [(c, np.arange(n))]
    else:
        groups = group_by_kept_count(channel_mask, 1)

    hp, wp = h + 2 * padding, w + 2 * padding
    # NHWC-flattened weights: K ordering (ky, kx, c), matching the patch
    # rows gather_patches_nhwc produces.
    w_nhwc = weight.transpose(0, 2, 3, 1).reshape(out_c, kk, c)
    for ck, gidx in groups:
        if ck == 0:
            continue  # every channel dropped -> output stays zero
        buckets = [
            (count, gidx[bidx])
            for count, bidx in group_by_kept_count(keep_flat[gidx], quantum)
            if count > 0  # all positions dropped -> rows stay zero
        ]
        if not buckets:
            continue
        # The group's samples in bucket order: each bucket below is one
        # contiguous run of the gathered input and weight stacks.
        sel = buckets[0][1] if len(buckets) == 1 else np.concatenate(
            [idx for _, idx in buckets]
        )
        m = int(sel.size)
        full_channels = ck == c
        if full_channels:
            # Every sample keeps every channel: one shared weight matrix.
            src = x if m == n and len(buckets) == 1 else x[sel]
            w_op: np.ndarray = _ensure_contiguous(w_nhwc.reshape(out_c, -1)).T
        else:
            # Each sample's kept channels, ascending (stable: False < True).
            kept = np.argsort(~channel_mask[sel], axis=1, kind="stable")[:, :ck]
            src = x[sel[:, None], kept]
            w_stack = _take(arena, "spatial_w", (m, out_c, kk * ck), weight.dtype)
            w_stack.reshape(m, out_c, kk, ck)[...] = w_nhwc[:, :, kept].transpose(
                2, 0, 1, 3
            )
            w_op = w_stack.transpose(0, 2, 1)  # (m, K, Cout), zero-copy transB
        # Zero-padded channels-last input, materialized once per group so
        # the patch gather reads contiguous channel runs.  The halo must
        # be re-zeroed every call (arena buffers are reused).
        xg_t = _take(arena, "spatial_x", (m, hp, wp, ck), x.dtype)
        if padding > 0:
            xg_t[:, :padding, :, :] = 0.0
            xg_t[:, hp - padding:, :, :] = 0.0
            xg_t[:, :, :padding, :] = 0.0
            xg_t[:, :, wp - padding:, :] = 0.0
        xg_t[:, padding:padding + h, padding:padding + w, :] = np.moveaxis(src, 1, 3)

        start = 0
        for bucket_count, idx in buckets:
            g = int(idx.size)
            stop = start + g
            rows_keep = keep_flat[idx]
            # Per-sample padded column order: kept positions ascending, the
            # quantization tail re-gathering position 0 (discarded below).
            order = np.ascontiguousarray(
                np.argsort(~rows_keep, axis=1, kind="stable")[:, :bucket_count]
            )
            valid = np.arange(bucket_count)[None, :] < pos_counts[idx][:, None]
            order[~valid] = 0
            sub = F.gather_patches_nhwc(
                xg_t, k, stride, ow, order,
                out=_take(arena, "spatial_col", (g, bucket_count, ck * kk), x.dtype),
                rows=np.arange(start, stop),
            )
            dst = _take(arena, "spatial_gemm", (g, bucket_count, out_c), x.dtype)
            # One batched GEMM: (G, Pq, K) against each sample's (K, Cout).
            _matmul_into(sub, w_op if full_channels else w_op[start:stop], dst)
            if bias is not None:
                dst += bias
            # Scatter valid slots only; padded slots are dropped here.
            rs, ss = np.nonzero(valid)
            out_flat[idx[rs], :, order[rs, ss]] = dst[rs, ss, :]
            start = stop
    return out


# ----------------------------------------------------------------------
# Batched sparse convolution
# ----------------------------------------------------------------------
def sparse_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    channel_mask: Optional[np.ndarray] = None,
    spatial_mask: Optional[np.ndarray] = None,
    *,
    arena: Optional[WorkspaceArena] = None,
    ragged: bool = False,
    kept_quantum: int = KEPT_QUANTUM,
) -> np.ndarray:
    """Batched convolution that skips pruned input channels and columns.

    Parameters
    ----------
    x:
        Input batch, NCHW.
    weight / bias / stride / padding:
        Convolution parameters (weight ``(Cout, Cin, k, k)``).
    channel_mask:
        Optional ``(N, Cin)`` boolean mask.  Without a spatial mask the
        channel kernel (:func:`_channel_conv`) runs over each sample's
        kept channels only, on a channel-major view of ``weight`` built
        per call (exactly equivalent to the dense masked conv).
    spatial_mask:
        Optional ``(N, H, W)`` boolean mask over the *input* columns; output
        positions mapping to dropped columns are skipped and left zero (the
        paper's skip semantics).  With ``stride > 1`` the mask is subsampled
        to the output grid.  For kept positions to agree exactly with the
        dense masked convolution the input must already have its dropped
        columns zeroed (receptive fields overlap columns; the executors
        apply the mask before calling).  Every spatial mask runs the
        kept-position bucketed kernel (:func:`_ragged_spatial_conv`).
    arena:
        Optional :class:`~repro.core.workspace.WorkspaceArena` supplying
        the kernels' scratch buffers.  Without one, scratch is freshly
        allocated per call (same results, more allocator traffic).
        Arenas are single-thread-only; concurrent callers pass their own
        (plans hand out one per thread).
    ragged / kept_quantum:
        ``ragged=True`` rounds the channel kernel's per-sample kept-channel
        counts up to a multiple of ``kept_quantum`` before grouping (the
        setting for *adaptive* masks, whose counts differ per sample);
        otherwise samples group by exact count.  Either way results are
        bit-identical to per-request execution.  Spatial masks are
        bucketed whatever the flag; ``kept_quantum`` is the floor of their
        kept-position quantum.  The default is the plans' :data:`KEPT_QUANTUM`.

    Returns
    -------
    Output batch ``(N, Cout, OH, OW)``.
    """
    n, c, h, w = x.shape
    out_c, in_c, k, _ = weight.shape
    if in_c != c:
        raise ValueError(f"weight expects {in_c} input channels, got {c}")
    oh, ow = F.conv_output_shape(h, w, k, stride, padding)
    if n == 0:
        return np.zeros((n, out_c, oh, ow), dtype=x.dtype)
    cmask = None if channel_mask is None else np.asarray(channel_mask, dtype=bool)
    if spatial_mask is not None:
        # Kept-position bucketing handles the channel mask internally
        # (kept-count groups, position buckets within).
        return _ragged_spatial_conv(
            x, weight, bias, stride, padding, np.asarray(spatial_mask, dtype=bool), cmask,
            kept_quantum=kept_quantum, arena=arena, oh=oh, ow=ow,
        )
    if cmask is not None:
        return _channel_conv(
            x, _channel_major(weight), bias, k, stride, padding, cmask,
            quantum=kept_quantum if ragged else 1, arena=arena, oh=oh, ow=ow,
        )
    return _dense_conv(x, weight, bias, stride, padding, arena, oh, ow)


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PlanConfig:
    """Knobs for :class:`ExecutionPlan` / :class:`ResNetPlan` compilation.

    Attributes
    ----------
    batch_invariant:
        Guarantee each sample's output is bit-identical no matter how the
        batch is composed.  BLAS picks different blocking (and hence
        summation order) for different GEMM row counts, so a flat GEMM can
        differ in the last ulp between a batch of 1 and a batch of 8; the
        serving layer's micro-batching scheduler needs batch composition
        to be unobservable, so :class:`repro.serve.InferenceSession` turns
        this on.  Every convolution kernel runs fixed-shape per-sample
        GEMM slices unconditionally (the invariant form is also the
        zero-copy one), so the flag only steers the classifier head; its
        CPU cost is near zero.
    """

    batch_invariant: bool = False


class _MaskState:
    """Pending masks produced by a pruning site, consumed by the next conv.

    ``ragged`` marks the pending masks as adaptive (per-sample kept-counts
    may differ), which makes the consuming convolution round kept counts
    up to :data:`KEPT_QUANTUM` and disables the batch-mean dense shortcut
    (its decision would depend on batch composition).
    """

    __slots__ = ("channel", "spatial", "ragged")

    def __init__(self) -> None:
        self.channel: Optional[np.ndarray] = None
        self.spatial: Optional[np.ndarray] = None
        self.ragged = False

    def take(self) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], bool]:
        channel, spatial, ragged = self.channel, self.spatial, self.ragged
        self.channel = None
        self.spatial = None
        self.ragged = False
        return channel, spatial, ragged


class _ConvOp:
    """A convolution with optionally folded BN/ReLU and sparse dispatch.

    ``weight`` is the fused NCHW weight the dense and spatial kernels
    read; ``wt`` is its channel-major copy (:func:`_channel_major`) for
    the channel kernel.
    """

    __slots__ = (
        "weight", "wt", "bias", "stride", "padding", "relu", "key", "_oshape", "_geo"
    )

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int,
        padding: int,
        relu: bool,
        key: int,
    ):
        self.weight = weight
        self.wt = _channel_major(weight)
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.key = key
        self._oshape: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._geo: Dict[Tuple, Tuple] = {}

    @classmethod
    def compile(
        cls,
        conv: Conv2d,
        bn: Optional[BatchNorm2d],
        relu: bool,
        key: int,
    ) -> "_ConvOp":
        weight = conv.weight.data
        bias = None if conv.bias is None else conv.bias.data
        if bn is not None:
            scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
            shift = bn.beta.data - bn.running_mean * scale
            weight = (weight * scale[:, None, None, None]).astype(weight.dtype, copy=False)
            bias = shift if bias is None else shift + bias * scale
            bias = bias.astype(weight.dtype, copy=False)
        return cls(weight, bias, conv.stride, conv.padding, relu, key)

    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        shape = self._oshape.get((h, w))
        if shape is None:
            k = self.weight.shape[2]
            shape = F.conv_output_shape(h, w, k, self.stride, self.padding)
            self._oshape[(h, w)] = shape
        return shape

    def geometry(
        self,
        x: np.ndarray,
        channel_mask: Optional[np.ndarray],
        ragged: bool,
        spatial_mask: Optional[np.ndarray] = None,
    ) -> Tuple:
        """The canonical geometry key for this call.

        ``(in_c, out_c, kernel, stride, padding, H, W, kind, kept,
        dtype)`` — the key :class:`repro.obs.PlanProfiler` rows and the
        ``kernel`` trace span's ``kind``/``kept``/``hw`` attributes are
        recorded under.  The static half (channel dims, kernel, stride,
        padding) is fixed per op, so the tuple is memoized by the dynamic
        half ``(H, W, kind, kept, dtype)`` — one dict probe plus, for
        top-k masks, one kept-count reduction.  ``kind`` is ``"none"``
        (no mask), ``"ragged"`` (adaptive flag set), ``"topk"`` with the
        per-sample kept-count when all samples agree, and ``"mixed"``
        otherwise.

        A spatial mask appends its own suffix to ``kind``: ``"+spr"``
        (ragged — adaptive kept-position counts), ``"+sp<count>"``
        (top-k, every sample keeps the same position count) or
        ``"+spx"`` (mixed counts without the ragged flag).
        """
        if channel_mask is None:
            kind, kept = "none", -1
        elif ragged:
            kind, kept = "ragged", -1
        else:
            counts = channel_mask.sum(axis=1)
            mn, mx = int(counts.min()), int(counts.max())
            kind, kept = ("topk", mn) if mn == mx else ("mixed", -1)
        if spatial_mask is not None:
            if ragged:
                kind = kind + "+spr"
            else:
                sp_counts = spatial_mask.reshape(spatial_mask.shape[0], -1).sum(axis=1)
                smn, smx = int(sp_counts.min()), int(sp_counts.max())
                kind = kind + (f"+sp{smn}" if smn == smx else "+spx")
        memo_key = (x.shape[2], x.shape[3], kind, kept, x.dtype.name)
        geo = self._geo.get(memo_key)
        if geo is None:
            geo = (
                int(self.weight.shape[1]),
                int(self.weight.shape[0]),
                int(self.weight.shape[2]),
                int(self.stride),
                int(self.padding),
                int(x.shape[2]),
                int(x.shape[3]),
                kind,
                kept,
                x.dtype.name,
            )
            self._geo[memo_key] = geo
        return geo

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        channel_mask, spatial_mask, ragged = state.take()
        zero_out: Optional[np.ndarray] = None

        # Observability preamble: only when a tracer is installed or a
        # profiler is attached does this op pay for a timer pair.  The
        # masks get mutated below (dense-threshold downgrades), so the
        # geometry key is computed now.
        profiler = plan.profiler
        timing = profiler is not None or _obs.enabled
        if timing:
            obs_geo = self.geometry(x, channel_mask, ragged, spatial_mask)
            obs_start = time.perf_counter()

        # The batch-mean dense shortcut below is skipped for ragged masks:
        # its decision depends on who shares the batch, which would break
        # the batch-invariance contract for adaptive traffic.
        if channel_mask is not None and not ragged:
            if 1.0 - float(channel_mask.mean()) < DENSE_THRESHOLD:
                # Input channels are already zeroed upstream: dense is exact.
                channel_mask = None
        oh, ow = self.output_shape(x.shape[2], x.shape[3])
        if spatial_mask is not None and not ragged:
            keep2d = output_keep_grid(spatial_mask, self.stride, oh, ow)
            if 1.0 - float(keep2d.mean()) < DENSE_THRESHOLD:
                # Compute dense, then zero dropped positions to preserve the
                # skip semantics (identical values at kept positions).
                zero_out = keep2d
                spatial_mask = None

        arena = plan.arena
        if spatial_mask is not None:
            kind = "ragged_spatial"
            out = _ragged_spatial_conv(
                x, self.weight, self.bias, self.stride, self.padding, spatial_mask,
                channel_mask, kept_quantum=KEPT_QUANTUM, arena=arena, oh=oh, ow=ow,
            )
        elif channel_mask is not None:
            kind = "channel"
            out = _channel_conv(
                x, self.wt, self.bias, self.weight.shape[2], self.stride, self.padding,
                channel_mask, quantum=KEPT_QUANTUM if ragged else 1,
                arena=arena, oh=oh, ow=ow,
            )
        else:
            kind = "dense"
            out = _dense_conv(x, self.weight, self.bias, self.stride, self.padding, arena, oh, ow)
        plan.count_dispatch(kind)
        if zero_out is not None:
            out *= zero_out[:, None, :, :]
        if self.relu:
            np.maximum(out, 0.0, out=out)
        if timing:
            obs_end = time.perf_counter()
            nbytes = x.nbytes + self.weight.nbytes + out.nbytes
            if profiler is not None:
                profiler.record(obs_geo, kind, obs_end - obs_start, nbytes)
            if _obs.enabled:
                ctx = _obs.current()
                tracer = _obs.tracer()
                if ctx is not None and tracer is not None:
                    tracer.emit_child(
                        ctx,
                        "kernel",
                        obs_start,
                        obs_end,
                        {
                            "op": self.key,
                            "strategy": kind,
                            "kind": obs_geo[7],
                            "kept": obs_geo[8],
                            "hw": f"{obs_geo[5]}x{obs_geo[6]}",
                            "batch": int(x.shape[0]),
                        },
                    )
        return out


class _BNOp:
    __slots__ = ("scale", "shift")

    def __init__(self, bn: BatchNorm2d):
        c = bn.num_features
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        self.scale = scale.reshape(1, c, 1, 1)
        self.shift = (bn.beta.data - bn.running_mean * scale).reshape(1, c, 1, 1)

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        return x * self.scale + self.shift


class _ReLUOp:
    __slots__ = ()

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        return np.maximum(x, 0.0)


class _MaxPoolOp:
    __slots__ = ("kernel", "stride")

    def __init__(self, pool: MaxPool2d):
        self.kernel = pool.kernel_size
        self.stride = pool.stride

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        n, c, h, w = x.shape
        oh, ow = F.conv_output_shape(h, w, self.kernel, self.stride, 0)
        windows = sliding_window_view(x, (self.kernel, self.kernel), axis=(2, 3))
        out = windows[:, :, :: self.stride, :: self.stride][:, :, :oh, :ow].max(axis=(4, 5))
        if state.spatial is not None:
            # Pool the pending mask with any-semantics so column skipping
            # stays aligned with the downsampled feature map.
            mask = state.spatial
            mn, mh, mw = mask.shape
            ph = mh // self.stride
            pw = mw // self.stride
            trimmed = mask[:, : ph * self.stride, : pw * self.stride]
            state.spatial = trimmed.reshape(mn, ph, self.stride, pw, self.stride).any(axis=(2, 4))
        return out


class _GlobalAvgPoolOp:
    __slots__ = ()

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        return x.mean(axis=(2, 3))


class _LinearOp:
    __slots__ = ("weight", "bias")

    def __init__(self, layer: Linear):
        self.weight = layer.weight.data
        self.bias = None if layer.bias is None else layer.bias.data

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        if plan.config.batch_invariant:
            # einsum's non-BLAS kernel reduces over the feature axis in a
            # fixed order per output element, so logits ignore batch
            # composition — without the old per-sample singleton-axis
            # matmul detour (N separate gufunc GEMM dispatches).
            out = np.einsum("nf,of->no", x, self.weight)
        else:
            out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class _PruneOp:
    """Dynamic pruning site: mask the feature map, arm the next conv."""

    __slots__ = ("layer",)

    def __init__(self, layer: DynamicPruning):
        self.layer = layer

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        layer = self.layer
        if not layer.active:
            return x
        # update_stats=False: deployment runs must not pollute the keep
        # fractions that dynamic_flops() reads for paper-accounting.
        channel_mask, spatial_mask = layer.compute_masks(x, update_stats=False)
        if channel_mask is not None:
            x = x * channel_mask[:, :, None, None]
        if spatial_mask is not None:
            x = x * spatial_mask[:, None, :, :]
        state.channel = channel_mask
        state.spatial = spatial_mask
        state.ragged = layer.adaptive
        return x


class _GateOp:
    """A compiled FBS-style learned gate (:class:`repro.baselines.dynamic.FBSGate`).

    Reproduces the gate's eval-time forward on raw arrays — GAP squeeze,
    linear saliency predictor, ReLU, deterministic-tie top-k mask, and the
    boosting of kept channels, renormalized so the k kept boosts average 1
    for each sample — then arms the next convolution with the binary mask,
    so suppressed channels are actually *skipped* instead of multiplied by
    zero.  Like the module, the output keeps the input's dtype.  Gate
    statistics are not updated (deployment runs must not pollute
    training-side accounting).  FBS is a fixed-ratio top-k method, so its
    masks are never ragged.
    """

    __slots__ = ("layer",)

    def __init__(self, layer: object):
        self.layer = layer

    def run(self, x: np.ndarray, state: _MaskState, plan: "ExecutionPlan") -> np.ndarray:
        from .masks import channel_mask as make_channel_mask

        layer = self.layer
        if not layer.active:
            return x
        n, c = x.shape[:2]
        squeezed = x.mean(axis=(2, 3))
        predictor = layer.predictor
        saliency = squeezed @ predictor.weight.data.T
        if predictor.bias is not None:
            saliency = saliency + predictor.bias.data
        np.maximum(saliency, 0.0, out=saliency)
        tie_break = np.arange(c, dtype=saliency.dtype) * 1e-9
        mask = make_channel_mask(saliency + tie_break, layer.prune_ratio)
        gated = saliency * mask
        kept = reserved_count(c, layer.prune_ratio)
        denom = gated.sum(axis=1, keepdims=True) / kept + 1e-6
        gated = gated / denom
        state.channel = mask
        return x * gated[:, :, None, None]


def _flatten(layers: Iterable[Module]) -> List[Module]:
    flat: List[Module] = []
    for layer in layers:
        if isinstance(layer, Sequential):
            flat.extend(_flatten(layer))
        else:
            flat.append(layer)
    return flat


class ExecutionPlan:
    """A compiled, fused op sequence for a Sequential conv stack.

    Compilation happens once per model (executor construction): the layer
    list is flattened, eval-mode Conv→BN(→ReLU) chains are folded into
    single ops (each keeping its fused weight in NCHW and channel-major
    layout), and per-geometry output shapes are memoized.  ``run``
    threads a :class:`_MaskState` through the ops so each pruning site arms
    the convolution that consumes its masks.
    """

    #: Dispatch-counter labels: the kernel each convolution call ran.
    DISPATCH_KINDS = ("channel", "ragged_spatial", "dense")

    def __init__(self, ops: List[object], config: PlanConfig):
        self.ops = ops
        self.config = config
        self.arenas = ArenaPool()
        self._dispatch_lock = threading.Lock()
        #: Opt-in per-op profiler (:class:`repro.obs.PlanProfiler`) — when
        #: attached, every conv dispatch records (geometry, strategy, wall
        #: time, bytes moved).  ``None`` keeps the hot path timer-free.
        self.profiler: Optional[object] = None
        self.dispatch_counts: Dict[str, int] = dict.fromkeys(self.DISPATCH_KINDS, 0)

    @property
    def arena(self) -> WorkspaceArena:
        """The calling thread's workspace arena (created on first use).

        Plans are shared read-only across session workers; all mutable
        per-call scratch lives here, one arena per thread.
        """
        return self.arenas.get()

    def count_dispatch(self, kind: str) -> None:
        """Thread-safe dispatch telemetry (workers share one plan).

        ``kind`` is one of :attr:`DISPATCH_KINDS`.
        """
        with self._dispatch_lock:
            self.dispatch_counts[kind] += 1

    def arena_stats(self) -> Dict[str, int]:
        """Merged workspace counters across every worker thread."""
        return self.arenas.stats()

    @classmethod
    def compile(
        cls,
        layers: Sequence[Module],
        config: Optional[PlanConfig] = None,
    ) -> "ExecutionPlan":
        # Imported here, not at module top: baselines.dynamic itself
        # imports from repro.core, and a module-level import would tie the
        # two packages' initialization order together.
        from ..baselines.dynamic import FBSGate

        flat = _flatten(layers)
        ops: List[object] = []
        i = 0
        key = 0
        while i < len(flat):
            layer = flat[i]
            if isinstance(layer, Conv2d):
                bn: Optional[BatchNorm2d] = None
                relu = False
                j = i + 1
                if j < len(flat) and isinstance(flat[j], BatchNorm2d):
                    bn = flat[j]
                    j += 1
                if j < len(flat) and isinstance(flat[j], ReLU):
                    relu = True
                    j += 1
                ops.append(_ConvOp.compile(layer, bn, relu, key))
                key += 1
                i = j
            elif isinstance(layer, BatchNorm2d):
                ops.append(_BNOp(layer))
                i += 1
            elif isinstance(layer, ReLU):
                ops.append(_ReLUOp())
                i += 1
            elif isinstance(layer, MaxPool2d):
                ops.append(_MaxPoolOp(layer))
                i += 1
            elif isinstance(layer, GlobalAvgPool2d):
                ops.append(_GlobalAvgPoolOp())
                i += 1
            elif isinstance(layer, Linear):
                ops.append(_LinearOp(layer))
                i += 1
            elif isinstance(layer, DynamicPruning):
                ops.append(_PruneOp(layer))
                i += 1
            elif isinstance(layer, FBSGate):
                ops.append(_GateOp(layer))
                i += 1
            elif isinstance(layer, Identity):
                i += 1
            else:
                raise UnsupportedGraphError(
                    f"ExecutionPlan cannot compile {type(layer).__name__}"
                )
        return cls(ops, config or PlanConfig())

    def run(self, x: np.ndarray) -> np.ndarray:
        state = _MaskState()
        for op in self.ops:
            x = op.run(x, state, self)
        return x

    def reset_stats(self) -> None:
        """Zero the dispatch counters."""
        with self._dispatch_lock:
            self.dispatch_counts = dict.fromkeys(self.DISPATCH_KINDS, 0)

    def describe(self) -> str:
        """Human-readable op listing (for docs and debugging)."""
        return "\n".join(f"{i:>3}: {type(op).__name__}" for i, op in enumerate(self.ops))


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class SparseSequentialExecutor:
    """Mask-skipping batched inference over a Sequential conv stack.

    Interprets a (possibly instrumented) ``Sequential`` of ``Conv2d``,
    ``BatchNorm2d``, ``ReLU``, ``MaxPool2d``, ``GlobalAvgPool2d``,
    ``Linear``, ``Identity``, ``DynamicPruning`` and FBS gate layers by
    compiling it into an :class:`ExecutionPlan` once at construction; the
    compiler raises :class:`UnsupportedGraphError` for any other layer.
    When a ``DynamicPruning``
    layer fires, its masks are computed exactly as in the dense path and
    the next convolution runs sparsely: only each sample's kept channels
    and kept columns' output positions are computed.

    This is the deployment interpreter for the paper's Fig. 1 — the dense
    instrumented model is the training/verification vehicle, this executor
    is what "the computation related can be thus skipped for efficiency"
    means operationally.
    """

    def __init__(self, layers: Sequential, config: Optional[PlanConfig] = None):
        self.layers: List[Module] = _flatten(layers)
        self.plan = ExecutionPlan.compile(self.layers, config)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run inference, skipping masked work.  Input/output are arrays."""
        return self.plan.run(x)

    __call__ = forward


class _BlockPlan:
    """Compiled ops for one :class:`BasicBlock` (BatchNorms fused at eval time)."""

    __slots__ = ("conv1", "prune", "conv2", "shortcut")

    def __init__(
        self,
        conv1: _ConvOp,
        prune: Optional[object],  # _PruneOp or _GateOp
        conv2: _ConvOp,
        shortcut: Optional[_ConvOp],
    ):
        self.conv1 = conv1
        self.prune = prune
        self.conv2 = conv2
        self.shortcut = shortcut


class ResNetPlan(ExecutionPlan):
    """Compiled plan for the paper's CIFAR ResNet (stem/blocks/classifier).

    Shares the op primitives and dispatch policy with
    :class:`ExecutionPlan`; the residual topology is encoded structurally
    instead of as a flat op list.
    """

    def __init__(self, model: ResNet, config: Optional[PlanConfig] = None):
        super().__init__([], config or PlanConfig())
        key = 0
        self.stem = _ConvOp.compile(model.conv1, model.bn1, True, key)
        key += 1
        self.blocks: List[_BlockPlan] = []
        for group in (model.group1, model.group2, model.group3):
            for block in group:
                self.blocks.append(self._compile_block(block, key))
                key += 3
        self.fc = _LinearOp(model.fc)

    def _compile_block(self, block: BasicBlock, key: int) -> _BlockPlan:
        from ..baselines.dynamic import FBSGate

        conv1 = _ConvOp.compile(block.conv1, block.bn1, True, key)
        conv2 = _ConvOp.compile(block.conv2, block.bn2, False, key + 1)
        prune: Optional[object] = None
        site = block.relu1
        if isinstance(site, Sequential):
            for sub in site:
                if isinstance(sub, DynamicPruning):
                    prune = _PruneOp(sub)
                elif isinstance(sub, FBSGate):
                    prune = _GateOp(sub)
        shortcut: Optional[_ConvOp] = None
        if not isinstance(block.shortcut, Identity):
            projection, norm = list(block.shortcut)
            shortcut = _ConvOp.compile(projection, norm, False, key + 2)
        return _BlockPlan(conv1, prune, conv2, shortcut)

    # ------------------------------------------------------------------
    def _run_block(self, plan: _BlockPlan, x: np.ndarray) -> np.ndarray:
        state = _MaskState()
        out = plan.conv1.run(x, state, self)
        if plan.prune is not None:
            out = plan.prune.run(out, state, self)
        out = plan.conv2.run(out, state, self)
        shortcut = x if plan.shortcut is None else plan.shortcut.run(x, _MaskState(), self)
        return np.maximum(out + shortcut, 0.0)

    def run(self, x: np.ndarray) -> np.ndarray:
        state = _MaskState()
        out = self.stem.run(x, state, self)
        for block_plan in self.blocks:
            out = self._run_block(block_plan, out)
        out = out.mean(axis=(2, 3))
        return self.fc.run(out, state, self)


class SparseResNetExecutor:
    """Mask-skipping batched inference over a (possibly instrumented) ResNet.

    Compiles the paper's ResNet structure — stem → three groups of
    :class:`~repro.models.resnet.BasicBlock` → global pool → classifier —
    into a :class:`ResNetPlan` once at construction.  When a block's
    ``relu1`` site carries a :class:`DynamicPruning` layer (the paper
    prunes only those "odd layers", Sec. V-B b), the block's second
    convolution runs sparsely over the kept channels/columns; the skip
    connection is untouched, exactly as the paper requires.
    """

    def __init__(self, model: ResNet, config: Optional[PlanConfig] = None):
        self.model = model
        self.plan = ResNetPlan(model, config)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.plan.run(x)

    __call__ = forward
