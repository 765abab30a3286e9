"""Batched sparse inference engine: actually *skipping* the pruned work.

The training-side implementation of AntiDote (like the paper's own PyTorch
implementation) applies binary masks and lets the dense convolution run —
FLOPs savings are *accounted* analytically.  This module is the deployment
engine that realizes those savings on CPU, at batch scale:

* **Mask-signature batching** (:func:`sparse_conv2d`): samples whose channel
  masks are identical (dynamic pruning often agrees within a batch, and
  ``granularity="batch"`` guarantees it) are grouped by a packed bit
  signature and executed with **one im2col + one GEMM per group**, reusing
  the vectorized :func:`repro.nn.functional.im2col`.
* **Ragged kept-count bucketing** (:func:`_ragged_channel_conv`): *adaptive*
  (threshold-mode) masks keep a different channel count per sample, which
  defeats both signature grouping and the stacked equal-kept-count path.
  Samples are bucketed by their kept-count quantized to
  ``PlanConfig.kept_quantum`` and each bucket runs padded batched GEMMs —
  zero-filled weight tail columns, cache-resident sample tiles — so the
  dynamic-inference workload (``mask_mode="threshold"``, FBS-style gates)
  executes batched instead of one sample at a time, while staying
  bit-identical to per-request execution.
* **Ragged spatial bucketing** (:func:`_ragged_spatial_conv`): the same
  treatment for kept *positions*, and the kernel every spatial mask runs
  by default — fixed top-k column sites (the paper's Table I ResNet-56
  setting) as well as adaptive ones.  Samples are grouped by exact
  kept-channel count, each group's padded channels-last input and
  per-sample weight stack are gathered once, and samples are bucketed by
  their quantized kept-position count on the conv's output grid; each
  bucket gathers only its kept patches
  (:func:`repro.nn.functional.gather_patches_nhwc`) — padding slots
  re-gather position 0 — and runs one batched GEMM, every sample with its
  own weight slice.  Padded slots are discarded on scatter-back, so kept
  positions are bit-identical to per-request execution by construction
  and dropped positions stay exactly zero (the paper's Sec. III-B skip
  semantics).  The per-sample gather + GEMM loop (``per_position``) is
  kept only as the oracle: tests reach it through
  ``strategy="per_position"`` and the ``PlanConfig(ragged_mode="never")``
  fallback runs it.
* **Weight-slice caching** (:class:`WeightSliceCache`): gathering the kept
  columns of a filter bank is pure memory traffic; the channel paths cache
  slices across layers *and* calls keyed by ``(layer, mask signature)``,
  so steady-state traffic with recurring masks pays the gather once.
* **Plan compilation** (:class:`ExecutionPlan`): the layer graph is walked
  once per model at executor construction — Conv→BN(→ReLU) chains are fused
  into a single op (BN folded into the conv weights at eval time), output
  shapes are memoized per input geometry, and every convolution dispatches
  to a dense fast path when the pending mask is below the configured
  sparsity threshold (gather overhead would exceed the skipped work).
* **Zero-copy kernel layer**: every convolution unfolds its input with the
  channels-first :func:`repro.nn.functional.im2col_t` gather (blocked over
  output-row tiles at large feature maps) straight into a plan-owned
  :class:`~repro.core.workspace.WorkspaceArena` buffer, and the GEMM runs
  ``np.matmul(weight_matrix, col, out=...)`` directly into the NCHW output
  tensor — no patch-tensor materialization, no result transpose, and no
  steady-state scratch allocation.  Arenas are per-thread
  (:class:`~repro.core.workspace.ArenaPool`) and the weight-slice cache is
  locked, so one compiled plan serves N session workers concurrently over
  its read-only fused weights.

Numerical contract (see ``tests/test_sparse_engine.py``):

* **Channel skipping** is numerically equivalent to the dense masked
  convolution — a zeroed input channel contributes nothing to any output,
  so gathering kept channels/weight columns computes the same sums over
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
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from .masks import (
    group_by_kept_count,
    output_grid_mask,
    quantize_kept_count,
    reserved_count,
)
from .pruning import DynamicPruning, pooled_keep_fraction
from .workspace import ArenaPool, WorkspaceArena

__all__ = [
    "mask_signature",
    "group_by_mask_signature",
    "WeightSliceCache",
    "sparse_conv2d",
    "PlanConfig",
    "ExecutionPlan",
    "ResNetPlan",
    "SparseSequentialExecutor",
    "SparseResNetExecutor",
    "dense_reference_forward",
    "output_keep_grid",
    "STACKED_PATH_MAX_POSITIONS",
    "UnsupportedGraphError",
]


class UnsupportedGraphError(TypeError):
    """A layer graph the plan compiler cannot execute.

    The ``auto`` engine backend falls back to the dense forward on this
    error alone, so a ``TypeError`` raised for any other reason (a
    mistyped keyword, a bug while compiling a supported graph) surfaces.
    """


#: Output-position cutoff for the stacked equal-kept-count fast path.
#: Below it, a batch of distinct masks runs as one gather + one batched
#: GEMM (per-sample Python overhead dominates small GEMMs); above it the
#: grouped path's larger, fewer GEMMs and tiled im2col win.  Both paths
#: produce bit-identical per-sample results (their GEMM slices see the
#: same operand values, shapes, and strides), so the cutoff is purely a
#: performance knob.
STACKED_PATH_MAX_POSITIONS = 512

#: Per-chunk im2col budget for the ragged path's sample tiling.  A
#: kept-count bucket is executed in chunks whose unfolded patch slab stays
#: within this many bytes, so the im2col → GEMM round trip runs out of
#: cache instead of spilling a whole bucket's tens of megabytes to DRAM
#: and reading them straight back.  Tiling only splits the gufunc batch
#: axis — every per-sample GEMM slice keeps the same shape, strides, and
#: operand values — so results are bit-identical at any tile size.
RAGGED_TILE_BYTES = 4 * 1024 * 1024


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


# ----------------------------------------------------------------------
# Mask signatures and grouping
# ----------------------------------------------------------------------
def mask_signature(mask: np.ndarray) -> bytes:
    """Compact, hashable signature of a 1-D boolean mask (packed bits)."""
    return np.packbits(np.asarray(mask, dtype=bool)).tobytes()


def group_by_mask_signature(
    channel_mask: np.ndarray,
) -> List[Tuple[bytes, np.ndarray, np.ndarray]]:
    """Partition batch rows by identical channel-mask signature.

    Returns ``(signature, sample_indices, kept_channel_indices)`` triples.
    Dynamic pruning frequently produces repeated masks within a batch (and
    ``granularity="batch"`` produces exactly one), so downstream convolution
    work collapses to one im2col/GEMM per group instead of one per sample.
    """
    mask = np.asarray(channel_mask, dtype=bool)
    packed = np.packbits(mask, axis=1)
    uniq, inverse = np.unique(packed, axis=0, return_inverse=True)
    groups: List[Tuple[bytes, np.ndarray, np.ndarray]] = []
    for g in range(uniq.shape[0]):
        idx = np.flatnonzero(inverse == g)
        kept = np.flatnonzero(mask[idx[0]])
        groups.append((uniq[g].tobytes(), idx, kept))
    return groups


class WeightSliceCache:
    """LRU cache of gathered weight slices keyed by ``(layer, signature)``.

    Gathering ``weight[:, kept].reshape(out_c, -1)`` is pure memory traffic
    repeated for every recurring mask; one cache instance is shared by every
    convolution in an :class:`ExecutionPlan` (layers disambiguate entries
    with their own key), and it persists across forward calls.

    The cache is thread-safe: LRU bookkeeping mutates an ``OrderedDict``,
    which multi-worker sessions hit concurrently, so every operation runs
    under a lock.  Cached slices themselves are immutable once stored
    (callers only read them), so handing the same array to two workers is
    safe.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._store: "OrderedDict[Tuple[object, bytes], np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(
        self,
        key: object,
        signature: bytes,
        weight: np.ndarray,
        kept: np.ndarray,
        pad_to: Optional[int] = None,
    ) -> np.ndarray:
        """Return the cached ``(out_c, kept*k*k)`` slice, gathering on miss.

        The flattened ``K`` ordering is ``(c, ky, kx)``, matching
        :func:`im2col_t` columns.  ``pad_to`` (the ragged path's bucket
        width) pads the kept axis with zero columns up to ``pad_to``
        channels, so the slice drops into a fixed-shape bucket GEMM;
        padded and unpadded slices for the same signature are distinct
        cache entries.
        """
        full_key = (key, signature, pad_to)
        with self._lock:
            cached = self._store.get(full_key)
            if cached is not None:
                self.hits += 1
                self._store.move_to_end(full_key)
                return cached
        # Gather outside the lock: it is the expensive part, and a
        # duplicate gather from a racing worker is wasted work, not a
        # correctness problem (both produce the same slice).
        out_c = weight.shape[0]
        w_sub = _ensure_contiguous(weight[:, kept].reshape(out_c, -1))
        if pad_to is not None and pad_to > kept.size:
            taps = weight.shape[2] * weight.shape[3]
            padded = np.zeros((out_c, pad_to * taps), dtype=weight.dtype)
            padded[:, : w_sub.shape[1]] = w_sub
            w_sub = padded
        with self._lock:
            self.misses += 1
            self._store[full_key] = w_sub
            if len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return w_sub

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping cached slices."""
        with self._lock:
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}


# ----------------------------------------------------------------------
# Ragged (kept-count-bucketed) channel convolution
# ----------------------------------------------------------------------
def _ragged_channel_conv(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    mask: np.ndarray,
    *,
    kept_quantum: int,
    cache: Optional[WeightSliceCache],
    cache_key: Optional[object],
    arena: Optional[WorkspaceArena],
    oh: int,
    ow: int,
) -> np.ndarray:
    """Channel skipping for *ragged* masks: one padded GEMM per bucket.

    Adaptive (threshold-mode) masks keep a different channel count per
    sample, which defeats both the stacked equal-kept-count fast path and
    signature grouping (every sample is its own group).  Here samples are
    bucketed by their kept-count quantized up to ``kept_quantum``
    (:func:`~repro.core.masks.group_by_kept_count`) and each bucket runs
    ONE batched GEMM over per-sample ``(Cout, Kq*k*k)`` weight slices whose
    tail columns — the quantization padding — are zero-filled, so padded
    slots contribute exact zeros.

    Batch-invariance is by construction: a sample's bucket width depends
    only on its own mask and the fixed quantum, every per-sample GEMM
    slice has the same shape/strides whether the sample arrives alone or
    in a fused window, and the padded operand values are a deterministic
    function of the sample's mask.  Executing the same sample per-request
    therefore reproduces its batched output bit for bit.
    """
    n, c, h, w = x.shape
    out_c = weight.shape[0]
    k = weight.shape[2]
    kk = k * k
    positions = oh * ow
    counts = mask.sum(axis=1).astype(np.int64)
    buckets = group_by_kept_count(mask, kept_quantum)
    # All-dropped rows compute nothing; only then does the output need
    # pre-zeroing (every populated bucket fully writes its rows).
    any_empty = buckets[0][0] == 0
    out = (np.zeros if any_empty else np.empty)((n, out_c, oh, ow), dtype=x.dtype)
    out_flat = out.reshape(n, out_c, positions)

    for bucket_count, idx in buckets:
        if bucket_count == 0:
            continue
        bsz = int(idx.size)
        whole = bsz == n
        if bucket_count >= c and int(counts[idx].min()) == c:
            # Every sample here keeps every channel: run dense per-sample
            # GEMM slices with no gather at all.  Samples whose quantized
            # count merely *rounds up* to the dimension stay on the general
            # branch below — its zeroed weight tail is what keeps dropped
            # channels out of the sums whether or not the caller pre-masked
            # the input (the documented channel-skip contract).  Mixing the
            # branches inside one bucket is bit-safe: for a keep-all sample
            # the general branch's gather order is the identity, so both
            # branches hand the GEMM identical (Cout, C*k*k) operands.
            xg = x if whole else x[idx]
            col = F.im2col_t(
                xg, k, stride, padding,
                out=_take(arena, "im2col", (bsz, c * kk, positions), x.dtype),
                tile_rows=F.default_tile_rows(c, k, ow, x.dtype.itemsize),
            )
            dst = out_flat if whole else _take(
                arena, "gemm", (bsz, out_c, positions), x.dtype
            )
            _matmul_into(weight.reshape(out_c, -1), col, dst)
        else:
            rows = mask[idx]
            # Per-sample padded channel order: kept indices ascending, then
            # the sample's dropped channels filling the quantization tail.
            # Tail slots gather real input channels but multiply against
            # zeroed weight columns, so they add exact zeros to every sum.
            order = np.argsort(~rows, axis=1, kind="stable")[:, :bucket_count]
            cols = bucket_count * kk
            packed = np.packbits(rows, axis=1) if cache is not None else None
            # Sample tiling: bound the im2col → GEMM working set so it
            # stays cache-resident (see RAGGED_TILE_BYTES).  Chunk sizes
            # depend only on the bucket width and the conv geometry.
            tile = max(
                1, RAGGED_TILE_BYTES // max(cols * positions * x.dtype.itemsize, 1)
            )
            for start in range(0, bsz, tile):
                stop = min(start + tile, bsz)
                csz = stop - start
                chunk = idx[start:stop]
                xg = x[chunk[:, None], order[start:stop]]
                col = F.im2col_t(
                    xg, k, stride, padding,
                    out=_take(arena, "im2col", (csz, cols, positions), x.dtype),
                    tile_rows=F.default_tile_rows(
                        bucket_count, k, ow, x.dtype.itemsize
                    ),
                )
                if cache is not None and csz == 1:
                    # Lone sample in its chunk: the cached padded slice is
                    # the GEMM operand directly — no stack copy.  A cached
                    # (Cout, cols) slice is contiguous exactly like a
                    # w_stack row, so the GEMM is bit-identical either way.
                    kept = np.flatnonzero(rows[start])
                    w_op: np.ndarray = cache.get(
                        cache_key, packed[start].tobytes(), weight, kept,
                        pad_to=bucket_count,
                    )
                else:
                    w_stack = _take(
                        arena, "ragged_w", (csz, out_c, cols), weight.dtype
                    )
                    if cache is not None:
                        for i in range(start, stop):
                            kept = np.flatnonzero(rows[i])
                            w_stack[i - start] = cache.get(
                                cache_key, packed[i].tobytes(), weight, kept,
                                pad_to=bucket_count,
                            )
                    else:
                        gathered = weight.reshape(out_c, c, kk)[:, order[start:stop]]
                        w4 = w_stack.reshape(csz, out_c, bucket_count, kk)
                        w4[...] = gathered.transpose(1, 0, 2, 3)
                        pad_rows, pad_slots = np.nonzero(
                            np.arange(bucket_count)[None, :]
                            >= counts[chunk][:, None]
                        )
                        if pad_rows.size:
                            w4[pad_rows, :, pad_slots, :] = 0.0
                    w_op = w_stack
                chunk_whole = whole and csz == n
                dst = out_flat if chunk_whole else _take(
                    arena, "gemm", (csz, out_c, positions), x.dtype
                )
                _matmul_into(w_op, col, dst)
                if bias is not None:
                    dst += bias[:, None]
                if not chunk_whole:
                    out_flat[chunk] = dst
            continue
        if bias is not None:
            dst += bias[:, None]
        if not whole:
            out_flat[idx] = dst
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

    The default kernel for every spatial mask, fixed top-k and adaptive
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
    :func:`_ragged_channel_conv`: a sample's bucket width is
    ``quantize_kept_count`` of its *own* kept-position count, its gather
    orders and weight slice depend only on its own masks, and batched 3-D
    GEMM slices compute bitwise the same as the single-sample GEMM over
    identical operands.  Executing the same sample per-request therefore
    reproduces its batched output bit for bit.  (The K ordering is
    ``(ky, kx, c)`` here versus ``im2col_t``'s ``(c, ky, kx)`` — a
    different but fixed summation order, so the kernel agrees with the
    ``per_position`` oracle to floating-point round-off while remaining
    exactly reproducible against itself.)
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
    cache: Optional[WeightSliceCache] = None,
    cache_key: Optional[object] = None,
    batch_invariant: bool = False,
    arena: Optional[WorkspaceArena] = None,
    ragged: bool = False,
    kept_quantum: int = 4,
    strategy: Optional[str] = None,
    on_dispatch: Optional[Callable[[str], None]] = None,
) -> np.ndarray:
    """Batched convolution that skips pruned input channels and columns.

    Parameters
    ----------
    x:
        Input batch, NCHW.
    weight / bias / stride / padding:
        Convolution parameters (weight ``(Cout, Cin, k, k)``).
    channel_mask:
        Optional ``(N, Cin)`` boolean mask; samples are grouped by identical
        mask signature and each group runs one im2col/GEMM over its kept
        channels only (exactly equivalent to the dense masked conv).
    spatial_mask:
        Optional ``(N, H, W)`` boolean mask over the *input* columns; output
        positions mapping to dropped columns are skipped and left zero (the
        paper's skip semantics).  With ``stride > 1`` the mask is subsampled
        to the output grid.  For kept positions to agree exactly with the
        dense masked convolution the input must already have its dropped
        columns zeroed (receptive fields overlap columns; the executors
        apply the mask before calling).  Every spatial mask runs the
        kept-position bucketed kernel (:func:`_ragged_spatial_conv`)
        unless ``strategy="per_position"`` asks for the oracle.
    cache / cache_key:
        Optional :class:`WeightSliceCache` for the gathered weight slices
        of the channel paths (the spatial kernel gathers its own).
        ``cache_key`` is required with ``cache`` and must be stable and
        unique per weight tensor (the executors pass their op identity);
        ``id(weight)`` is unsafe — ids are reused after garbage collection.
    batch_invariant:
        Per-sample GEMM slicing for the *per-position* spatial path, so
        each sample's output does not depend on which other samples share
        the batch (see :attr:`PlanConfig.batch_invariant`).  The channel
        paths are batch-invariant unconditionally since the kernel-layer
        rewrite, and the ragged-spatial kernel is batch-invariant by
        construction (a sample's bucket width, gather orders and GEMM
        slice depend only on its own masks) — the flag only steers the
        per-position oracle's flat-vs-sliced GEMM.
    arena:
        Optional :class:`~repro.core.workspace.WorkspaceArena` supplying
        the im2col and GEMM scratch buffers.  Without one, scratch is
        freshly allocated per call (same results, more allocator traffic).
        Arenas are single-thread-only; concurrent callers pass their own
        (plans hand out one per thread).
    ragged / kept_quantum:
        ``ragged=True`` routes channel-only masks through
        :func:`_ragged_channel_conv` (samples grouped by kept-*channel*
        count quantized up to ``kept_quantum``), one padded batched GEMM
        per bucket.  This is the path for *adaptive* (threshold-mode)
        masks, whose per-sample kept-counts differ; it applies to every
        batch composition — including singletons — so results stay
        bit-identical to per-request execution.  Spatial masks are
        bucketed whatever the flag; ``kept_quantum`` is the floor of
        their kept-*position* quantum.
    strategy:
        ``None`` keeps the heuristic dispatch.  ``"per_position"``
        (requires a ``spatial_mask``) runs the per-sample gather + GEMM
        oracle instead of kept-position bucketing.  The two agree to
        floating-point round-off at kept positions (BLAS blocks a
        width-``Pq`` padded GEMM differently from a width-``npos`` exact
        one), and each is bit-identical to its own per-request execution.
    on_dispatch:
        Optional callback receiving the fine-grained path label this call
        actually executed — ``"per_input"`` (signature groups all
        singletons), ``"grouped"``, ``"stacked"``, ``"ragged"``,
        ``"ragged_spatial"`` or ``"per_position"`` — once per invocation.
        Plans pass their dispatch-counter hook here.

    Returns
    -------
    Output batch ``(N, Cout, OH, OW)``.
    """
    if strategy is not None:
        if strategy != "per_position":
            raise ValueError(
                f"strategy must be None or 'per_position', got {strategy!r}"
            )
        if spatial_mask is None:
            raise ValueError("strategy 'per_position' requires a spatial_mask")
    n, c, h, w = x.shape
    out_c, in_c, k, _ = weight.shape
    if in_c != c:
        raise ValueError(f"weight expects {in_c} input channels, got {c}")
    oh, ow = F.conv_output_shape(h, w, k, stride, padding)
    use_ragged = ragged and channel_mask is not None and spatial_mask is None
    # Every spatial mask runs kept-position bucketing; the per-sample
    # gather loop is only ever an explicit request (the oracle in tests,
    # ``PlanConfig(ragged_mode="never")``).
    use_ragged_spatial = spatial_mask is not None and strategy is None
    if n == 0:
        if on_dispatch is not None:
            if spatial_mask is not None:
                on_dispatch("ragged_spatial" if use_ragged_spatial else "per_position")
            else:
                on_dispatch("ragged" if use_ragged else "grouped")
        return np.zeros((n, out_c, oh, ow), dtype=x.dtype)

    if cache is not None and cache_key is None:
        raise ValueError("cache_key is required when a WeightSliceCache is passed")
    if use_ragged_spatial:
        # Kept-position bucketing handles the channel mask internally
        # (kept-count groups, position buckets within).
        if on_dispatch is not None:
            on_dispatch("ragged_spatial")
        return _ragged_spatial_conv(
            x,
            weight,
            bias,
            stride,
            padding,
            np.asarray(spatial_mask, dtype=bool),
            None if channel_mask is None else np.asarray(channel_mask, dtype=bool),
            kept_quantum=kept_quantum,
            arena=arena,
            oh=oh,
            ow=ow,
        )
    if use_ragged:
        # Ragged masks bypass signature grouping entirely: bucket shapes
        # depend only on each sample's own kept-count, never on batch
        # composition, so this branch must fire for singletons too.
        if on_dispatch is not None:
            on_dispatch("ragged")
        return _ragged_channel_conv(
            x,
            weight,
            bias,
            stride,
            padding,
            np.asarray(channel_mask, dtype=bool),
            kept_quantum=kept_quantum,
            cache=cache,
            cache_key=cache_key,
            arena=arena,
            oh=oh,
            ow=ow,
        )
    if channel_mask is None:
        groups: List[Tuple[Optional[bytes], np.ndarray, Optional[np.ndarray]]] = [
            (None, np.arange(n), None)
        ]
    else:
        groups = list(group_by_mask_signature(channel_mask))

    # Stacked fast path for serving batches: top-k channel masks keep the
    # *same count* per sample (reserved_count is per layer), so a batch of
    # distinct masks can run as ONE gather + ONE im2col + ONE batched GEMM
    # with per-sample weight slices, instead of a Python loop over
    # signature groups of size one.  Each sample's GEMM slice sees exactly
    # the operands (values, shapes, strides) the per-request path would
    # give it, so outputs stay bit-identical to one-at-a-time execution —
    # the cutoff (STACKED_PATH_MAX_POSITIONS) is purely a performance knob.
    if (
        spatial_mask is None
        and channel_mask is not None
        and len(groups) > 1
        and oh * ow <= STACKED_PATH_MAX_POSITIONS
    ):
        mask = np.asarray(channel_mask, dtype=bool)
        counts = mask.sum(axis=1)
        kept_count = int(counts[0])
        if kept_count > 0 and int(counts.min()) == int(counts.max()):
            # Row-wise kept indices, ascending (stable sort: False < True).
            kept_matrix = np.argsort(~mask, axis=1, kind="stable")[:, :kept_count]
            xg = x[np.arange(n)[:, None], kept_matrix]
            cols = kept_count * k * k
            col = F.im2col_t(
                xg, k, stride, padding,
                out=_take(arena, "im2col", (n, cols, oh * ow), x.dtype),
            )
            w_stack = _take(arena, "wstack", (n, out_c, cols), weight.dtype)
            if cache is not None:
                packed = np.packbits(mask, axis=1)
                for i in range(n):
                    w_stack[i] = cache.get(
                        cache_key, packed[i].tobytes(), weight, kept_matrix[i]
                    )
            else:
                # (Cout, N, kept, k*k) gather, transposed into the stack.
                gathered = weight.reshape(out_c, c, k * k)[:, kept_matrix]
                w_stack.reshape(n, out_c, kept_count, k * k)[...] = gathered.transpose(
                    1, 0, 2, 3
                )
            out = np.empty((n, out_c, oh, ow), dtype=x.dtype)
            # One batched GEMM, each (Cout, K) @ (K, OH*OW) slice writing
            # NCHW output order directly — no result transpose.
            _matmul_into(w_stack, col, out.reshape(n, out_c, oh * ow))
            if bias is not None:
                out += bias.reshape(1, out_c, 1, 1)
            if on_dispatch is not None:
                on_dispatch("stacked")
            return out

    # Grouped path.  Pure channel masking fully writes every non-skipped
    # group, so zero-fill is only needed when some group drops all its
    # channels (or a spatial mask leaves holes).
    if on_dispatch is not None:
        if spatial_mask is not None:
            # The per-sample gather + GEMM oracle the bucketed spatial
            # kernel is verified and measured against.
            on_dispatch("per_position")
        else:
            # "per_input" = the degenerate regime the stacked path exists
            # to fix: every sample is its own signature group.
            per_input = channel_mask is not None and n > 1 and len(groups) == n
            on_dispatch("per_input" if per_input else "grouped")
    skips_possible = spatial_mask is not None or any(
        kept is not None and kept.size == 0 for _, _, kept in groups
    )
    out = (np.zeros if skips_possible else np.empty)((n, out_c, oh, ow), dtype=x.dtype)
    out_flat = out.reshape(n, out_c, oh * ow)

    for signature, idx, kept in groups:
        if kept is not None and kept.size == 0:
            continue  # every channel dropped -> output stays zero
        full_channels = kept is None or kept.size == c
        if full_channels:
            w_sub = weight.reshape(out_c, -1)
        elif cache is not None and signature is not None:
            w_sub = cache.get(cache_key, signature, weight, kept)
        else:
            w_sub = _ensure_contiguous(weight[:, kept].reshape(out_c, -1))

        ck = c if full_channels else int(kept.size)
        if spatial_mask is None:
            whole = idx.size == n
            if whole and full_channels:
                xg = x
            else:
                xg = x[idx] if full_channels else x[np.ix_(idx, kept)]
            # Channels-first unfold, tiled to stream large feature maps
            # through L2, gathered straight into the workspace.
            col = F.im2col_t(
                xg, k, stride, padding,
                out=_take(arena, "im2col", (idx.size, ck * k * k, oh * ow), x.dtype),
                tile_rows=F.default_tile_rows(ck, k, ow, x.dtype.itemsize),
            )
            # (Cout, K) @ (K, OH*OW) per sample: NCHW output order falls
            # out of the GEMM, and a whole-batch group lands in the output
            # tensor with no intermediate at all.  Per-sample slices see
            # fixed operand shapes/strides regardless of group size, so
            # the result is batch-invariant by construction.
            dst = out_flat if whole else _take(
                arena, "gemm", (idx.size, out_c, oh * ow), x.dtype
            )
            _matmul_into(w_sub, col, dst)
            if bias is not None:
                dst += bias[:, None]
            if not whole:
                out_flat[idx] = dst
        else:
            xg = x[idx] if full_channels else x[np.ix_(idx, kept)]
            if padding > 0:
                xg = np.pad(xg, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
            # (G, C_kept, OH, OW, k, k) sliding windows — a strided view.
            windows = sliding_window_view(xg, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
            windows = windows[:, :, :oh, :ow]
            keep2d = output_grid_mask(spatial_mask, stride, oh, ow)[idx]
            ns, ys, xs = np.nonzero(keep2d)
            if ns.size == 0:
                continue
            patches = windows[ns, :, ys, xs]  # (P, C_kept, k, k)
            flat = patches.reshape(ns.size, -1)
            if batch_invariant:
                # One GEMM per sample over that sample's kept positions —
                # the per-sample row count equals what a single-request run
                # of the same sample would use, so results match bitwise.
                vals = _take(arena, "spatial", (ns.size, out_c), x.dtype)
                for g in range(idx.size):
                    rows = ns == g
                    if rows.any():
                        vals[rows] = flat[rows] @ w_sub.T
            else:
                vals = flat @ w_sub.T
            if bias is not None:
                vals = vals + bias
            out[idx[ns], :, ys, xs] = vals
    return out


# ----------------------------------------------------------------------
# Plan compilation
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PlanConfig:
    """Knobs for :class:`ExecutionPlan` / :class:`ResNetPlan` compilation.

    Attributes
    ----------
    fuse_conv_bn:
        Fold eval-mode BatchNorm (and a trailing ReLU) into the preceding
        convolution at compile time.  With column skipping this also makes
        dropped output positions *exactly* zero downstream (the paper's
        skip semantics); unfused, the separate BN shift re-populates them.
    dense_threshold:
        Minimum pruned fraction for the sparse gather path to engage.
        Below it the convolution runs dense (the input is already masked,
        so channel results are identical; dropped output columns are zeroed
        after the fact to preserve skip semantics).  ``0.0`` always goes
        sparse when a mask is present; ``1.0`` always runs dense.
    cache_entries:
        Capacity of the shared :class:`WeightSliceCache`.
    batch_invariant:
        Guarantee each sample's output is bit-identical no matter how the
        batch is composed.  BLAS picks different blocking (and hence
        summation order) for different GEMM row counts, so a flat GEMM can
        differ in the last ulp between a batch of 1 and a batch of 8; the
        serving layer's micro-batching scheduler needs batch composition
        to be unobservable, so :class:`repro.serve.InferenceSession` turns
        this on.  Since the kernel-layer rewrite the convolution channel
        paths run fixed-shape per-sample GEMM slices unconditionally (the
        invariant form is also the zero-copy one) and the default spatial
        kernel is invariant by construction, so the flag now only steers
        the ``per_position`` oracle and the classifier head; its CPU cost
        is near zero.
    ragged_mode:
        When convolutions use kept-count-bucketed (ragged) execution.
        For channel-only masks, ``"auto"`` (default) engages it exactly
        for *adaptive* pruning sites (``mask_mode="threshold"``), whose
        ragged kept-counts the stacked/grouped paths cannot batch, and
        ``"always"`` forces it for every channel mask (the ``adaptive``
        engine backend).  Spatial masks — fixed top-k and adaptive alike
        — run kept-position bucketing under both.  ``"never"`` is the
        oracle dispatch tests compare against: adaptive channel batches
        degrade to per-sample signature groups and every spatial mask
        runs the per-sample ``per_position`` gather loop.
    kept_quantum:
        Bucket granularity for ragged execution: per-sample kept-counts
        are quantized up to the next multiple before bucketing.  Larger
        quanta mean fewer GEMM shapes and better arena reuse but more
        zero-padded work per sample; ``4`` pads at most three channels
        per sample while near-miss counts still share buckets.
    """

    fuse_conv_bn: bool = True
    dense_threshold: float = 0.15
    cache_entries: int = 256
    batch_invariant: bool = False
    ragged_mode: str = "auto"
    kept_quantum: int = 4

    def __post_init__(self) -> None:
        if self.ragged_mode not in ("auto", "always", "never"):
            raise ValueError(
                f"ragged_mode must be 'auto', 'always' or 'never', got {self.ragged_mode!r}"
            )
        if self.kept_quantum < 1:
            raise ValueError("kept_quantum must be >= 1")


class _MaskState:
    """Pending masks produced by a pruning site, consumed by the next conv.

    ``ragged`` marks the pending channel mask as adaptive (per-sample
    kept-counts may differ), which routes the consuming convolution onto
    the kept-count-bucketed path and disables the batch-mean dispatch
    shortcuts (their decisions would depend on batch composition).
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
    """A convolution with optionally folded BN/ReLU and sparse dispatch."""

    __slots__ = ("weight", "bias", "stride", "padding", "relu", "key", "_oshape", "_geo")

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
        config = plan.config
        zero_out: Optional[np.ndarray] = None

        # Observability preamble: only when a tracer is installed or a
        # profiler is attached does this op pay for a timer pair and an
        # on_dispatch wrapper that remembers which strategy actually ran.
        # The masks get mutated below (dense-threshold downgrades), so the
        # geometry key is computed now.
        on_dispatch = plan.count_dispatch
        profiler = plan.profiler
        timing = profiler is not None or _obs.enabled
        if timing:
            obs_geo = self.geometry(x, channel_mask, ragged, spatial_mask)
            obs_kinds: List[str] = []

            def on_dispatch(kind: str, _record=obs_kinds.append, _count=plan.count_dispatch) -> None:
                _record(kind)
                _count(kind)

            obs_cache0 = plan.cache.hits
            obs_start = time.perf_counter()

        # The batch-mean dispatch shortcuts below are skipped for ragged
        # masks: their decisions depend on who shares the batch, which
        # would break the batch-invariance contract for adaptive traffic.
        # The ragged path handles the dense-ish regime itself — samples
        # whose quantized kept-count reaches the channel dimension land in
        # a full-width bucket, a per-sample decision.
        if channel_mask is not None and not ragged:
            if 1.0 - float(channel_mask.mean()) < config.dense_threshold:
                # Input channels are already zeroed upstream: dense is exact.
                channel_mask = None
        if spatial_mask is not None and not ragged:
            oh, ow = self.output_shape(x.shape[2], x.shape[3])
            keep2d = output_keep_grid(spatial_mask, self.stride, oh, ow)
            if 1.0 - float(keep2d.mean()) < config.dense_threshold:
                # Compute dense, then zero dropped positions to preserve the
                # skip semantics (identical values at kept positions).
                zero_out = keep2d
                spatial_mask = None

        if channel_mask is None and spatial_mask is None:
            on_dispatch("dense")
            # Dense fast path on the same zero-copy kernels as the sparse
            # paths: channels-first unfold into the per-thread workspace,
            # then per-sample (Cout, K) @ (K, OH*OW) GEMM slices straight
            # into the NCHW output.  Per-sample slicing makes this path
            # batch-invariant whether or not the config demands it — the
            # flat-GEMM variant it replaces saved no copies and broke the
            # invariance contract.
            n, c = x.shape[:2]
            oh, ow = self.output_shape(x.shape[2], x.shape[3])
            k = self.weight.shape[2]
            out_c = self.weight.shape[0]
            arena = plan.arena
            col = F.im2col_t(
                x, k, self.stride, self.padding,
                out=arena.take("im2col", (n, c * k * k, oh * ow), x.dtype),
                tile_rows=F.default_tile_rows(c, k, ow, x.dtype.itemsize),
            )
            out = np.empty((n, out_c, oh, ow), dtype=x.dtype)
            _matmul_into(self.weight.reshape(out_c, -1), col, out.reshape(n, out_c, oh * ow))
            if self.bias is not None:
                out += self.bias.reshape(1, out_c, 1, 1)
        else:
            # ``ragged_mode="never"`` is the pre-ragged dispatch, spatial
            # masks included: they run the per-sample gather loop.
            never = spatial_mask is not None and config.ragged_mode == "never"
            out = sparse_conv2d(
                x,
                self.weight,
                self.bias,
                self.stride,
                self.padding,
                channel_mask=channel_mask,
                spatial_mask=spatial_mask,
                cache=plan.cache,
                cache_key=self.key,
                batch_invariant=config.batch_invariant,
                arena=plan.arena,
                ragged=ragged,
                kept_quantum=config.kept_quantum,
                strategy="per_position" if never else None,
                on_dispatch=on_dispatch,
            )
        if zero_out is not None:
            out *= zero_out[:, None, :, :]
        if self.relu:
            np.maximum(out, 0.0, out=out)
        if timing:
            obs_end = time.perf_counter()
            strategy = obs_kinds[-1] if obs_kinds else "unknown"
            nbytes = x.nbytes + self.weight.nbytes + out.nbytes
            if profiler is not None:
                profiler.record(obs_geo, strategy, obs_end - obs_start, nbytes)
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
                            "strategy": strategy,
                            "kind": obs_geo[7],
                            "kept": obs_geo[8],
                            "cache_hits": plan.cache.hits - obs_cache0,
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

    def _ragged(self, plan: "ExecutionPlan") -> bool:
        mode = plan.config.ragged_mode
        return mode == "always" or (mode == "auto" and self.layer.adaptive)

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
        state.ragged = self._ragged(plan)
        return x

    def bucket_hint(self, fm: np.ndarray, plan: "ExecutionPlan") -> Optional[object]:
        """Quantized kept-count bucket of this site for a probe feature map.

        Used by the serving scheduler's kept-count-aware window assembly
        (:meth:`ExecutionPlan.kept_count_bucket`); returns ``None`` when
        the site prunes neither axis.  Channel-only sites return the
        quantized mean kept-channel count (an ``int``, the historical
        contract); sites with spatial pruning return a
        ``(channel_bucket, spatial_bucket)`` tuple so the collector
        shards spatial buckets too.  The spatial bucket is the
        *pooled* kept-position count — pooled with
        :func:`repro.core.pruning.pooled_keep_fraction` and the site's
        ``pool_between``, the same basis the FLOPs accounting uses —
        quantized into eighths of the grid (finer sharding would give
        almost every request its own window).
        """
        layer = self.layer
        if not layer.active:
            return None
        if layer.channel_ratio <= 0.0 and layer.spatial_ratio <= 0.0:
            return None
        channel_mask, spatial_mask = layer.compute_masks(fm, update_stats=False)
        channel_bucket: Optional[int] = None
        if layer.channel_ratio > 0.0 and channel_mask is not None:
            counts = channel_mask.sum(axis=1)
            channel_bucket = quantize_kept_count(
                int(round(float(counts.mean()))),
                channel_mask.shape[1],
                plan.config.kept_quantum,
            )
        if layer.spatial_ratio <= 0.0 or spatial_mask is None:
            return channel_bucket
        frac = pooled_keep_fraction(spatial_mask, layer.pool_between)
        total = int(spatial_mask[0].size)
        spatial_bucket = quantize_kept_count(
            int(round(frac * total)), total, max(1, -(-total // 8))
        )
        return (channel_bucket, spatial_bucket)


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
    single ops, a :class:`WeightSliceCache` is allocated and shared by every
    convolution, and per-geometry output shapes are memoized.  ``run``
    threads a :class:`_MaskState` through the ops so each pruning site arms
    the convolution that consumes its masks.
    """

    #: Fine-grained dispatch-counter labels (satellite telemetry); the
    #: legacy dense/sparse/ragged totals are kept in sync for callers
    #: that predate per-strategy counting.
    DISPATCH_KINDS = (
        "per_input",
        "grouped",
        "stacked",
        "ragged",
        "ragged_spatial",
        "per_position",
        "dense",
    )

    def __init__(self, ops: List[object], config: PlanConfig):
        self.ops = ops
        self.config = config
        self.cache = WeightSliceCache(config.cache_entries)
        self.arenas = ArenaPool()
        self._dispatch_lock = threading.Lock()
        self.dense_dispatches = 0
        self.sparse_dispatches = 0
        self.ragged_dispatches = 0
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

        ``kind`` is a fine-grained path label — ``"per_input"``,
        ``"grouped"``, ``"stacked"``, ``"ragged"``, ``"ragged_spatial"``,
        ``"per_position"`` or ``"dense"`` (the legacy ``"sparse"`` is
        accepted and counted as grouped).  The aggregate
        dense/sparse/ragged counters are updated alongside the
        per-strategy breakdown so existing consumers keep working:
        kept-position bucketing counts as a ragged dispatch, the
        per-position oracle as a sparse one.
        """
        with self._dispatch_lock:
            if kind == "dense":
                self.dense_dispatches += 1
                self.dispatch_counts["dense"] += 1
            elif kind in ("ragged", "ragged_spatial"):
                self.ragged_dispatches += 1
                self.dispatch_counts[kind] += 1
            else:
                self.sparse_dispatches += 1
                fine = kind if kind in self.dispatch_counts else "grouped"
                self.dispatch_counts[fine] += 1

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

        config = config or PlanConfig()
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
                if config.fuse_conv_bn and j < len(flat) and isinstance(flat[j], BatchNorm2d):
                    bn = flat[j]
                    j += 1
                if config.fuse_conv_bn and j < len(flat) and isinstance(flat[j], ReLU):
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
        return cls(ops, config)

    def run(self, x: np.ndarray) -> np.ndarray:
        state = _MaskState()
        for op in self.ops:
            x = op.run(x, state, self)
        return x

    def kept_count_bucket(self, x: np.ndarray) -> Optional[object]:
        """Quantized kept-count bucket of the *first* pruning site for ``x``.

        The serving scheduler's kept-count-aware window assembly calls
        this at admission time to group requests that will bucket together
        inside the engine.  It runs the op prefix up to the first
        :class:`_PruneOp` (a fraction of a forward pass) and returns
        ``None`` when the plan has no pruning site — callers then fall
        back to unbucketed scheduling.  Channel-only sites yield an
        ``int``; sites with spatial pruning yield a
        ``(channel_bucket, spatial_bucket)`` tuple (see
        :meth:`_PruneOp.bucket_hint`) — both hashable, which is all the
        scheduler needs.  The probe's convolutions use the calling
        thread's arena and count toward dispatch telemetry.
        """
        state = _MaskState()
        for op in self.ops:
            if isinstance(op, _PruneOp):
                return op.bucket_hint(x, self)
            x = op.run(x, state, self)
        return None

    @property
    def cache_stats(self) -> Dict[str, int]:
        return self.cache.stats

    def reset_stats(self) -> None:
        """Zero dispatch and cache counters; cached weight slices survive.

        Telemetry resets (e.g. :meth:`repro.serve.InferenceSession.reset_stats`)
        must not throw away the gathered slices — steady-state traffic keeps
        hitting them — so this only clears the counters.
        """
        with self._dispatch_lock:
            self.dense_dispatches = 0
            self.sparse_dispatches = 0
            self.ragged_dispatches = 0
            self.dispatch_counts = dict.fromkeys(self.DISPATCH_KINDS, 0)
        self.cache.reset_counters()

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
    ``Linear`` and ``DynamicPruning`` layers by compiling it into an
    :class:`ExecutionPlan` once at construction.  When a ``DynamicPruning``
    layer fires, its masks are computed exactly as in the dense path and
    the next convolution runs sparsely: samples are grouped by channel-mask
    signature (one GEMM per group) and only kept columns' output positions
    are computed.

    This is the deployment interpreter for the paper's Fig. 1 — the dense
    instrumented model is the training/verification vehicle, this executor
    is what "the computation related can be thus skipped for efficiency"
    means operationally.
    """

    SUPPORTED = (Conv2d, BatchNorm2d, ReLU, MaxPool2d, GlobalAvgPool2d, Linear, DynamicPruning)

    def __init__(self, layers: Sequential, config: Optional[PlanConfig] = None):
        from ..baselines.dynamic import FBSGate

        supported = self.SUPPORTED + (FBSGate,)
        self.layers: List[Module] = _flatten(layers)
        for layer in self.layers:
            if not isinstance(layer, supported):
                raise UnsupportedGraphError(
                    f"SparseSequentialExecutor cannot interpret {type(layer).__name__}"
                )
        self.plan = ExecutionPlan.compile(self.layers, config)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run inference, skipping masked work.  Input/output are arrays."""
        return self.plan.run(x)

    __call__ = forward


class _BlockPlan:
    """Compiled ops for one :class:`BasicBlock` (fused at eval time).

    The ``bn*`` slots are populated only when ``fuse_conv_bn`` is off, in
    which case each convolution runs bare and its BatchNorm applies as a
    separate op (the seed executor's semantics).
    """

    __slots__ = ("conv1", "bn1", "prune", "conv2", "bn2", "shortcut", "shortcut_bn")

    def __init__(
        self,
        conv1: _ConvOp,
        bn1: Optional[_BNOp],
        prune: Optional[object],  # _PruneOp or _GateOp
        conv2: _ConvOp,
        bn2: Optional[_BNOp],
        shortcut: Optional[_ConvOp],
        shortcut_bn: Optional[_BNOp],
    ):
        self.conv1 = conv1
        self.bn1 = bn1
        self.prune = prune
        self.conv2 = conv2
        self.bn2 = bn2
        self.shortcut = shortcut
        self.shortcut_bn = shortcut_bn


class ResNetPlan(ExecutionPlan):
    """Compiled plan for the paper's CIFAR ResNet (stem/blocks/classifier).

    Shares the op primitives, weight-slice cache, and dispatch policy with
    :class:`ExecutionPlan`; the residual topology is encoded structurally
    instead of as a flat op list.
    """

    def __init__(self, model: ResNet, config: Optional[PlanConfig] = None):
        config = config or PlanConfig()
        super().__init__([], config)
        fuse = config.fuse_conv_bn
        key = 0
        self.stem = _ConvOp.compile(model.conv1, model.bn1 if fuse else None, fuse, key)
        self.stem_bn = None if fuse else _BNOp(model.bn1)
        key += 1
        self.blocks: List[_BlockPlan] = []
        for group in (model.group1, model.group2, model.group3):
            for block in group:
                self.blocks.append(self._compile_block(block, fuse, key))
                key += 3
        self.fc = _LinearOp(model.fc)

    def _compile_block(self, block: BasicBlock, fuse: bool, key: int) -> _BlockPlan:
        from ..baselines.dynamic import FBSGate

        conv1 = _ConvOp.compile(block.conv1, block.bn1 if fuse else None, fuse, key)
        conv2 = _ConvOp.compile(block.conv2, block.bn2 if fuse else None, False, key + 1)
        prune: Optional[object] = None
        site = block.relu1
        if isinstance(site, Sequential):
            for sub in site:
                if isinstance(sub, DynamicPruning):
                    prune = _PruneOp(sub)
                elif isinstance(sub, FBSGate):
                    prune = _GateOp(sub)
        shortcut: Optional[_ConvOp] = None
        shortcut_bn: Optional[_BNOp] = None
        if not isinstance(block.shortcut, Identity):
            projection, norm = list(block.shortcut)
            shortcut = _ConvOp.compile(projection, norm if fuse else None, False, key + 2)
            if not fuse:
                shortcut_bn = _BNOp(norm)
        return _BlockPlan(
            conv1,
            None if fuse else _BNOp(block.bn1),
            prune,
            conv2,
            None if fuse else _BNOp(block.bn2),
            shortcut,
            shortcut_bn,
        )

    # ------------------------------------------------------------------
    def _run_block(self, plan: _BlockPlan, x: np.ndarray) -> np.ndarray:
        state = _MaskState()
        out = plan.conv1.run(x, state, self)
        if plan.bn1 is not None:
            out = np.maximum(plan.bn1.run(out, state, self), 0.0)
        if plan.prune is not None:
            out = plan.prune.run(out, state, self)
        out = plan.conv2.run(out, state, self)
        if plan.bn2 is not None:
            out = plan.bn2.run(out, state, self)
        if plan.shortcut is None:
            shortcut = x
        else:
            shortcut = plan.shortcut.run(x, _MaskState(), self)
            if plan.shortcut_bn is not None:
                shortcut = plan.shortcut_bn.run(shortcut, state, self)
        return np.maximum(out + shortcut, 0.0)

    def run(self, x: np.ndarray) -> np.ndarray:
        state = _MaskState()
        out = self.stem.run(x, state, self)
        if self.stem_bn is not None:
            out = np.maximum(self.stem_bn.run(out, state, self), 0.0)
        for block_plan in self.blocks:
            out = self._run_block(block_plan, out)
        out = out.mean(axis=(2, 3))
        return self.fc.run(out, state, self)

    def kept_count_bucket(self, x: np.ndarray) -> Optional[int]:
        """Probe the first pruned block's site (see :class:`ExecutionPlan`)."""
        state = _MaskState()
        out = self.stem.run(x, state, self)
        if self.stem_bn is not None:
            out = np.maximum(self.stem_bn.run(out, state, self), 0.0)
        for block_plan in self.blocks:
            if isinstance(block_plan.prune, _PruneOp):
                probe_state = _MaskState()
                fm = block_plan.conv1.run(out, probe_state, self)
                if block_plan.bn1 is not None:
                    fm = np.maximum(block_plan.bn1.run(fm, probe_state, self), 0.0)
                return block_plan.prune.bucket_hint(fm, self)
            out = self._run_block(block_plan, out)
        return None


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


def dense_reference_forward(layers: Sequential, x: np.ndarray) -> np.ndarray:
    """Dense (masked but unskipped) forward for equivalence checks."""
    from ..nn import Tensor, no_grad

    with no_grad():
        out = layers(Tensor(x.astype(np.float32)))
    return out.data
