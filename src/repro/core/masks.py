"""Binary pruning masks from attention coefficients (Eqs. 3-4).

The paper keeps the top-k scored components, with ``k = int(p * total)``
where ``p`` is the *reserved* percentage.  Everything in this repo is
parameterized by the complementary **pruning ratio** ``r = 1 - p`` because
that is what the paper's tables report (e.g. per-block channel ratios
``[0.2, 0.2, 0.6, 0.9, 0.9]``).
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import numpy as np

__all__ = [
    "reserved_count",
    "topk_mask",
    "channel_mask",
    "spatial_mask",
    "keep_fraction",
    "threshold_mask",
    "threshold_channel_mask",
    "threshold_spatial_mask",
    "batch_union",
    "MaskSpec",
    "kept_counts",
    "quantize_kept_count",
    "group_by_kept_count",
    "output_grid_mask",
]


def reserved_count(total: int, prune_ratio: float) -> int:
    """Number of components kept for a given pruning ratio.

    Implements ``k = int(p * total)`` from Eq. 3 with ``p = 1 - prune_ratio``,
    clamped so at least one component always survives (a fully-masked feature
    map would zero the forward signal entirely).
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0.0 <= prune_ratio <= 1.0:
        raise ValueError(f"prune ratio must be in [0, 1], got {prune_ratio}")
    return max(1, int((1.0 - prune_ratio) * total))


def topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Row-wise boolean mask keeping the ``k`` largest entries.

    ``scores`` has shape ``(N, M)``; ties are broken by index order
    (``argpartition``), which matches the deterministic behaviour of
    ``torch.topk`` closely enough for the algorithms here.
    """
    n, m = scores.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} components")
    mask = np.zeros((n, m), dtype=bool)
    if k == m:
        mask[:] = True
        return mask
    # argpartition puts the k largest (unordered) in the last k slots.
    top_idx = np.argpartition(scores, m - k, axis=1)[:, m - k :]
    np.put_along_axis(mask, top_idx, True, axis=1)
    return mask


def channel_mask(channel_scores: np.ndarray, prune_ratio: float) -> np.ndarray:
    """Eq. 3: per-input binary channel mask.

    Parameters
    ----------
    channel_scores:
        ``(N, C)`` attention coefficients.
    prune_ratio:
        Fraction of channels removed.

    Returns
    -------
    Boolean array of shape ``(N, C)``.
    """
    n, c = channel_scores.shape
    return topk_mask(channel_scores, reserved_count(c, prune_ratio))


def spatial_mask(spatial_scores: np.ndarray, prune_ratio: float) -> np.ndarray:
    """Eq. 4: per-input binary spatial column mask.

    Parameters
    ----------
    spatial_scores:
        ``(N, H, W)`` attention heat maps.
    prune_ratio:
        Fraction of spatial columns removed.

    Returns
    -------
    Boolean array of shape ``(N, H, W)``.
    """
    n, h, w = spatial_scores.shape
    flat = spatial_scores.reshape(n, h * w)
    k = reserved_count(h * w, prune_ratio)
    return topk_mask(flat, k).reshape(n, h, w)


def keep_fraction(mask: np.ndarray) -> float:
    """Mean kept fraction of a boolean mask (per batch)."""
    return float(mask.mean())


# ----------------------------------------------------------------------
# Extensions beyond the paper's Eq. 3/4 top-k rule
# ----------------------------------------------------------------------
def threshold_mask(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Row-wise mask keeping entries with score strictly above ``threshold``.

    An *input-adaptive* alternative to the paper's fixed top-k: easy inputs
    (few strongly-activated components) get more pruning than hard ones, so
    the keep fraction — and hence the per-input FLOPs — varies.  Rows where
    nothing clears the threshold keep their single best entry, preserving
    the at-least-one invariant of :func:`reserved_count`.
    """
    if scores.ndim != 2:
        raise ValueError("scores must be 2-D (rows = batch)")
    mask = scores > threshold
    empty = ~mask.any(axis=1)
    if empty.any():
        best = scores[empty].argmax(axis=1)
        mask[np.flatnonzero(empty), best] = True
    return mask


def threshold_channel_mask(channel_scores: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold variant of Eq. 3 over ``(N, C)`` channel attention."""
    return threshold_mask(channel_scores, threshold)


def threshold_spatial_mask(spatial_scores: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold variant of Eq. 4 over ``(N, H, W)`` spatial attention."""
    n, h, w = spatial_scores.shape
    return threshold_mask(spatial_scores.reshape(n, h * w), threshold).reshape(n, h, w)


# ----------------------------------------------------------------------
# MaskSpec: one description for both mask-building rules
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class MaskSpec:
    """How a pruning site turns attention scores into a binary mask.

    Unifies the paper's fixed top-k rule (``mode="topk"``: every sample
    keeps ``reserved_count(total, ratio)`` components) and the adaptive
    threshold rule (``mode="threshold"``: components scoring strictly above
    ``threshold`` survive, so the kept *count* varies per sample).  The
    distinction matters operationally: top-k masks have one kept-count per
    batch and stack into equal-shape GEMMs, threshold masks are **ragged**
    and need kept-count bucketing (:func:`group_by_kept_count`) to batch.

    Attributes
    ----------
    mode:
        ``"topk"`` (Eqs. 3-4) or ``"threshold"`` (adaptive extension).
    ratio:
        Pruning ratio for top-k mode.  In threshold mode the ratio is only
        an on/off switch at the pruning site; it does not shape the mask.
    threshold:
        Score cut-off for threshold mode (ignored by top-k).
    """

    mode: str = "topk"
    ratio: float = 0.0
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("topk", "threshold"):
            raise ValueError(f"mode must be 'topk' or 'threshold', got {self.mode!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ValueError(f"ratio must be in [0, 1], got {self.ratio}")

    @property
    def adaptive(self) -> bool:
        """Whether per-sample kept-counts can differ (ragged execution)."""
        return self.mode == "threshold"

    def build(self, scores: np.ndarray) -> np.ndarray:
        """Row-wise boolean mask over ``(N, M)`` scores."""
        if self.mode == "topk":
            return topk_mask(scores, reserved_count(scores.shape[1], self.ratio))
        return threshold_mask(scores, self.threshold)

    def build_spatial(self, scores: np.ndarray) -> np.ndarray:
        """Mask over ``(N, H, W)`` spatial scores (flattened internally)."""
        n, h, w = scores.shape
        return self.build(scores.reshape(n, h * w)).reshape(n, h, w)

    def signature(self) -> Tuple[str, float]:
        """Hashable identity of the rule (for plan/bucket cache keys)."""
        if self.mode == "topk":
            return ("topk", self.ratio)
        return ("threshold", self.threshold)


def kept_counts(mask: np.ndarray) -> np.ndarray:
    """Per-sample kept component counts of a ``(N, ...)`` boolean mask.

    Trailing dimensions are flattened, so the same helper counts kept
    *channels* of an ``(N, C)`` mask and kept *positions* of an
    ``(N, H, W)`` spatial mask — which is what lets
    :func:`group_by_kept_count` bucket both axes identically.
    """
    mask = np.asarray(mask, dtype=bool)
    return mask.reshape(mask.shape[0], -1).sum(axis=1).astype(np.int64)


def output_grid_mask(
    mask: np.ndarray, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Subsample an ``(N, H, W)`` spatial mask onto a conv's output grid.

    A spatial mask is defined at input resolution (Eq. 4); a strided
    convolution only ever *writes* output positions whose top-left input
    coordinate survives, so the execution engine works on the
    ``(N, out_h, out_w)`` restriction.  Returned as a strided view (no
    copy) — flatten or pass it straight to :func:`kept_counts` /
    :func:`group_by_kept_count` for kept-position bucketing.
    """
    if mask.ndim != 3:
        raise ValueError(f"spatial mask must be (N, H, W), got shape {mask.shape}")
    return mask[:, ::stride, ::stride][:, :out_h, :out_w]


def quantize_kept_count(count: int, total: int, quantum: int = 4) -> int:
    """Round a kept-count up to the next bucket boundary.

    Ragged batches are executed one padded GEMM per *bucket*; quantizing
    counts up to multiples of ``quantum`` (clamped to ``total``) trades a
    bounded amount of zero-padded work for far fewer distinct GEMM shapes
    — which is also what keeps workspace-arena buffers reusable across
    calls instead of re-growing for every novel count.  ``0`` stays ``0``
    (an all-dropped sample computes nothing).
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if quantum < 1:
        raise ValueError("quantum must be >= 1")
    if count <= 0:
        return 0
    return min(int(total), -(-int(count) // quantum) * quantum)


def group_by_kept_count(
    mask: np.ndarray, quantum: int = 4
) -> List[Tuple[int, np.ndarray]]:
    """Partition batch rows into quantized kept-count buckets.

    Returns ``(bucket_count, sample_indices)`` pairs sorted by bucket
    count ascending.  Every sample lands in exactly one bucket; the bucket
    count is :func:`quantize_kept_count` of the row's kept-count, so a
    sample's bucket depends only on its *own* mask — the property that
    makes bucketed execution batch-invariant.
    """
    mask = np.asarray(mask, dtype=bool)
    counts = kept_counts(mask)
    total = int(mask.reshape(mask.shape[0], -1).shape[1])
    quantized = np.array(
        [quantize_kept_count(int(c), total, quantum) for c in counts], dtype=np.int64
    )
    buckets: List[Tuple[int, np.ndarray]] = []
    for value in np.unique(quantized):
        buckets.append((int(value), np.flatnonzero(quantized == value)))
    return buckets


def batch_union(mask: np.ndarray) -> np.ndarray:
    """Broadcast the union of per-input masks to the whole batch.

    Per-input masks defeat batched dense kernels (every sample selects
    different channels).  The batch-union relaxation keeps a component if
    *any* sample in the batch needs it — a strictly larger mask (less
    saving) that permits one gather per batch.  Masks of shape ``(N, ...)``
    come back with the same shape, every row identical.
    """
    union = mask.any(axis=0, keepdims=True)
    return np.broadcast_to(union, mask.shape)
