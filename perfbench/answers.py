"""Answer checks: bit-identity to lone execution, and a float64 reference.

The reference is written here from the model's weights and the paper's
Eqs. 1-5, with none of the program's kernels: convolution, eval-mode
batch norm, ReLU, channel and column attention, top-k or threshold
masks, max-pool, global pooling and the linear head, all in float64.

Column pruning follows the engine's skip semantics
(``repro/core/sparse_exec.py``, module docstring): output positions whose
input column was dropped are zero after the fused conv+BN, rather than
the BN shift the masked dense forward would leave there.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.models.resnet import ResNet
from repro.models.vgg import VGG
from repro.nn import BatchNorm2d, Conv2d, MaxPool2d, ReLU, Sequential
from repro.core.pruning import DynamicPruning

#: A request is left out of the reference comparison when a mask decision
#: rests on scores closer than this share of the site's largest score:
#: float32 execution may order them either way.  float32 scores differ
#: from float64 ones by at most 1e-6 of that scale on every workload
#: (README.md), so a gap this wide cannot flip.
AMBIGUITY = 2e-5
#: Logit tolerance, as a share of the largest reference logit.  Measured
#: float32-vs-float64 error is below 1e-6 of it; one flipped mask
#: decision costs 1e-2 or more.
LOGIT_TOLERANCE = 1e-4


# ----------------------------------------------------------------------
# float64 reference
# ----------------------------------------------------------------------
def _conv(x: np.ndarray, conv: Conv2d) -> np.ndarray:
    weight = conv.weight.data.astype(np.float64)
    p, s, k = conv.padding, conv.stride, weight.shape[2]
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    out = np.tensordot(windows, weight, axes=([1, 4, 5], [1, 2, 3]))
    out = out.transpose(0, 3, 1, 2)
    if conv.bias is not None:
        out = out + conv.bias.data.astype(np.float64)[None, :, None, None]
    return out


def _bn(x: np.ndarray, bn: BatchNorm2d) -> np.ndarray:
    def col(v):
        return np.asarray(v, dtype=np.float64)[None, :, None, None]

    return (x - col(bn.running_mean)) / np.sqrt(col(bn.running_var) + bn.eps) * col(
        bn.gamma.data
    ) + col(bn.beta.data)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _mask(scores: np.ndarray, pruner: DynamicPruning, ratio: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eqs. 3-4 (top-k) or the threshold rule; returns (mask, ambiguous rows)."""
    n, m = scores.shape
    scale = np.abs(scores).max(axis=1) + 1e-30
    if pruner.mask_mode == "topk":
        k = max(1, int((1.0 - ratio) * m))
        if k == m:
            return np.ones((n, m), dtype=bool), np.zeros(n, dtype=bool)
        ordered = -np.sort(-scores, axis=1)
        kth, nxt = ordered[:, k - 1], ordered[:, k]
        mask = scores >= kth[:, None]
        # Ties among all-zero (dead) channels change nothing downstream.
        ambiguous = (kth - nxt <= AMBIGUITY * scale) & (kth > AMBIGUITY * scale)
        return mask, ambiguous
    threshold = pruner.threshold
    mask = scores > threshold
    empty = ~mask.any(axis=1)
    mask[empty, scores[empty].argmax(axis=1)] = True
    ambiguous = (np.abs(scores - threshold) <= AMBIGUITY * scale[:, None]).any(axis=1)
    return mask, ambiguous


def _site(x: np.ndarray, pruner: DynamicPruning, ambiguous: np.ndarray):
    """Eqs. 1-5 on a post-ReLU map; returns (masked map, column mask or None)."""
    if not pruner.active:
        return x, None
    if pruner.criterion_name != "attention" or pruner.granularity != "input":
        raise ValueError("the reference covers per-input attention criteria only")
    # Both attentions score the same unmasked map (Eqs. 1-2).
    n, _, h, w = x.shape
    channel_scores, column_scores = x.mean(axis=(2, 3)), x.mean(axis=1).reshape(n, h * w)
    spatial = None
    if pruner.channel_ratio > 0.0:
        channel, amb = _mask(channel_scores, pruner, pruner.channel_ratio)  # Eq. 3
        ambiguous |= amb
        x = x * channel[:, :, None, None]  # Eq. 5
    if pruner.spatial_ratio > 0.0:
        column, amb = _mask(column_scores, pruner, pruner.spatial_ratio)  # Eq. 4
        ambiguous |= amb
        spatial = column.reshape(n, h, w)
        x = x * spatial[:, None, :, :]
    return x, spatial


def _site_of(module) -> Tuple[bool, DynamicPruning]:
    """``(is_relu_site, pruner)`` for a ``Sequential(ReLU, DynamicPruning)``."""
    if isinstance(module, Sequential):
        parts = list(module.children())
        if len(parts) == 2 and isinstance(parts[0], ReLU) and isinstance(parts[1], DynamicPruning):
            return True, parts[1]
    return False, None


def _vgg(model: VGG, x: np.ndarray, ambiguous: np.ndarray) -> np.ndarray:
    for module in model.features.children():
        is_site, pruner = _site_of(module)
        if is_site:
            x, spatial = _site(_relu(x), pruner, ambiguous)
            if spatial is not None:
                raise ValueError("the VGG reference covers channel-only sites")
        elif isinstance(module, Conv2d):
            x = _conv(x, module)
        elif isinstance(module, BatchNorm2d):
            x = _bn(x, module)
        elif isinstance(module, ReLU):
            x = _relu(x)
        elif isinstance(module, MaxPool2d):
            k, s = module.kernel_size, module.stride
            x = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s].max(axis=(4, 5))
        else:
            raise TypeError(f"reference does not know {type(module).__name__}")
    return _head(x.mean(axis=(2, 3)), model.classifier)


def _resnet(model: ResNet, x: np.ndarray, ambiguous: np.ndarray) -> np.ndarray:
    x = _relu(_bn(_conv(x, model.conv1), model.bn1))
    for group in (model.group1, model.group2, model.group3):
        for block in group.children():
            out = _bn(_conv(x, block.conv1), block.bn1)
            is_site, pruner = _site_of(block.relu1)
            if is_site:
                out, spatial = _site(_relu(out), pruner, ambiguous)
            else:
                out, spatial = _relu(out), None
            out = _bn(_conv(out, block.conv2), block.bn2)
            if spatial is not None:
                # Skip semantics: a dropped column's output stays zero.
                out = out * spatial[:, None, :, :]
            if isinstance(block.shortcut, Sequential):
                projection, norm = list(block.shortcut.children())
                shortcut = _bn(_conv(x, projection), norm)
            else:
                shortcut = x
            x = _relu(out + shortcut)
    return _head(x.mean(axis=(2, 3)), model.fc)


def _head(x: np.ndarray, linear) -> np.ndarray:
    out = x @ linear.weight.data.astype(np.float64).T
    if linear.bias is not None:
        out = out + linear.bias.data.astype(np.float64)
    return out


def reference_logits(model, images: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """float64 logits and, per image, whether a mask decision was ambiguous."""
    x = np.asarray(images, dtype=np.float64)
    ambiguous = np.zeros(x.shape[0], dtype=bool)
    if isinstance(model, VGG):
        return _vgg(model, x, ambiguous), ambiguous
    if isinstance(model, ResNet):
        return _resnet(model, x, ambiguous), ambiguous
    raise TypeError(f"reference does not know {type(model).__name__}")


# ----------------------------------------------------------------------
# The checks, one verdict per response
# ----------------------------------------------------------------------
def bit_identical(response: np.ndarray, lone: np.ndarray) -> bool:
    return response.shape == lone.shape and bool(np.array_equal(response, lone))


def matches_reference(response: np.ndarray, reference: np.ndarray) -> Tuple[bool, bool]:
    """``(logits allclose, top-1 equal)`` against the float64 reference."""
    response = np.asarray(response, dtype=np.float64).reshape(reference.shape)
    scale = float(np.abs(reference).max())
    close = bool(np.allclose(response, reference, rtol=0.0, atol=LOGIT_TOLERANCE * scale))
    top1 = bool(np.array_equal(response.argmax(axis=-1), reference.argmax(axis=-1)))
    return close, top1


def perturbations(response: np.ndarray) -> List[Tuple[str, np.ndarray]]:
    """Deliberately wrong copies of a response, one per check they must trip."""
    one_ulp = response.copy()
    flat = one_ulp.reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf, dtype=flat.dtype)
    shifted = response.copy()
    shifted.reshape(-1)[-1] += 10 * LOGIT_TOLERANCE * float(np.abs(response).max())
    swapped = response.copy()
    row = swapped.reshape(-1, swapped.shape[-1])[0]
    top, second = np.argsort(row)[::-1][:2]
    row[[top, second]] = row[[second, top]]
    return [("one_ulp", one_ulp), ("shifted_logit", shifted), ("swapped_top2", swapped)]
