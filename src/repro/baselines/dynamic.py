"""Dynamic comparison methods from the paper's related work (Sec. II).

* :class:`SEBlock` — SENET-style *soft* channel attention [10]: a learned
  squeeze-excitation gate that re-weights channels with sigmoid
  coefficients.  Sec. III-A's point: soft re-weighting improves accuracy
  but "can hardly remove feature components for neural network
  acceleration" — every channel still gets computed.  Included so the
  binarized-vs-sigmoid design choice can be ablated on the same substrate.
* :class:`FBSGate` — a Feature Boosting and Suppression-style gate, Gao et
  al. [13]: a *learned* per-layer saliency predictor whose top-k winners
  keep (and re-scale) their channels while the rest are suppressed to zero.
  FBS is the closest prior dynamic channel-pruning method; unlike AntiDote
  it needs trainable gate parameters per layer and provides no spatial
  dimension.

Both are implemented as drop-in modules for the same pruning points used by
:func:`repro.core.pruning.instrument_model`, so benchmarks compare methods
on identical models, data and FLOPs accounting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..core.masks import channel_mask as make_channel_mask, reserved_count
from ..core.pruning import pooled_keep_fraction
from ..models.base import PrunableModel, PruningPoint
from ..nn import Linear, Module, Sequential
from ..nn import functional as F
from ..nn.tensor import Tensor

__all__ = ["SEBlock", "FBSGate", "instrument_with_gates", "GatedModel"]


class SEBlock(Module):
    """Squeeze-and-excitation channel re-weighting (soft attention) [10].

    ``x * sigmoid(W2 relu(W1 GAP(x)))`` with a reduction-``r`` bottleneck.
    Accuracy-oriented: computes every channel, saves no FLOPs.
    """

    def __init__(self, channels: int, reduction: int = 4, seed: Optional[int] = None):
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be positive")
        hidden = max(1, channels // reduction)
        rng = np.random.default_rng(seed)
        self.channels = channels
        self.fc1 = Linear(channels, hidden, rng=rng)
        self.fc2 = Linear(hidden, channels, rng=rng)
        self.last_weights: Optional[np.ndarray] = None

    def forward(self, x: Tensor) -> Tensor:
        n, c = x.shape[0], x.shape[1]
        squeezed = F.global_avg_pool2d(x)
        weights = self.fc2(self.fc1(squeezed).relu()).sigmoid()
        self.last_weights = weights.data
        return x * weights.reshape(n, c, 1, 1)

    def __repr__(self) -> str:
        return f"SEBlock({self.channels})"


class FBSGate(Module):
    """Learned top-k channel gate in the style of FBS [13].

    A linear saliency predictor over the squeezed (GAP) feature map; the
    top-k predicted channels are kept *and re-scaled by their predicted
    saliency* (boosting), the rest suppressed to zero.  Gradients flow into
    the predictor through the kept channels' scaling, which is how the gate
    learns during training.

    ``prune_ratio`` follows the same Eq. 3 arithmetic as AntiDote so FLOPs
    comparisons are apples-to-apples.

    The gate scales what the next convolution and its BatchNorm see.  While
    gates and weights adapt jointly, the BatchNorm running statistics lag
    the gate: the predictor keeps moving and the pre-BN variance keeps
    growing.  Eval-mode accuracy therefore needs an adaptation budget like
    the dynamic-methods benchmark's 8 epochs; after a few joint steps the
    training loss can fall while eval mode still scores at chance.
    """

    def __init__(
        self,
        channels: int,
        prune_ratio: float = 0.0,
        seed: Optional[int] = None,
        pool_between: int = 1,
    ):
        super().__init__()
        if not 0.0 <= prune_ratio <= 1.0:
            raise ValueError(f"prune ratio must be in [0, 1], got {prune_ratio}")
        rng = np.random.default_rng(seed)
        self.channels = channels
        self.prune_ratio = float(prune_ratio)
        self.predictor = Linear(channels, channels, rng=rng)
        self.pool_between = pool_between
        self.enabled = True
        self.last_mask: Optional[np.ndarray] = None
        self.last_spatial_mask: Optional[np.ndarray] = None
        self.reset_stats()

    def reset_stats(self) -> None:
        self._samples = 0
        self._keep_sum = 0.0
        self._spatial_keep_pooled_sum = 0.0

    @property
    def active(self) -> bool:
        return self.enabled and self.prune_ratio > 0.0

    @property
    def mean_channel_keep(self) -> float:
        return self._keep_sum / self._samples if self._samples else 1.0

    # FBS prunes only channels, so its spatial mask is all-True — but the
    # pooled keep is still *computed* through the same
    # :func:`repro.core.pruning.pooled_keep_fraction` helper DynamicPruning
    # uses, rather than hardcoded, so the FLOPs accounting of the two
    # methods can never diverge on pooling semantics.
    @property
    def mean_spatial_keep_pooled(self) -> float:
        return (
            self._spatial_keep_pooled_sum / self._samples if self._samples else 1.0
        )

    def forward(self, x: Tensor) -> Tensor:
        if not self.active:
            return x
        n, c = x.shape[0], x.shape[1]
        squeezed = F.global_avg_pool2d(x)
        saliency = self.predictor(squeezed).relu()  # (N, C), differentiable
        # Tiny index-based offsets break ties deterministically (post-ReLU
        # saliencies are frequently exactly zero early in training).
        tie_break = np.arange(c, dtype=saliency.data.dtype) * 1e-9
        mask = make_channel_mask(saliency.data + tie_break, self.prune_ratio)
        self.last_mask = mask
        self.last_spatial_mask = np.ones(
            (n, int(x.shape[2]), int(x.shape[3])), dtype=bool
        )
        self._samples += n
        self._keep_sum += float(mask.mean()) * n
        self._spatial_keep_pooled_sum += (
            pooled_keep_fraction(self.last_spatial_mask, self.pool_between) * n
        )
        gated = F.apply_mask(saliency, mask.astype(x.dtype))
        # Kept boosts average 1 for each sample: suppressed channels are
        # exactly zero, so the sum over C is the sum over the k kept
        # channels, and it is divided by k, not C.  The int divisor and the
        # input-dtype epsilon keep a float32 gate in float32 (a Python
        # float operand would become a float64 array and promote it).
        kept = reserved_count(c, self.prune_ratio)
        eps = np.asarray(1e-6, dtype=x.dtype)
        denom = gated.sum(axis=1, keepdims=True) / kept + eps
        gated = gated / denom
        return x * gated.reshape(n, c, 1, 1)

    def __repr__(self) -> str:
        return f"FBSGate({self.channels}, prune_ratio={self.prune_ratio})"


class GatedModel:
    """A model instrumented with learned gates at its pruning points.

    The FBS analogue of :class:`repro.core.pruning.InstrumentedModel`.
    """

    def __init__(self, model: PrunableModel, gates: List[Tuple[PruningPoint, FBSGate]]):
        self.model = model
        self.gates = gates

    def __call__(self, x: Tensor) -> Tensor:
        return self.model(x)

    def set_block_ratios(self, channel_ratios) -> None:
        for point, gate in self.gates:
            ratio = channel_ratios[point.block_index]
            if not 0.0 <= ratio <= 1.0:
                raise ValueError(f"ratio {ratio} outside [0, 1]")
            gate.prune_ratio = float(ratio)

    def set_enabled(self, enabled: bool) -> None:
        for _, gate in self.gates:
            gate.enabled = enabled

    def reset_stats(self) -> None:
        for _, gate in self.gates:
            gate.reset_stats()

    def gate_parameters(self):
        for _, gate in self.gates:
            yield from gate.parameters()

    @property
    def num_blocks(self) -> int:
        return self.model.num_blocks


def instrument_with_gates(
    model: PrunableModel,
    channel_ratios,
    seed: Optional[int] = 0,
) -> GatedModel:
    """Insert an :class:`FBSGate` at every pruning point of ``model``."""
    points = model.pruning_points()
    if len(channel_ratios) != model.num_blocks:
        raise ValueError(
            f"expected {model.num_blocks} block ratios, got {len(channel_ratios)}"
        )
    gates: List[Tuple[PruningPoint, FBSGate]] = []
    for i, point in enumerate(points):
        site = model.get_submodule(point.path)
        if isinstance(site, Sequential) and any(isinstance(m, FBSGate) for m in site.children()):
            raise RuntimeError(f"model already gated at {point.path}")
        gate = FBSGate(
            point.out_channels,
            prune_ratio=channel_ratios[point.block_index],
            seed=None if seed is None else seed + i,
        )
        model.set_submodule(point.path, Sequential(site, gate))
        gates.append((point, gate))
    return GatedModel(model, gates)
