"""A VGG-style conv stack with AntiDote pruning sites after every block.

The smallest model the sparse engine, the serving layer and the registry
all accept: a plain :class:`~repro.nn.Sequential` of Conv→BN→ReLU blocks,
each but the last followed by a :class:`~repro.core.pruning.DynamicPruning`
site, then global pooling and a linear head.  The registry rebuilds it
from the ``conv_stack`` architecture family, and ``repro serve`` serves
it when no artifact is named.
"""

from __future__ import annotations

import numpy as np

from ..core.pruning import DynamicPruning
from ..nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Linear, ReLU, Sequential

__all__ = ["build_conv_stack"]


def build_conv_stack(
    channel_ratio: float,
    spatial_ratio: float = 0.0,
    width: int = 64,
    depth: int = 4,
    seed: int = 0,
    granularity: str = "input",
) -> Sequential:
    """VGG-style conv stack with AntiDote pruning sites, in eval mode."""
    rng = np.random.default_rng(seed)
    layers = [
        Conv2d(3, width, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(width),
        ReLU(),
        DynamicPruning(channel_ratio, spatial_ratio, granularity=granularity),
    ]
    for _ in range(depth - 2):
        layers += [
            Conv2d(width, width, 3, padding=1, bias=False, rng=rng),
            BatchNorm2d(width),
            ReLU(),
            DynamicPruning(channel_ratio, spatial_ratio, granularity=granularity),
        ]
    layers += [
        Conv2d(width, width, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(width),
        ReLU(),
        GlobalAvgPool2d(),
        Linear(width, 10, rng=rng),
    ]
    stack = Sequential(*layers)
    stack.eval()
    return stack
