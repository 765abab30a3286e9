"""CIFAR-style ResNet models with AntiDote pruning-point metadata.

The paper's ResNet56 follows the classic CIFAR ResNet design: a 3x3 stem
conv (16 channels), then three groups of ``n`` basic blocks with 16/32/64
channels, spatial sizes 32/16/8, and stride-2 downsampling at group
boundaries; ``depth = 6n + 2`` so ResNet56 has ``n = 9``.

Sec. V-B(b): because the skip connection forces the block *output* width to
match, dynamic pruning is applied only to the *odd* layers — the feature map
after each block's first conv+ReLU, consumed by that block's second conv.
``pruning_points`` encodes exactly those sites.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..nn import BatchNorm2d, Conv2d, GlobalAvgPool2d, Identity, Linear, Module, ReLU, Sequential
from ..nn.tensor import Tensor
from .base import PrunableModel, PruningPoint

__all__ = ["BasicBlock", "ResNet", "resnet8", "resnet20", "resnet56"]


class BasicBlock(Module):
    """Two 3x3 convs with identity (or 1x1 projection) skip connection."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1, rng=None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


class ResNet(PrunableModel):
    """CIFAR ResNet with ``depth = 6n + 2``.

    Parameters
    ----------
    blocks_per_group:
        ``n`` in the 6n+2 formula (9 for ResNet56).
    num_classes, in_channels, width_multiplier, seed:
        As in :class:`repro.models.vgg.VGG`.
    """

    GROUP_CHANNELS = (16, 32, 64)

    def __init__(
        self,
        blocks_per_group: int = 9,
        num_classes: int = 10,
        in_channels: int = 3,
        width_multiplier: float = 1.0,
        seed: Optional[int] = 0,
    ):
        super().__init__()
        if blocks_per_group < 1:
            raise ValueError("blocks_per_group must be >= 1")
        rng = np.random.default_rng(seed)
        widths = [max(4, int(round(c * width_multiplier))) for c in self.GROUP_CHANNELS]
        self.blocks_per_group = blocks_per_group
        self.width_multiplier = width_multiplier
        self.depth = 6 * blocks_per_group + 2
        self.num_classes = num_classes

        self.conv1 = Conv2d(in_channels, widths[0], 3, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(widths[0])
        self.relu = ReLU()

        self._points: List[PruningPoint] = []
        layer_index = 0  # counts conv layers for reporting, stem excluded
        groups: List[Sequential] = []
        current = widths[0]
        for group_index, out_channels in enumerate(widths):
            stride = 1 if group_index == 0 else 2
            blocks: List[Module] = []
            for block_i in range(blocks_per_group):
                blocks.append(BasicBlock(current, out_channels, stride if block_i == 0 else 1, rng=rng))
                path = f"group{group_index + 1}.{block_i}"
                self._points.append(
                    PruningPoint(
                        path=f"{path}.relu1",
                        block_index=group_index,
                        layer_index=layer_index,
                        out_channels=out_channels,
                        next_conv_path=f"{path}.conv2",
                        pool_between=1,
                        conv_path=f"{path}.conv1",
                    )
                )
                layer_index += 2
                current = out_channels
            groups.append(Sequential(*blocks))
        self.group1, self.group2, self.group3 = groups
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(widths[-1], num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.relu(self.bn1(self.conv1(x)))
        x = self.group3(self.group2(self.group1(x)))
        x = self.pool(x)
        return self.fc(x)

    def pruning_points(self) -> List[PruningPoint]:
        return list(self._points)


def resnet8(num_classes: int = 10, width_multiplier: float = 1.0, seed: Optional[int] = 0) -> ResNet:
    """Depth-8 ResNet (n=1) for fast integration tests."""
    return ResNet(1, num_classes=num_classes, width_multiplier=width_multiplier, seed=seed)


def resnet20(num_classes: int = 10, width_multiplier: float = 1.0, seed: Optional[int] = 0) -> ResNet:
    """Depth-20 ResNet (n=3)."""
    return ResNet(3, num_classes=num_classes, width_multiplier=width_multiplier, seed=seed)


def resnet56(num_classes: int = 10, width_multiplier: float = 1.0, seed: Optional[int] = 0) -> ResNet:
    """The paper's ResNet56 (n=9, three groups of 16/32/64 channels)."""
    return ResNet(9, num_classes=num_classes, width_multiplier=width_multiplier, seed=seed)
