"""Model zoo: the paper's VGG16 and ResNet56 plus scaled variants."""

from .base import PrunableModel, PruningPoint
from .resnet import BasicBlock, ResNet, resnet8, resnet20, resnet56
from .vgg import VGG, VGG11_BLOCKS, VGG16_BLOCKS, vgg11, vgg16, vgg16_slim
from .conv_stack import build_conv_stack

__all__ = [
    "PrunableModel",
    "PruningPoint",
    "VGG",
    "vgg16",
    "vgg16_slim",
    "vgg11",
    "VGG16_BLOCKS",
    "VGG11_BLOCKS",
    "ResNet",
    "BasicBlock",
    "resnet8",
    "resnet20",
    "resnet56",
    "build_conv_stack",
]
