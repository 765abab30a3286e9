"""Helpers shared by the ``benchmarks`` package's modules."""

from __future__ import annotations

import time
from typing import Callable

from repro.models import ResNet, vgg16


def timed(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def fresh_vgg(num_classes: int = 10, seed: int = 0):
    """Slim VGG16 (1/8 width) used throughout the benchmark harness."""
    return vgg16(num_classes=num_classes, width_multiplier=0.125, seed=seed)


def fresh_resnet(num_classes: int = 10, seed: int = 0):
    """Small ResNet (n=2, half width) used throughout the harness."""
    return ResNet(2, num_classes=num_classes, width_multiplier=0.5, seed=seed)


def load_vgg(state, num_classes: int = 10):
    """Fresh slim VGG16 initialized from a trained state dict."""
    model = fresh_vgg(num_classes=num_classes)
    model.load_state_dict(state)
    return model


def load_resnet(state, num_classes: int = 10):
    """Fresh small ResNet initialized from a trained state dict."""
    model = fresh_resnet(num_classes=num_classes)
    model.load_state_dict(state)
    return model
