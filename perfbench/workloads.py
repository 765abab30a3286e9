"""The benchmark's workloads: seeded models, their artifacts, their inputs.

Every workload serves one of the paper's Table I settings through the
public serving API.  Weights, held-out calibration images and request
images all derive from the run's ``--seed``; the program only ever sees
the generated arrays.  Top-k kept counts follow from the pruning ratios
alone, so the random weights exercise exactly the kernel shapes a trained
model would.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.analysis import TABLE1_SETTINGS
from repro.core.pruning import (
    InstrumentedModel,
    PruningConfig,
    calibrate_thresholds,
    instrument_model,
)
from repro.datasets.synthetic import cifar10_like
from repro.models.resnet import ResNet
from repro.models.vgg import VGG, VGG16_BLOCKS
from repro.nn import BatchNorm2d
from repro.serve import SessionConfig

IMAGE_SHAPE = (3, 32, 32)
#: Held-out images ``calibrate_thresholds`` sees (never served).
CALIBRATION_IMAGES = 64


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setting: str  # key of repro.analysis.TABLE1_SETTINGS
    width: float
    adaptive: bool  # threshold masks from calibrate_thresholds(fraction=1.0)
    backend: str
    session: SessionConfig
    proc_workers: int = 0

    @property
    def arch(self) -> str:
        return "vgg16" if self.setting.startswith("vgg16") else "resnet56"

    @property
    def inflight(self) -> int:
        """Requests the closed loop keeps outstanding: two batch windows."""
        return 2 * self.session.max_batch

    def engine_kwargs(self, profile: bool = False) -> dict:
        if self.backend != "procpool":
            return {}
        return {"proc_workers": self.proc_workers, "profile": profile}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vgg16_cifar10_topk", "vgg16_cifar10", 1.0, False, "auto",
            SessionConfig(max_batch=8, workers=1),
        ),
        Workload(
            "resnet56_cifar10_columns", "resnet56_cifar10", 1.0, False, "auto",
            SessionConfig(max_batch=8, workers=1),
        ),
        Workload(
            "vgg16_cifar10_adaptive", "vgg16_cifar10", 0.5, True, "auto",
            SessionConfig(max_batch=8, workers=1, bucket_requests=True),
        ),
        # Runnable by name but left out of BENCHMARK.json: with no BLAS
        # thread budget its throughput does not repeat (see README.md).
        Workload(
            "resnet56_cifar10_procpool", "resnet56_cifar10", 1.0, False, "procpool",
            SessionConfig(max_batch=8, workers=2), proc_workers=2,
        ),
    )
}


def sub_seeds(seed: int) -> Tuple[int, int, int]:
    """Independent (weights, batch-norm statistics, images) seeds."""
    weights, norm, images = np.random.SeedSequence(seed).generate_state(3)
    return int(weights), int(norm), int(images)


def make_images(seed: int, requests: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(request_images, calibration_images)``, all distinct, from one seed.

    Requests come from the generator's training split and calibration
    images from its test split, which uses another stream of the same
    seed, so no calibration image is ever served.
    """
    per_class = -(-requests // 10)
    data = cifar10_like(
        train_per_class=per_class,
        test_per_class=CALIBRATION_IMAGES // 10 + 1,
        seed=sub_seeds(seed)[2],
    )
    train, test = data.splits()
    return train.images[:requests], test.images[:CALIBRATION_IMAGES]


def _randomize_batchnorm(model, rng: np.random.Generator) -> None:
    """Non-trivial eval-mode BN so the reference check exercises Eq. BN."""
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.gamma.data.shape[0]
            module.gamma.data[:] = rng.uniform(0.8, 1.2, c)
            module.beta.data[:] = rng.normal(0.0, 0.1, c)
            module.running_mean[:] = rng.normal(0.0, 0.1, c)
            module.running_var[:] = rng.uniform(0.6, 1.4, c)


def build_model(
    workload: Workload, seed: int, calibration: Optional[np.ndarray]
) -> InstrumentedModel:
    """The workload's seeded model, instrumented with its Table I ratios."""
    weights_seed, norm_seed, _ = sub_seeds(seed)
    if workload.arch == "vgg16":
        model = VGG(VGG16_BLOCKS, width_multiplier=workload.width, seed=weights_seed)
    else:
        model = ResNet(9, width_multiplier=workload.width, seed=weights_seed)
    _randomize_batchnorm(model, np.random.default_rng(norm_seed))
    model.eval()
    setting = TABLE1_SETTINGS[workload.setting]
    handle = instrument_model(
        model, PruningConfig(setting.channel_ratios, setting.spatial_ratios)
    )
    if workload.adaptive:
        # The ratios stay as on/off switches; the cut-offs decide what is kept.
        calibrate_thresholds(handle, calibration, fraction=1.0)
    return handle
