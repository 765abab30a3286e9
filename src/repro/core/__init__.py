"""AntiDote core: the paper's primary contribution.

* :mod:`~repro.core.attention` — dynamic significance criteria (Eqs. 1-2).
* :mod:`~repro.core.masks` — binarized top-k masks (Eqs. 3-4).
* :mod:`~repro.core.pruning` — dynamic pruning layers + instrumentation.
* :mod:`~repro.core.ttd` — training with targeted dropout and ratio ascent.
* :mod:`~repro.core.sensitivity` — block sensitivity analysis (Fig. 3).
* :mod:`~repro.core.flops` — static and mask-aware FLOPs accounting.
* :mod:`~repro.core.sparse_exec` — batched, plan-compiled sparse inference.
* :mod:`~repro.core.engine` — pluggable dense/sparse/auto/procpool backends + factory.
* :mod:`~repro.core.training` — shared train/eval loops.
"""

from .attention import CRITERIA, channel_attention, make_criterion, spatial_attention
from .autotune import AutotuneResult, AutotuneStep, autotune_metadata, greedy_ratio_search
from .engine import (
    DenseEngine,
    EngineProtocol,
    SparseEngine,
    available_backends,
    create_engine,
)
from .flops import DynamicFlopsReport, FlopsReport, LayerFlops, count_flops, dynamic_flops
from .masks import (
    MaskSpec,
    channel_mask,
    group_by_kept_count,
    keep_fraction,
    kept_counts,
    quantize_kept_count,
    reserved_count,
    spatial_mask,
    topk_mask,
)
from .pruning import (
    DynamicPruning,
    InstrumentedModel,
    PruningConfig,
    calibrate_thresholds,
    instrument_model,
    pooled_keep_fraction,
)
from .sensitivity import SensitivityResult, block_sensitivity, suggest_upper_bounds
from .sparse_exec import ExecutionPlan, PlanConfig, sparse_conv2d
from .training import EpochStats, evaluate, fit, train_epoch
from .ttd import RatioAscentSchedule, TargetedDropout, TTDStageResult, TTDTrainer

__all__ = [
    "channel_attention",
    "spatial_attention",
    "make_criterion",
    "CRITERIA",
    "reserved_count",
    "topk_mask",
    "channel_mask",
    "spatial_mask",
    "keep_fraction",
    "MaskSpec",
    "kept_counts",
    "quantize_kept_count",
    "group_by_kept_count",
    "DynamicPruning",
    "PruningConfig",
    "InstrumentedModel",
    "instrument_model",
    "pooled_keep_fraction",
    "calibrate_thresholds",
    "count_flops",
    "dynamic_flops",
    "FlopsReport",
    "DynamicFlopsReport",
    "LayerFlops",
    "EpochStats",
    "train_epoch",
    "evaluate",
    "fit",
    "TTDTrainer",
    "TTDStageResult",
    "RatioAscentSchedule",
    "TargetedDropout",
    "SensitivityResult",
    "block_sensitivity",
    "suggest_upper_bounds",
    "sparse_conv2d",
    "PlanConfig",
    "ExecutionPlan",
    "EngineProtocol",
    "DenseEngine",
    "SparseEngine",
    "create_engine",
    "available_backends",
    "greedy_ratio_search",
    "AutotuneResult",
    "AutotuneStep",
    "autotune_metadata",
]
