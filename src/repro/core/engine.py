"""Pluggable inference backends behind one protocol and factory.

PR 1 built the batched sparse engine but callers still constructed the
executors by hand (``SparseSequentialExecutor`` for conv stacks,
``SparseResNetExecutor`` for ResNets, a ``Tensor`` round trip for the dense
reference).  This module extracts the common surface every deployment
caller needs — :class:`EngineProtocol` — and registers the concrete
backends behind :func:`create_engine`:

``dense``
    The model's own masked-but-unskipped forward (the paper's PyTorch-style
    semantics).  The numerical reference; no plan, no cache.
``sparse``
    The plan-compiled mask-skipping executors from
    :mod:`repro.core.sparse_exec`, dispatched by model family.  Each
    pruning site's mask mode picks its kernels' grouping: threshold-mode
    (adaptive) sites round kept counts up to a quantum, top-k sites group
    by exact count.
``auto``
    Sparsity-threshold dispatch: inspects the model's configured pruning
    ratios and picks ``sparse`` when any site prunes at least
    :data:`AUTO_THRESHOLD` of its dimension (gather savings beat overhead),
    or whenever the config asks for batch-invariant serving, falling back
    to ``dense`` for unpruned models or layer graphs the plan compiler
    rejects (:class:`~repro.core.sparse_exec.UnsupportedGraphError`).
``procpool``
    A process-parallel pool of bit-identical engine replicas behind
    :mod:`multiprocessing.shared_memory` transport (``proc_workers=N``) —
    the true multi-core serving backend; see
    :mod:`repro.serve.procpool`.

Models carrying FBS-style learned gates (:class:`repro.baselines.dynamic.
GatedModel`) compile like instrumented models: the gates become plan ops
that arm the following convolution, so the closest prior dynamic method
runs on the same batched engine as AntiDote masks.

New backends register with :func:`register_backend`; the serving layer
(:mod:`repro.serve`) builds every session through this factory, so an
artifact's metadata can name its backend as data.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..models.base import PrunableModel
from ..models.resnet import ResNet
from ..nn import Module, Sequential
from .pruning import DynamicPruning, InstrumentedModel
from .sparse_exec import (
    PlanConfig,
    SparseResNetExecutor,
    SparseSequentialExecutor,
    UnsupportedGraphError,
)

__all__ = [
    "EngineProtocol",
    "DenseEngine",
    "SparseEngine",
    "available_backends",
    "register_backend",
    "create_engine",
    "iter_pruners",
    "model_sparsity",
    "as_layer_stack",
]


class EngineProtocol:
    """The surface every inference backend exposes.

    Engines are eval-only array-in/array-out callables over NCHW batches.
    Concrete backends subclass this (duck typing is fine too — the serving
    layer only relies on these four members):

    * :meth:`forward` / ``__call__`` — run a batch, return logits.
    * :meth:`stats` — backend counters (dispatches, workspace).
    * :meth:`reset_stats` — zero the counters *without* losing warmed
      state (compiled plans and workspace buffers survive).
    * :meth:`describe` — human-readable execution recipe.

    ``thread_safe`` declares whether concurrent :meth:`forward` calls are
    allowed.  The serving layer's multi-worker sessions check it: engines
    that advertise thread safety run unserialized across N workers;
    everything else is wrapped in a lock (workers still overlap request
    collection, just not compute).
    """

    #: Registry name of the backend that produced this engine.
    backend = "abstract"

    #: Whether concurrent forward() calls are safe.  Conservative default.
    thread_safe = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def stats(self) -> Dict[str, object]:
        return {"backend": self.backend}

    def reset_stats(self) -> None:  # pragma: no cover - trivial default
        pass

    def describe(self) -> str:
        return f"{type(self).__name__}(backend={self.backend!r})"

    def request_bucket(self, x: np.ndarray) -> Optional[object]:
        """Scheduling bucket hint for one request (``None`` = unbucketed).

        Engines that can cheaply predict how a request will group inside
        their batching machinery (e.g. the sparse plan's kept-count
        buckets) override this; the serving scheduler uses it for
        kept-count-aware window assembly when
        :attr:`repro.serve.SessionConfig.bucket_requests` is on.  The
        value only needs to be hashable: channel-only plans return an
        ``int`` kept-count bucket, plans whose first site also prunes
        spatially return a ``(channel_bucket, spatial_bucket)`` tuple.
        """
        return None


# ----------------------------------------------------------------------
# Model normalization helpers
# ----------------------------------------------------------------------
def _unwrap(model: object) -> Module:
    """Peel an instrumentation handle down to the underlying module.

    Both :class:`~repro.core.pruning.InstrumentedModel` (AntiDote sites)
    and :class:`~repro.baselines.dynamic.GatedModel` (FBS gates) are thin
    handles whose pruning layers live *inside* the wrapped module's graph,
    so unwrapping loses nothing.
    """
    from ..baselines.dynamic import GatedModel

    if isinstance(model, (InstrumentedModel, GatedModel)):
        return model.model
    if isinstance(model, Module):
        return model
    raise TypeError(f"cannot build an engine around {type(model).__name__}")


def as_layer_stack(model: Module) -> Sequential:
    """View a model as the flat ``Sequential`` the plan compiler accepts.

    ``Sequential`` models pass through; VGG-style :class:`PrunableModel`
    instances with a ``features``/``pool``/``classifier`` layout are
    re-assembled into one stack (instrumentation wraps sites *inside*
    ``features``, so the pruners ride along).  ResNets are topology-bearing
    and have their own plan — they never go through here.
    """
    if isinstance(model, Sequential):
        return model
    features = getattr(model, "features", None)
    pool = getattr(model, "pool", None)
    classifier = getattr(model, "classifier", None)
    if isinstance(features, Sequential) and pool is not None and classifier is not None:
        return Sequential(features, pool, classifier)
    raise UnsupportedGraphError(
        f"{type(model).__name__} has no Sequential layer-stack view; "
        "pass a Sequential, a VGG-style model, or a ResNet"
    )


def iter_pruners(model: Module) -> Iterator[DynamicPruning]:
    """Yield every :class:`DynamicPruning` layer reachable from ``model``."""
    for module in model.modules():
        if isinstance(module, DynamicPruning):
            yield module


def model_sparsity(model: Module) -> float:
    """Largest configured prune fraction across the model's active sites.

    ``0.0`` for uninstrumented or fully disabled models.  ``threshold``
    mode sites report their on/off ratio switches, which is the best static
    proxy available before any input is seen.  FBS-style gates count with
    their configured ``prune_ratio``.
    """
    from ..baselines.dynamic import FBSGate

    worst = 0.0
    for pruner in iter_pruners(model):
        if pruner.active:
            worst = max(worst, pruner.channel_ratio, pruner.spatial_ratio)
    for module in model.modules():
        if isinstance(module, FBSGate) and module.active:
            worst = max(worst, module.prune_ratio)
    return worst


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class DenseEngine(EngineProtocol):
    """The model's own dense forward (masked, nothing skipped).

    This is the reference semantics — identical to training-time
    verification — and the fallback for layer graphs the plan compiler
    does not know.  Not batch-invariant: the flat GEMMs inside
    ``repro.nn.functional`` pick BLAS kernels by batch size.  Not
    thread-safe either — the autograd forward toggles the (global)
    grad-enabled flag, so multi-worker sessions serialize it.
    """

    backend = "dense"
    thread_safe = False

    def __init__(self, model: object, config: Optional[PlanConfig] = None):
        self.model = _unwrap(model)
        self.calls = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        from ..nn import Tensor, no_grad

        self.calls += 1
        with no_grad():
            out = self.model(Tensor(np.asarray(x, dtype=np.float32)))
        return out.data

    def stats(self) -> Dict[str, object]:
        return {"backend": self.backend, "calls": self.calls}

    def reset_stats(self) -> None:
        self.calls = 0

    def describe(self) -> str:
        return f"DenseEngine({type(self.model).__name__})"


class SparseEngine(EngineProtocol):
    """Plan-compiled mask-skipping execution (the PR 1 engine, wrapped).

    Dispatches by model family: ResNets compile a
    :class:`~repro.core.sparse_exec.ResNetPlan`, everything else is viewed
    as a flat layer stack and compiled into an
    :class:`~repro.core.sparse_exec.ExecutionPlan`.

    Thread-safe: the compiled plan's weights are read-only after
    compilation and scratch lives in per-thread workspace arenas, so N
    session workers can run one engine concurrently.  (Caveat: a model carrying the *stochastic*
    ``random`` pruning criterion shares one RNG across callers; serving
    uses deterministic criteria.)
    """

    backend = "sparse"
    thread_safe = True

    def __init__(self, model: object, config: Optional[PlanConfig] = None):
        inner = _unwrap(model)
        if isinstance(inner, ResNet):
            self._executor = SparseResNetExecutor(inner, config)
        else:
            self._executor = SparseSequentialExecutor(as_layer_stack(inner), config)
        self.model = inner
        self.plan = self._executor.plan

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._executor(np.asarray(x, dtype=np.float32))

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "backend": self.backend,
            "dispatch": dict(self.plan.dispatch_counts),
            # All zeros; read only by perfbench/layers.py, which reports
            # them as cache.hit_ratio and cache.entries.
            "cache": {"hits": 0, "misses": 0, "entries": 0},
            "workspace": self.plan.arena_stats(),
        }
        profiler = getattr(self.plan, "profiler", None)
        if profiler is not None:
            # Per-geometry wall-time/bytes rows (opt-in profiling) travel
            # inside stats() so the procpool's ("stats",) round trip ships
            # worker-side profiles home with no extra protocol.
            stats["profile"] = profiler.snapshot()
        return stats

    def reset_stats(self) -> None:
        self.plan.reset_stats()

    def request_bucket(self, x: np.ndarray) -> Optional[object]:
        """Kept-count bucket of the plan's first pruning site for ``x``.

        Runs the compiled op prefix up to the first site (a fraction of a
        forward pass, on the calling thread, thread-safe); ``None`` when
        the plan has no active pruning site.  An ``int`` for channel-only
        sites, a ``(channel_bucket, spatial_bucket)`` tuple when the site
        prunes spatially too — both hashable, which is all the scheduler
        needs.
        """
        return self.plan.kept_count_bucket(np.asarray(x, dtype=np.float32))

    def describe(self) -> str:
        if isinstance(self.model, ResNet):
            return f"SparseEngine(ResNetPlan, {len(self.plan.blocks)} blocks)"
        return "SparseEngine(ExecutionPlan)\n" + self.plan.describe()


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Callable[..., EngineProtocol]] = {}


def register_backend(name: str, builder: Callable[..., EngineProtocol]) -> None:
    """Register an engine builder under ``name`` (overwrites are an error).

    ``builder(model, config=PlanConfig, **kwargs)`` must return an object
    honoring :class:`EngineProtocol`.
    """
    if name in _BACKENDS:
        raise ValueError(f"engine backend {name!r} is already registered")
    _BACKENDS[name] = builder


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


#: Smallest configured prune fraction at which ``auto`` compiles a plan for
#: a direct (not batch-invariant) caller; below it the gather machinery
#: cannot pay for itself.
AUTO_THRESHOLD = 0.05


def _build_auto(
    model: object,
    config: Optional[PlanConfig] = None,
    **kwargs: object,
) -> EngineProtocol:
    inner = _unwrap(model)
    # A batch-invariant config is a serving contract only plan-backed
    # engines honor, so it takes the compiled plan even for unpruned
    # models (its dense fast path is invariant too).
    invariant = config is not None and config.batch_invariant
    if invariant or model_sparsity(inner) >= AUTO_THRESHOLD:
        try:
            return SparseEngine(inner, config, **kwargs)
        except UnsupportedGraphError:
            # Layer graph the plan compiler does not know — dense fallback.
            pass
    return DenseEngine(inner, config, **kwargs)


def _build_procpool(
    model: object = None,
    config: Optional[PlanConfig] = None,
    **kwargs: object,
) -> EngineProtocol:
    """Process-parallel engine pool (lazy import: it lives in the serving
    layer, one level up — see :mod:`repro.serve.procpool`).

    Accepts ``proc_workers=N`` plus the pool's transport knobs
    (``slots_per_worker``, ``slot_mb``, and the ``registry``/``ref`` pair
    for artifact-based worker startup).
    """
    from ..serve.procpool import ProcPoolEngine

    return ProcPoolEngine(model, config=config, **kwargs)


register_backend("dense", DenseEngine)
register_backend("sparse", SparseEngine)
register_backend("auto", _build_auto)
register_backend("procpool", _build_procpool)


def create_engine(
    model: object,
    backend: str = "auto",
    config: Optional[PlanConfig] = None,
    **kwargs: object,
) -> EngineProtocol:
    """Build an inference engine for ``model`` from the backend registry.

    Parameters
    ----------
    model:
        ``Sequential`` stack, VGG-style model, ResNet, or an
        :class:`~repro.core.pruning.InstrumentedModel` handle around any of
        them (the handle is unwrapped; its pruners stay in the graph).
    backend:
        One of :func:`available_backends` — ``"auto"``, ``"dense"``,
        ``"procpool"`` or ``"sparse"`` unless extended.
    config:
        :class:`~repro.core.sparse_exec.PlanConfig` compilation knobs,
        honored by plan-backed engines.
    kwargs:
        Extra backend-specific options (e.g. the ``procpool`` backend's
        ``proc_workers``).  A backend rejects an option it does not know
        with ``TypeError``.
    """
    try:
        builder = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown engine backend {backend!r}; available: {available_backends()}"
        ) from None
    return builder(model, config=config, **kwargs)
