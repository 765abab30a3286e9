"""Pluggable inference backends behind one protocol and factory.

Every deployment caller needs the same surface — :class:`EngineProtocol` —
whatever runs underneath; :func:`create_engine` builds one of four
backends behind it:

``dense``
    The model's own masked-but-unskipped forward (the paper's PyTorch-style
    semantics).  The numerical reference; no plan, no cache.
``sparse``
    One mask-skipping :class:`~repro.core.sparse_exec.ExecutionPlan`
    compiled from the model, whatever its family: ``Sequential`` stacks,
    VGG-style models and ResNets all become one op list.  Each pruning
    site's mask mode picks its kernels' grouping: threshold-mode
    (adaptive) sites round kept counts up to a quantum, top-k sites group
    by exact count.
``auto``
    ``sparse``, unless the plan compiler rejects the layer graph
    (:class:`~repro.core.sparse_exec.UnsupportedGraphError`); then
    ``dense``.  Only the plan is batch-invariant, and it runs even an
    unpruned model about as fast as the dense forward, or faster.
``procpool``
    A process-parallel pool of bit-identical engine replicas behind
    :mod:`multiprocessing.shared_memory` transport (``proc_workers=N``) —
    the true multi-core serving backend; see
    :mod:`repro.serve.procpool`.

Models carrying FBS-style learned gates (:class:`repro.baselines.dynamic.
GatedModel`) compile like instrumented models: the gates become plan ops
that arm the following convolution, so the closest prior dynamic method
runs on the same batched engine as AntiDote masks.

The serving layer (:mod:`repro.serve`) builds every session through this
factory, so an artifact's metadata can name its backend as data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..nn import Module
from .pruning import InstrumentedModel
from .sparse_exec import ExecutionPlan, PlanConfig, UnsupportedGraphError

__all__ = [
    "EngineProtocol",
    "DenseEngine",
    "SparseEngine",
    "available_backends",
    "create_engine",
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

    def __init__(self, model: object):
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
    """Plan-compiled mask-skipping execution.

    Compiles the model — a ``Sequential`` stack, a VGG-style model or a
    ResNet — into one :class:`~repro.core.sparse_exec.ExecutionPlan` at
    construction; ``plan`` is where a :class:`repro.obs.PlanProfiler`
    attaches.  Batch-invariant by construction: each sample's output is
    bit-identical whichever batch it runs in.

    Thread-safe: the compiled plan's weights are read-only after
    compilation and scratch lives in per-thread workspace arenas, so N
    session workers can run one engine concurrently.  (Caveat: a model carrying the *stochastic*
    ``random`` pruning criterion shares one RNG across callers; serving
    uses deterministic criteria.)
    """

    backend = "sparse"
    thread_safe = True

    def __init__(self, model: object):
        self.model = _unwrap(model)
        self.plan = ExecutionPlan.compile([self.model])

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.plan.run(np.asarray(x, dtype=np.float32))

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "backend": self.backend,
            "dispatch": dict(self.plan.dispatch_counts),
            # All zeros; read only by perfbench/layers.py, which reports
            # them as cache.hit_ratio and cache.entries.
            "cache": {"hits": 0, "misses": 0, "entries": 0},
            "workspace": self.plan.arena_stats(),
        }
        profiler = self.plan.profiler
        if profiler is not None:
            # Per-geometry wall-time/bytes rows (opt-in profiling) travel
            # inside stats() so the procpool's ("stats",) round trip ships
            # worker-side profiles home with no extra protocol.
            stats["profile"] = profiler.snapshot()
        return stats

    def reset_stats(self) -> None:
        self.plan.reset_stats()

    def describe(self) -> str:
        return "SparseEngine(ExecutionPlan)\n" + self.plan.describe()


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def _build_auto(model: object, **kwargs: object) -> EngineProtocol:
    inner = _unwrap(model)
    try:
        return SparseEngine(inner, **kwargs)
    except UnsupportedGraphError:
        # Layer graph the plan compiler does not know — dense fallback.
        pass
    return DenseEngine(inner, **kwargs)


def _build_procpool(model: object, **kwargs: object) -> EngineProtocol:
    """Process-parallel engine pool (lazy import: it lives in the serving
    layer, one level up — see :mod:`repro.serve.procpool`).

    Accepts ``proc_workers=N``, the pool's shared-memory slot size
    ``slot_mb`` and ``profile``; every worker compiles ``model`` itself.
    """
    from ..serve.procpool import ProcPoolEngine

    return ProcPoolEngine(model, **kwargs)


_BACKENDS: Dict[str, Callable[..., EngineProtocol]] = {
    "dense": DenseEngine,
    "sparse": SparseEngine,
    "auto": _build_auto,
    "procpool": _build_procpool,
}


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


def create_engine(
    model: object,
    backend: str = "auto",
    config: Optional[PlanConfig] = None,
    **kwargs: object,
) -> EngineProtocol:
    """Build an inference engine for ``model`` on the named backend.

    Parameters
    ----------
    model:
        ``Sequential`` stack, VGG-style model, ResNet, or an
        :class:`~repro.core.pruning.InstrumentedModel` handle around any of
        them (the handle is unwrapped; its pruners stay in the graph).
    backend:
        One of :func:`available_backends` — ``"auto"``, ``"dense"``,
        ``"procpool"`` or ``"sparse"``.
    config:
        Accepted and ignored (see
        :class:`~repro.core.sparse_exec.PlanConfig`): every plan is
        batch-invariant by construction.
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
    return builder(model, **kwargs)
