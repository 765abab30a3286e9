"""``repro.serve``: the serving layer over the batched sparse engine.

The paper's deployment story — per-input channel skipping at test time —
becomes an operable system here:

* :mod:`~repro.serve.registry` — named, versioned model artifacts
  (``.npz`` state + JSON manifest) that rebuild a model, its pruning
  instrumentation, and its compiled plan without caller boilerplate.
* :mod:`~repro.serve.session` — :class:`InferenceSession`, one stable
  inference API: bounded request queue, micro-batching scheduler, and
  per-session telemetry (latency quantiles, occupancy, kernel dispatch counts).
* :mod:`~repro.serve.cascade` — :class:`CascadeSession`, confidence-gated
  cascade serving over a sparsity-ordered family of registry artifacts
  (``repro serve --cascade``).
* :mod:`~repro.serve.loop` — the ``repro serve`` JSONL request loop.
* :mod:`~repro.serve.procpool` — :class:`ProcPoolEngine`, the
  process-parallel engine pool with ``multiprocessing.shared_memory``
  tensor transport (``create_engine(backend="procpool")``).

Engine backends live one layer down in :mod:`repro.core.engine`; sessions
build them through :func:`~repro.core.engine.create_engine`, so artifacts
and CLI flags can name a backend as data.
"""

from ..core.engine import (
    DenseEngine,
    EngineProtocol,
    SparseEngine,
    available_backends,
    create_engine,
)
from .cascade import (
    GATES,
    CalibrationReport,
    CascadeResult,
    CascadeSession,
    gate_confidence,
)
from .loop import decode_request, serve_lines, synthetic_request_lines
from .procpool import ProcPoolClosed, ProcPoolEngine, ProcWorkerError
from .registry import (
    ARTIFACT_SCHEMA,
    ArtifactIntegrityError,
    ArtifactNotFoundError,
    ArtifactPinnedError,
    LoadedArtifact,
    ModelRegistry,
    parse_ref,
)
from .session import InferenceSession, PendingResult, SessionClosed, SessionConfig

__all__ = [
    "EngineProtocol",
    "DenseEngine",
    "SparseEngine",
    "create_engine",
    "available_backends",
    "ARTIFACT_SCHEMA",
    "ArtifactNotFoundError",
    "ArtifactIntegrityError",
    "ArtifactPinnedError",
    "LoadedArtifact",
    "ModelRegistry",
    "parse_ref",
    "InferenceSession",
    "SessionConfig",
    "SessionClosed",
    "PendingResult",
    "CascadeSession",
    "CascadeResult",
    "CalibrationReport",
    "GATES",
    "gate_confidence",
    "decode_request",
    "serve_lines",
    "synthetic_request_lines",
    "ProcPoolEngine",
    "ProcWorkerError",
    "ProcPoolClosed",
]
